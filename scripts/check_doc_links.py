#!/usr/bin/env python3
"""Fail on dead relative links and dead path tokens in the repo's docs.

Scans README.md and docs/*.md (plus any extra files given on the
command line) for two kinds of reference:

* markdown links of the form [text](target). External targets
  (http/https/mailto) and pure in-page anchors (#...) are ignored;
  everything else is resolved relative to the containing file and must
  exist in the working tree.
* backticked tokens that start with a top-level source directory
  (`src/`, `bench/`, `tests/`, `examples/`, `scripts/`, `perfbench/`,
  `docs/`). A `:line` suffix is stripped, tokens holding `*`, `<` or
  `{` (globs and placeholders) are skipped, and the rest is resolved
  relative to the repository root and must name an existing file or
  directory.

Exit code 0 = all references resolve, 1 = at least one dead reference
(listed).
"""

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")
TOKEN_RE = re.compile(r"`([^`\s]+)`")
PATH_ROOTS = ("src/", "bench/", "tests/", "examples/", "scripts/",
              "perfbench/", "docs/")
LINE_SUFFIX_RE = re.compile(r":[0-9][0-9,\-–]*$")


def check_file(path: Path, repo_root: Path) -> list:
    dead = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for target in LINK_RE.findall(line):
            if target.startswith(EXTERNAL) or target.startswith("#"):
                continue
            # Strip a trailing anchor: docs/foo.md#section checks foo.md.
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (path.parent / file_part).resolve()
            try:
                resolved.relative_to(repo_root)
            except ValueError:
                dead.append((path, lineno, target, "escapes the repository"))
                continue
            if not resolved.exists():
                dead.append((path, lineno, target, "does not exist"))
        for token in TOKEN_RE.findall(line):
            if not token.startswith(PATH_ROOTS):
                continue
            if any(c in token for c in "*<{"):
                continue
            file_part = LINE_SUFFIX_RE.sub("", token)
            if not (repo_root / file_part).exists():
                dead.append((path, lineno, token, "names no existing path"))
    return dead


def main(argv: list) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    files = [repo_root / "README.md"]
    files.extend(sorted((repo_root / "docs").glob("*.md")))
    files.extend(Path(a).resolve() for a in argv[1:])
    missing_inputs = [f for f in files if not f.exists()]
    if missing_inputs:
        for f in missing_inputs:
            print(f"error: input file {f} not found")
        return 1
    dead = []
    for f in files:
        dead.extend(check_file(f, repo_root))
    if dead:
        print("dead links:")
        for path, lineno, target, why in dead:
            rel = path.relative_to(repo_root)
            print(f"  {rel}:{lineno}: ({target}) {why}")
        return 1
    print(f"doc links OK: {len(files)} files checked")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
