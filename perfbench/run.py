#!/usr/bin/env python3
"""Build and run perfbench, the repository benchmark.

    python3 perfbench/run.py --workload ingest_text --seed 1 --seconds 30 \
        --trace 0 [--out results.jsonl]

Configures and builds perfbench/ (which compiles the library from src/)
with CMake into <build root>/perfbench, where the build root is
$CARGO_TARGET_DIR if set, else .bench_build, taken relative to the
repository root. Then it runs one workload and forwards its output: the
last line of stdout is the JSON result. Build output goes to stderr.

With --trace 1 the spans are written as Chrome trace-event JSON to
<build root>/traces/<workload>-seed<seed>.json. With --out, one JSON line
per run (host stamp, workload, seed, result) is appended to that file;
results.py summarizes and compares such files.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 175


def build_root():
    raw = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(raw)
    return path if path.is_absolute() else ROOT / path


def build(root):
    """Configures (once) and builds perfbench; returns the binary path."""
    build_dir = root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(root / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(build_dir), "-j",
                        str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", help="append a JSON line per run here")
    args = parser.parse_args()

    if not (ROOT / "src").is_dir():
        print(f"perfbench: no library sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    root = build_root()
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace]
    if args.trace == "1":
        trace_out = root / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PERFBENCH_GIT_COMMIT=git_commit())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()

    if args.out and proc.stdout.strip():
        lines = proc.stdout.strip().splitlines()
        host = next((json.loads(line[len("perfbench host "):])
                     for line in lines if line.startswith("perfbench host ")),
                    {})
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": int(args.trace),
                  "host": host, "result": json.loads(lines[-1])}
        with open(args.out, "a") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
