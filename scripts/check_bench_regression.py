#!/usr/bin/env python3
"""CI performance-regression gate.

Compares the BENCH_*.json files produced by scripts/run_bench_json.sh
(via the `bench_json` CMake target) against committed baselines under
bench/baselines/, prints a per-metric delta table, and exits non-zero
if any gated metric dropped by more than the threshold (default 15%).

Two JSON shapes are understood:
  * Google Benchmark native output (bench_micro_*): every benchmark
    entry with an items_per_second counter becomes a metric.
  * The plain-bench wrapper written by run_bench_json.sh: the "metrics"
    object (scraped from BENCH_METRIC stdout lines) is used verbatim.

Metric direction is encoded in the name suffix:
  * `*_latency_s` — lower is better; gated on *increases*, with a
    looser band (2x the throughput threshold) because end-to-end
    latency tails are noisier than throughput means.
  * `*_count` — context only (e.g. fleet.steal_count): printed in the
    delta table but never gated; the bench's own exit code asserts the
    semantic property (count > 0).
  * everything else — higher-is-better throughput or ratio, gated on
    drops.

Two portability mechanisms, by what differs between the hosts:

* Different core count (google-benchmark context.num_cpus / wrapper
  host_cores): parallel throughputs scale with cores, so no scalar
  normalizer applies — only relative metrics (*_rel) are gated.
  Re-bless baselines from the CI host class to gate absolutes.
* Same core count, google-benchmark micro benches only, both runs
  carrying the calibrated spin rate (BM_BurnCalibration's
  spin_rounds_per_ns counter), rates differing by more than the
  calibration noise band: absolute throughputs are gated through
  derived *_norm_rel metrics (rate / spin rate), which cancel
  clock-speed differences between dev- and CI-class hosts of the same
  shape. The raw absolutes still print in the delta table but do not
  gate. Rates within the noise band mean the same host class, where
  raw gating is valid and noise-free. Wrapper benches (fig10,
  ablation) are deliberately NOT normalized: their UDF cost executes
  as timed occupancy of a modeled machine (kTimed, see
  src/pipeline/udf.h), so their rates are largely host-clock-
  independent and dividing by the spin rate would introduce the very
  skew it removes elsewhere; they record host_spin_rounds_per_ns for
  context only.

Usage:
  check_bench_regression.py [--baseline-dir bench/baselines]
                            [--current-dir build] [--threshold 0.15]
                            [--benches bench_micro_engine,...] [--update]

Refreshing baselines (after an intentional perf change, on the same
class of machine that CI uses):
  cmake --build build --target bench_json
  python3 scripts/check_bench_regression.py --update
  git add bench/baselines && git commit

Environment: BENCH_REGRESSION_THRESHOLD overrides --threshold.
"""

import argparse
import json
import os
import shutil
import sys

DEFAULT_BENCHES = [
    "bench_micro_engine",
    "bench_fig10_end_to_end",
    "bench_ablation_passes",
    "bench_multi_tenant",
    "bench_fleet_replay",
    "bench_fig3_fleet_latency",
    "bench_fig4_fleet_utilization",
    "bench_obs8_cache",
    "bench_network",
]

# Wrapper-bench metric carrying the host's calibrated spin rate; it is
# a speed signal, not a throughput, so it is never gated itself.
HOST_SPEED_METRIC = "host_spin_rounds_per_ns"

# Spin rates within this fraction of each other are "the same host
# class": the calibration jitters a few percent between runs on the
# identical machine, so normalizing inside the band would add noise to
# every gated delta instead of removing a clock difference.
SPEED_NOISE_BAND = 0.10


def add_derived_ratios(metrics):
    """Adds <family>/<arg>_vs_1_rel ratio metrics for every benchmark
    family that has an arg-1 variant (e.g. BM_EngineBatchCheapUdf/8/64
    vs .../8/1). Ratios of same-host rates are portable across machine
    shapes, so they stay gated when absolute throughputs are not —
    without them a cross-host run would not gate the micro benches at
    all. Derived identically for baseline and current."""
    families = {}
    for name, rate in metrics.items():
        parts = name.split("/")
        # Drop google-benchmark decorations (e.g. trailing "real_time").
        while parts and not parts[-1].lstrip("-").isdigit():
            parts.pop()
        if not parts:
            continue
        families.setdefault("/".join(parts[:-1]), {})[parts[-1]] = rate
    for family, variants in families.items():
        base = variants.get("1")
        if not base or base <= 0:
            continue
        for arg, rate in variants.items():
            if arg != "1":
                metrics[f"{family}/{arg}_vs_1_rel"] = rate / base


def add_sync_gap(metrics):
    """Adds micro_engine.sync_gap_rel: the parallel engine's throughput
    at claims of up to 64 as a fraction of the single-thread no-channel bound
    (BM_EngineNoSyncBound). 1.0 would mean the data plane's
    synchronization costs nothing; the gated ratio keeps the gap from
    silently widening. Derived identically for baseline and current."""
    engine = bound = None
    for name, rate in metrics.items():
        if name.endswith("_rel"):
            continue  # derived ratios, not raw rates
        if name.startswith("BM_EngineBatchCheapUdf/8/64"):
            engine = rate
        elif name.startswith("BM_EngineNoSyncBound/"):
            bound = rate
    if engine and bound and bound > 0:
        metrics["micro_engine.sync_gap_rel"] = engine / bound


def load_metrics(path):
    """Returns ({metric_name: value}, host_cores or None, host_speed or
    None) for one BENCH_*.json file. host_speed is the calibrated spin
    rate (rounds/ns) — only returned for google-benchmark files, whose
    workloads burn real CPU and therefore scale with it; wrapper-bench
    rates are kTimed-simulated (host-clock-independent), so their
    recorded spin rate is context, not a normalizer."""
    with open(path) as f:
        data = json.load(f)
    metrics = {}
    cores = None
    speed = None
    if isinstance(data, dict) and "benchmarks" in data:  # google-benchmark
        cores = data.get("context", {}).get("num_cpus")
        for bench in data["benchmarks"]:
            if bench.get("run_type") == "aggregate":
                continue
            # Custom counters land as top-level keys of the entry.
            if bench["name"].startswith("BM_BurnCalibration"):
                if bench.get("spin_rounds_per_ns"):
                    speed = float(bench["spin_rounds_per_ns"])
            rate = bench.get("items_per_second")
            if rate:
                metrics[bench["name"]] = float(rate)
        add_derived_ratios(metrics)
        add_sync_gap(metrics)
    elif isinstance(data, dict):
        cores = data.get("host_cores")
        for name, value in data.get("metrics", {}).items():
            if name == HOST_SPEED_METRIC:
                continue  # context only, never gated or normalized by
            metrics[name] = float(value)
    return metrics, cores, speed


def add_speed_normalized(base, cur, base_speed, cur_speed):
    """Adds <name>_norm_rel = value / host_speed for every absolute
    metric present in both runs, and returns the set of raw names that
    were normalized (the gate skips those in favor of their derived
    twins). Rate-per-spin-round cancels clock-speed differences between
    same-shape hosts; it does NOT correct for core-count differences
    (parallel throughputs scale with cores), so callers only invoke
    this when the two runs' core counts match."""
    normalized = set()
    for name in list(base):
        if (is_portable(name) or metric_kind(name) != "throughput"
                or name not in cur):
            continue
        base[f"{name}_norm_rel"] = base[name] / base_speed
        cur[f"{name}_norm_rel"] = cur[name] / cur_speed
        normalized.add(name)
    return normalized


def is_portable(name):
    """Relative (ratio) metrics compare across machine shapes; absolute
    throughputs only compare between same-core-count hosts."""
    return name.endswith("_rel")


def metric_kind(name):
    """Gating direction from the metric-name suffix: "latency" gates on
    increases, "context" never gates, "throughput" gates on drops."""
    if name.endswith("_count"):
        return "context"
    if name.endswith("_latency_s"):
        return "latency"
    return "throughput"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default="build")
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("BENCH_REGRESSION_THRESHOLD", "0.15")),
        help="max tolerated fractional throughput drop (default 0.15)")
    parser.add_argument(
        "--benches",
        default=",".join(DEFAULT_BENCHES),
        help="comma-separated bench names to gate")
    parser.add_argument(
        "--update",
        action="store_true",
        help="bless the current results as the new baselines")
    args = parser.parse_args()

    benches = [b for b in args.benches.split(",") if b]

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        blessed = 0
        for bench in benches:
            current = os.path.join(args.current_dir, f"BENCH_{bench}.json")
            if not os.path.exists(current):
                print(f"UPDATE skip {bench}: {current} not found")
                continue
            shutil.copy(current, os.path.join(args.baseline_dir,
                                              f"BENCH_{bench}.json"))
            print(f"UPDATE {bench}: blessed {current}")
            blessed += 1
        return 0 if blessed else 1

    rows = []  # (metric, baseline, current, delta or None)
    failures = []
    warnings = []
    missing_current = []
    for bench in benches:
        base_path = os.path.join(args.baseline_dir, f"BENCH_{bench}.json")
        cur_path = os.path.join(args.current_dir, f"BENCH_{bench}.json")
        if not os.path.exists(base_path):
            print(f"NOTE {bench}: no committed baseline ({base_path}); "
                  "skipping (bless one with --update)")
            continue
        if not os.path.exists(cur_path):
            missing_current.append(bench)
            continue
        base, base_cores, base_speed = load_metrics(base_path)
        cur, cur_cores, cur_speed = load_metrics(cur_path)
        # Baselines from a different machine shape: absolute throughputs
        # are incomparable (parallel stages scale with cores; no scalar
        # normalizer fixes that), so gate only the relative (ratio)
        # metrics until someone re-blesses baselines from this host
        # class. For same-shape hosts with a speed signal in both runs,
        # gate absolutes through their spin-rate-normalized twins so a
        # slower-clocked CI host doesn't fail on dev-host baselines.
        cross_host = (base_cores is not None and cur_cores is not None
                      and base_cores != cur_cores)
        ungated = set()
        if cross_host:
            skipped = [n for n in base if not is_portable(n)]
            if skipped:
                print(f"NOTE {bench}: baseline from a {base_cores}-core "
                      f"host, current from {cur_cores} cores; gating only "
                      f"relative metrics ({len(skipped)} absolute metrics "
                      "not compared — re-bless baselines on this host "
                      "class to gate them)")
        elif (base_speed and cur_speed
              and abs(cur_speed - base_speed) > SPEED_NOISE_BAND * base_speed):
            # Only switch to normalized gating for a genuine clock-class
            # difference: the spin calibration itself jitters a few
            # percent between runs on the identical host, and dividing
            # by it would inject that noise into every gated delta.
            # Within the band, raw gating is both valid and noise-free.
            ungated = add_speed_normalized(base, cur, base_speed, cur_speed)
            if ungated:
                print(f"NOTE {bench}: host spin rate differs from the "
                      f"baseline's ({base_speed:.4g} vs {cur_speed:.4g} "
                      f"rounds/ns); gating {len(ungated)} absolute metrics "
                      "through their spin-rate-normalized *_norm_rel "
                      "twins (raw values shown, not gated)")
        for name in sorted(base):
            if cross_host and not is_portable(name):
                continue
            if name not in cur:
                rows.append((f"{bench}:{name}", base[name], None, None, ""))
                # A different machine shape can legitimately drop whole
                # configs (e.g. the half-core fig10 run on a 1-core
                # host), so a missing metric is a warning, not a
                # failure; crashed/missing benches fail above.
                warnings.append(f"{bench}:{name} missing from current run")
                continue
            if base[name] <= 0:
                continue
            delta = (cur[name] - base[name]) / base[name]
            kind = metric_kind(name)
            gated = name not in ungated and kind != "context"
            # Latency gates on increases with a looser band (tails are
            # noisier than throughput means); throughput gates on drops.
            if kind == "latency":
                regressed = delta > 2 * args.threshold
                verb = "rose"
            else:
                regressed = delta < -args.threshold
                verb = "dropped"
            flag = ""
            if kind == "context":
                flag = "  (context)"
            elif regressed:
                flag = "  <-- REGRESSION" if gated else "  (not gated)"
            rows.append((f"{bench}:{name}", base[name], cur[name], delta,
                         flag))
            if gated and regressed:
                failures.append(
                    f"{bench}:{name} {verb} {abs(delta):.1%} "
                    f"({base[name]:.4g} -> {cur[name]:.4g})")
        for name in sorted(set(cur) - set(base)):
            rows.append((f"{bench}:{name}", None, cur[name], None, ""))
            # A metric the current build emits but the baseline lacks
            # means the baseline predates the benchmark — an ungated
            # metric is a silent hole in the gate, so fail until it is
            # blessed. Cross-host runs legitimately emit extra configs,
            # so there it is only a warning.
            msg = (f"{bench}:{name} emitted by the current run but "
                   f"missing from the committed baseline — re-bless with "
                   f"--update to start gating it")
            if cross_host:
                warnings.append(msg)
            else:
                failures.append(msg)

    if rows:
        name_w = max(len(r[0]) for r in rows)
        fmt = lambda v: f"{v:14.4g}" if v is not None else f"{'-':>14}"
        print(f"\n{'metric':<{name_w}} {'baseline':>14} {'current':>14} "
              f"{'delta':>8}")
        for name, base, cur, delta, flag in rows:
            d = f"{delta:+8.1%}" if delta is not None else f"{'-':>8}"
            print(f"{name:<{name_w}} {fmt(base)} {fmt(cur)} {d}{flag}")
        print()

    for bench in missing_current:
        failures.append(
            f"{bench}: BENCH_{bench}.json missing from {args.current_dir} "
            "(bench not built or crashed)")

    for w in warnings:
        print(f"WARN: {w}")
    if failures:
        print(f"FAIL: {len(failures)} gate failure(s) "
              f"(threshold {args.threshold:.0%}):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"OK: no gated metric regressed more than {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
