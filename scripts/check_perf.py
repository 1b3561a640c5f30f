#!/usr/bin/env python3
"""Gate bench results against a checked-in baseline.

Usage:
    check_perf.py BENCH.json baseline.json [--tolerance PCT] [--floor PCT]

The bench kind is dispatched on the "workload" field of the two JSON
files (which must match):

fig8-llama2-transfer-mix (bench_pipeline_parallel)
    Compares the deterministic sim-time columns of the current run's
    sweep against the baseline, width by width (widths present in the
    baseline but missing from the current run are an error; extra
    widths in the current run are ignored, so a full sweep can be
    checked against a --quick baseline):

      - sim_seconds          (sequential bit-exactness phase)
      - pipeline_sim_seconds (depth-K pipelined phase)

    A width regresses when its current time exceeds the baseline by
    more than the tolerance (default 15%). Sim time is analytic and
    seeded, so on an unchanged tree the comparison is exact; the
    tolerance only absorbs intentional model drift in future changes.

metric "serve_fleet" (bench_serve_fleet)
    Three gates, per tenant count present in the baseline:

      1. speedup_10k >= 10.0 in the CURRENT run: the event kernel
         (owned, cancellable timers) must run the 10k-tenant mix at
         least 10x faster (wall clock) than the legacy closure-heap
         kernel.
      2. Determinism: issued / completed / slo_misses /
         events_dispatched / sim_seconds in the serve sweep must
         match the baseline exactly. These are seeded sim outputs —
         any drift means the event core reordered something.
      3. Throughput floor: wheel_events_per_sec (the event-kernel
         side of the kernel gate; the key predates the heap) and
         events_per_sec (serve sweep) must stay above --floor
         percent of the baseline (default 40%, because wall-clock
         throughput is noisy on shared CI runners).

metric "serve_chaos" (bench_serve_chaos)
    Two gates:

      1. Determinism: for every (overload_factor, controlled, chaos)
         row in the baseline, the request ledger (issued / arrivals /
         admitted / completed / slo_misses / shed_on_admit /
         shed_on_deadline / retries / rerouted / crashes /
         events_dispatched) must match exactly when the current run
         used the same seed. Skipped row-by-row when the seeds
         differ (the CI rotating-seed run exercises the invariant
         checks in validate_obs.py instead).
      2. Goodput retention: the controlled no-chaos goodput at 1.5x
         overload must stay within --tolerance percent (default 15%)
         of the baseline's. This is the headline robustness number —
         admission + shedding holding goodput at capacity while the
         offered load is 50% over it.

Improvements are reported but never fail the gate — refresh the
baseline by copying the new bench JSON over it when a speedup should
become the new floor. Exits non-zero listing every regressed cell.
"""

import json
import sys


def load_bench(path):
    with open(path) as f:
        return json.load(f)


def check_pipeline(current, baseline, tolerance, _floor):
    def sweep(bench, path):
        rows = bench.get("sweep", [])
        if not rows:
            raise ValueError(f"{path}: no sweep rows")
        return {row["crypto_threads"]: row for row in rows}

    cur_rows = sweep(current, "current")
    base_rows = sweep(baseline, "baseline")

    regressions = []
    print(
        f"{'width':>5} {'phase':>10} {'baseline ms':>12} "
        f"{'current ms':>12} {'delta':>8}"
    )
    for width, base_row in sorted(base_rows.items()):
        cur_row = cur_rows.get(width)
        if cur_row is None:
            raise ValueError(
                f"width {width} in baseline but missing from current run"
            )
        for key, phase in (
            ("sim_seconds", "sequential"),
            ("pipeline_sim_seconds", "pipelined"),
        ):
            base = base_row[key]
            cur = cur_row[key]
            delta = (cur - base) / base if base > 0 else 0.0
            print(
                f"{width:>5} {phase:>10} {base * 1e3:>12.3f} "
                f"{cur * 1e3:>12.3f} {delta * 100:>+7.2f}%"
            )
            if cur > base * (1.0 + tolerance):
                regressions.append(
                    f"width {width} {phase}: {cur * 1e3:.3f} ms vs "
                    f"baseline {base * 1e3:.3f} ms "
                    f"(+{delta * 100:.1f}% > {tolerance * 100:.0f}%)"
                )
    if not regressions:
        print(
            f"perf ok: {len(base_rows)} widths within "
            f"{tolerance * 100:.0f}% of baseline"
        )
    return regressions


SERVE_EXACT = (
    "issued",
    "completed",
    "slo_misses",
    "events_dispatched",
    "sim_seconds",
)


def check_serve(current, baseline, _tolerance, floor):
    regressions = []

    speedup = current.get("speedup_10k", 0.0)
    print(f"speedup_10k: {speedup:.1f}x (gate: >= 10.0x)")
    if speedup < 10.0:
        regressions.append(
            f"speedup_10k {speedup:.2f}x below the 10x kernel gate"
        )

    def by_tenants(bench, key, path):
        rows = bench.get(key, [])
        if not rows:
            raise ValueError(f"{path}: no {key!r} rows")
        return {row["tenants"]: row for row in rows}

    # Kernel-gate throughput floor.
    cur_gate = by_tenants(current, "kernel_gate", "current")
    base_gate = by_tenants(baseline, "kernel_gate", "baseline")
    for tenants, base_row in sorted(base_gate.items()):
        cur_row = cur_gate.get(tenants)
        if cur_row is None:
            raise ValueError(
                f"kernel_gate tenants={tenants} missing from current run"
            )
        base = base_row["wheel_events_per_sec"]
        cur = cur_row["wheel_events_per_sec"]
        print(
            f"kernel {tenants:>6} tenants: {cur / 1e6:8.2f} Mev/s "
            f"(baseline {base / 1e6:.2f}, floor {floor * 100:.0f}%)"
        )
        if cur < base * floor:
            regressions.append(
                f"kernel_gate tenants={tenants}: kernel events/sec "
                f"{cur:.0f} below {floor * 100:.0f}% of baseline "
                f"{base:.0f}"
            )

    # Serve sweep: exact determinism columns + throughput floor.
    cur_serve = by_tenants(current, "serve", "current")
    base_serve = by_tenants(baseline, "serve", "baseline")
    for tenants, base_row in sorted(base_serve.items()):
        cur_row = cur_serve.get(tenants)
        if cur_row is None:
            raise ValueError(
                f"serve tenants={tenants} missing from current run"
            )
        for key in SERVE_EXACT:
            if cur_row[key] != base_row[key]:
                regressions.append(
                    f"serve tenants={tenants}: {key} drifted "
                    f"({cur_row[key]!r} != baseline {base_row[key]!r}) "
                    "— deterministic sim output changed"
                )
        base = base_row["events_per_sec"]
        cur = cur_row["events_per_sec"]
        print(
            f"serve  {tenants:>6} tenants: {cur / 1e6:8.2f} Mev/s "
            f"(baseline {base / 1e6:.2f}), issued {cur_row['issued']}, "
            f"misses {cur_row['slo_misses']}"
        )
        if cur < base * floor:
            regressions.append(
                f"serve tenants={tenants}: events/sec {cur:.0f} below "
                f"{floor * 100:.0f}% of baseline {base:.0f}"
            )

    if not regressions:
        print(
            f"perf ok: serve gate passed for {len(base_serve)} tenant "
            f"counts (speedup_10k {speedup:.1f}x)"
        )
    return regressions


CHAOS_EXACT = (
    "issued",
    "arrivals",
    "admitted",
    "completed",
    "slo_misses",
    "shed_on_admit",
    "shed_on_deadline",
    "retries",
    "rerouted",
    "crashes",
    "events_dispatched",
)


def check_serve_chaos(current, baseline, tolerance, _floor):
    regressions = []

    def by_point(bench, path):
        rows = bench.get("sweep", [])
        if not rows:
            raise ValueError(f"{path}: no sweep rows")
        return {
            (row["overload_factor"], row["controlled"], row["chaos"]): row
            for row in rows
        }

    cur_rows = by_point(current, "current")
    base_rows = by_point(baseline, "baseline")

    same_seed = current.get("seed") == baseline.get("seed")
    if not same_seed:
        print(
            f"seeds differ (current {current.get('seed')}, baseline "
            f"{baseline.get('seed')}): skipping exact ledger "
            "comparison, goodput gate only"
        )

    for point, base_row in sorted(base_rows.items()):
        cur_row = cur_rows.get(point)
        if cur_row is None:
            raise ValueError(
                f"sweep point {point} in baseline but missing from "
                "current run"
            )
        if not same_seed:
            continue
        for key in CHAOS_EXACT:
            if cur_row[key] != base_row[key]:
                factor, controlled, chaos = point
                regressions.append(
                    f"sweep {factor}x"
                    f"{' ctl' if controlled else ' raw'}"
                    f"{' chaos' if chaos else ''}: {key} drifted "
                    f"({cur_row[key]!r} != baseline {base_row[key]!r}) "
                    "— deterministic sim output changed"
                )

    # Headline goodput gate at 1.5x overload, controlled, no chaos.
    point = (1.5, True, False)
    base_row = base_rows.get(point)
    cur_row = cur_rows.get(point)
    if base_row is None or cur_row is None:
        raise ValueError(
            "sweep is missing the 1.5x controlled no-chaos point "
            "the goodput gate keys on"
        )
    base = base_row["goodput_per_sec"]
    cur = cur_row["goodput_per_sec"]
    delta = (cur - base) / base if base > 0 else 0.0
    print(
        f"goodput at 1.5x overload (controlled): {cur:.2f} req/s "
        f"(baseline {base:.2f}, {delta * 100:+.2f}%, tolerance "
        f"{tolerance * 100:.0f}%)"
    )
    if cur < base * (1.0 - tolerance):
        regressions.append(
            f"goodput at 1.5x overload {cur:.2f} req/s fell more "
            f"than {tolerance * 100:.0f}% below baseline {base:.2f}"
        )

    for gate in (
        "goodput_retention_ok",
        "ttft_bounded_ok",
        "unbounded_collapse_shown",
        "zero_lost_ok",
        "replay_identical",
    ):
        if current.get(gate) is not True:
            regressions.append(f"gate '{gate}' is not true")

    if not regressions:
        print(
            f"perf ok: serve_chaos gate passed for {len(base_rows)} "
            "sweep points"
            + ("" if same_seed else " (goodput-only, seeds differ)")
        )
    return regressions


CHECKERS = {
    "fig8-llama2-transfer-mix": check_pipeline,
    "serve_fleet": check_serve,
    "serve_chaos": check_serve_chaos,
}


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    tolerance = 0.15
    floor = 0.40
    for a in argv[1:]:
        if a.startswith("--tolerance"):
            tolerance = float(a.split("=", 1)[1]) / 100.0
        elif a.startswith("--floor"):
            floor = float(a.split("=", 1)[1]) / 100.0
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        current = load_bench(args[0])
        baseline = load_bench(args[1])
        workload = baseline.get("workload")
        if current.get("workload") != workload:
            raise ValueError(
                f"workload mismatch: current {current.get('workload')!r} "
                f"vs baseline {workload!r}"
            )
        checker = CHECKERS.get(workload)
        if checker is None:
            raise ValueError(f"unknown workload {workload!r}")
        regressions = checker(current, baseline, tolerance, floor)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1

    if regressions:
        for r in regressions:
            print(f"FAIL: {r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
