"""Run one map-cycle benchmark workload and print its metrics.

    python3 perfbench/run.py --workload now_daemon_churn --seed 1 \
        --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around the system's stages and prints the per-layer
ledger instead. ``--workload all`` runs every workload both ways, one
process per run, and prints every metric with its unit, the fail ratios,
the untraced route lookup latency and the tracing overhead. The last line
of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
The exit code is 0 only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("now_daemon_churn", "fattree_cold_map", "service_openloop")


def _run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import common, tracing

    if workload == "now_daemon_churn":
        from perfbench import wl_daemon as wl
    elif workload == "fattree_cold_map":
        from perfbench import wl_fattree as wl
    else:
        from perfbench import wl_service as wl
    result = wl.run(seed, seconds, trace)
    if trace:
        metrics = {
            name: {"value": result.per_layer.get(name, 0.0), "unit": unit}
            for name, unit in tracing.PER_LAYER.items()
        }
    else:
        values = result.end_to_end()
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in common.END_TO_END.items()
        }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        **result.fail_ratios(),
        "failures": result.failures,
        **result.detail,
        "schedule": result.schedule,
        "cycle_ms": result.cycle_ms,
    }
    return {
        "detail": detail,
        "correct": result.correct,
        "attempted": result.cycles_attempted + result.routes_attempted,
        "failed": result.cycles_failed + result.routes_failed,
        "metrics": metrics,
    }


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.4f} {m['unit']}")


def _all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        p50 = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                ],
                capture_output=True, text=True, timeout=900, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(proc.stderr, file=sys.stderr)
                return 2
            out = json.loads(lines[-1])
            detail = json.loads(lines[-2])
            merged["correct"] &= out["correct"] and proc.returncode == 0
            merged["attempted"] += out["attempted"]
            merged["failed"] += out["failed"]
            for name, m in out["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = m
            _print_table(f"{workload} (trace={trace})", out["metrics"])
            for key in ("cycle_fail_ratio", "route_fail_ratio"):
                print(f"  {key:<32} {detail[key]:>14.4f} ratio")
            # The untraced run's median cycle and lookup latency, which
            # BENCHMARK.json does not bound (README.md says why).
            for key in ("cycle_ms_p50", "route_ms_p50", "route_ms_p99"):
                if not trace and key in detail:
                    print(f"  {key + ' (untraced)':<32} {detail[key]:>14.4f} ms")
                    merged["metrics"][f"{workload}.{key}.untraced"] = {
                        "value": detail[key], "unit": "ms"
                    }
            p50[trace] = (
                out["metrics"]["trace.cycle_ms_p50"]["value"]
                if trace
                else detail["cycle_ms_p50"]
            )
        overhead = p50[1] - p50[0]
        print(f"  {'trace.overhead_ms':<32} {overhead:>14.4f} ms")
        merged["metrics"][f"{workload}.trace.overhead_ms"] = {
            "value": overhead, "unit": "ms"
        }
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"perfbench: no system under test at {root}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, root)
    import perfbench  # noqa: F401 - puts the checkout's src on sys.path
    if args.workload == "all":
        return _all(args.seed, args.seconds)
    out = _run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_table(f"{args.workload} (trace={args.trace})", out["metrics"])
    print(json.dumps(out.pop("detail")))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
