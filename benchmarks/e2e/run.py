"""The end-to-end HTAP benchmark: OLTP → transform → Arrow export.

    python3 benchmarks/e2e/run.py --workload tpcc_mix --seed 1
    python3 benchmarks/e2e/run.py --workload tpcc_mix --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --smoke            # all four, small, < 30 s

Each workload runs in fresh interpreters (``worker.py``, ``PYTHONHASHSEED=0``).
An untraced invocation runs ``REPEATS`` of them one after the other, each
measuring ``--seconds / REPEATS``, and reports the per-metric median, so
every number — ``setup_s`` included — is the middle of three independent
processes.  Timings are scaled to a reference machine speed by a spin loop
that runs beside them (``worker.py`` says why).  A traced invocation (``--trace 1``) runs one untraced and one
traced worker of the same length and reports the per-layer metrics of the
traced one plus the throughput it lost to tracing.  Every metric is printed
by name with its unit; the last line of standard output is one JSON object
(see README.md for the glossary).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: Fresh-process repeats per untraced invocation.  Three is what fits the
#: harness's time cap at four workloads (see README, "Time budget").
REPEATS = 3
SMOKE_SCALE = 0.05
#: A worker takes 5-8 s; three of these stay inside the harness's 180 s.
WORKER_TIMEOUT = 55.0


def load_manifest() -> dict:
    """``BENCHMARK.json``: the one list of workloads, metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(manifest: dict, section: str) -> dict[str, str]:
    """name → unit of the manifest's ``end_to_end`` or ``per_layer`` metrics,
    in the order they are printed."""
    return {metric["name"]: metric["unit"] for metric in manifest[section]}


def run_worker(workload: str, seed: int, seconds: float, scale: float, trace_out=None) -> dict:
    """One fresh interpreter; returns the worker's JSON result."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--scale", repr(scale),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def summarize(results: list[dict], metrics: dict[str, dict]) -> dict:
    """The contract's result object over one workload's workers."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def aggregate(results: list[dict], end_to_end: dict[str, str]) -> dict:
    metrics = {
        name: {
            "value": statistics.median(r["metrics"][name] for r in results),
            "unit": unit,
        }
        for name, unit in end_to_end.items()
    }
    return summarize(results, metrics)


def trace(
    workload: str, seed: int, seconds: float, scale: float, per_layer: dict[str, str]
) -> tuple[dict, list[dict]]:
    RESULTS.mkdir(exist_ok=True)
    trace_out = RESULTS / f"trace_{workload}.json"
    plain = run_worker(workload, seed * REPEATS, seconds, scale)
    traced = run_worker(workload, seed * REPEATS, seconds, scale, trace_out)
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = (
        1.0 - traced["metrics"]["txn_per_s"] / plain["metrics"]["txn_per_s"]
    )
    metrics = {
        name: {"value": layers[name], "unit": unit} for name, unit in per_layer.items()
    }
    print(f"# {workload}: {traced['trace_events']} of {traced['spans']} spans "
          f"written to {trace_out.relative_to(ROOT)}")
    return summarize([plain, traced], metrics), [plain, traced]


def report(workload: str, summary: dict, results: list[dict]) -> None:
    samples = results[-1]["samples"]
    print(f"# {workload}: {len(results)} worker(s); last worker timed "
          f"{samples['transactions']} txns in {samples['oltp_seconds']:.2f} s, "
          f"{samples['export_trials']} exports in {samples['export_seconds']:.2f} s, "
          f"{samples['scan_trials']} scans in {samples['scan_seconds']:.2f} s, "
          f"recovery of {samples['log_bytes']} B in {samples['recovery_seconds']:.2f} s")
    print(f"# {workload}: timings are scaled to reference machine speed; the workers "
          f"ran at {', '.join(format(r['machine_slowdown'], '.3f') for r in results)} "
          f"x the reference spin time")
    for result in results:
        for failure in result["failures"]:
            print(f"# {workload}: FAILED {failure}")
    for name, metric in summary["metrics"].items():
        print(f"{workload}/{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{workload}/{'ok':32s} {summary['attempted'] - summary['failed']} of "
          f"{summary['attempted']} operations and checks")


def main() -> int:
    manifest = load_manifest()
    workloads = tuple(w["name"] for w in manifest["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="measured seconds per invocation on the reference box "
                             "(fixes the operation count; split over the workers)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on table sizes and operations per round")
    parser.add_argument("--smoke", action="store_true",
                        help=f"--scale {SMOKE_SCALE}, one short worker per workload")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no engine to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    repeats = 1 if args.smoke else REPEATS
    scale = SMOKE_SCALE if args.smoke else args.scale
    seconds = 1.0 if args.smoke else args.seconds / REPEATS
    names = workloads if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        if args.trace:
            for name in names:
                summaries[name], results = trace(
                    name, args.seed, seconds, scale, units(manifest, "per_layer")
                )
                report(name, summaries[name], results)
        else:
            # Round-robin over the workloads, so that slow drift of the
            # machine spreads over all of them instead of landing on one.
            # Each worker gets its own seed derived from --seed: the median
            # then also averages over what differs between seeds (which
            # blocks happen to be hot when a trial starts).
            results = {name: [] for name in names}
            for i in range(repeats):
                for name in names:
                    results[name].append(
                        run_worker(name, args.seed * REPEATS + i, seconds, scale)
                    )
            for name in names:
                summaries[name] = aggregate(results[name], units(manifest, "end_to_end"))
                report(name, summaries[name], results[name])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    last = summaries[names[0]] if len(names) == 1 else {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name, s in summaries.items() for metric, value in s["metrics"].items()
        },
    }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
