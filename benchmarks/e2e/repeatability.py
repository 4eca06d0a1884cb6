"""Do two sets of runs of the same code agree?  Derives the bounds.

    python3 benchmarks/e2e/repeatability.py            # ~30 min
    python3 benchmarks/e2e/repeatability.py --runs 4   # a quicker look

Runs ``run.py`` the way the harness does — ``--runs`` invocations per
workload, each with another seed — twice, back to back.  For every
``workload/metric`` pair it prints both set medians, their relative
disagreement (signed so that positive = the second set is *worse*), the
quartile spread inside each set as a share of the median, and the bound
``BENCHMARK.json`` holds for the metric.  A pair whose spread exceeds its
bound is marked ``unresolved``: on it, a later change could be reported
neither as a regression nor as unchanged.

The last block proposes bounds from what was seen:
timings ``max(0.10, 2 × disagreement, 3 × spread)`` over the four workloads,
rounded up to the next 0.05 and capped at the 0.25 the harness allows;
``setup_s`` 0.25 (the harness asks for the largest bound there); ``ok_frac``
exact (0.001, the smallest step a relative bound can hold); ``peak_rss_mb``
0.05.
The report is written to ``results/repeatability.txt``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

FIXED_BOUNDS = {"setup_s": 0.25, "ok_frac": 0.001, "peak_rss_mb": 0.05}
MAX_BOUND = 0.25


def invoke(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, check=True, cwd=bench.ROOT,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    manifest = bench.load_manifest()
    parser.add_argument(
        "--workload", action="append", choices=[w["name"] for w in manifest["workloads"]]
    )
    args = parser.parse_args()
    seconds = args.seconds or manifest["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    names = args.workload or [w["name"] for w in manifest["workloads"]]

    began = time.time()
    sets: list[dict[str, list[dict]]] = []
    for which in range(2):
        runs: dict[str, list[dict]] = {name: [] for name in names}
        for name in names:
            for i in range(args.runs):
                seed = 1000 * (which + 1) + i
                runs[name].append(invoke(name, seed, seconds))
                print(f"set {which + 1} {name} seed {seed} done "
                      f"({time.time() - began:.0f} s)", file=sys.stderr)
        sets.append(runs)

    lines = [
        f"# two sets of {args.runs} runs per workload, --seconds {seconds}, "
        f"{time.time() - began:.0f} s in all",
        f"# {'workload/metric':44s} {'median 1':>12s} {'median 2':>12s} "
        f"{'worse by':>9s} {'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}",
    ]
    proposed: dict[str, float] = {}
    unresolved = 0
    for name in names:
        for metric in bounds:
            first = [r[metric] for r in sets[0][name]]
            second = [r[metric] for r in sets[1][name]]
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 * (1 if better[metric] == "lower" else -1)
            s1, s2 = spread(first), spread(second)
            verdict = ""
            if max(s1, s2) > bounds[metric] and metric != "setup_s":
                verdict = "  unresolved"
                unresolved += 1
            elif worse > bounds[metric]:
                verdict = "  DISAGREE"
                unresolved += 1
            lines.append(
                f"{name + '/' + metric:46s} {m1:12.5g} {m2:12.5g} "
                f"{worse:+9.3f} {s1:9.3f} {s2:9.3f} {bounds[metric]:6.3f}{verdict}"
            )
            need = max(0.10, 2 * abs(worse), 3 * max(s1, s2))
            need = math.ceil(need * 20 - 1e-9) / 20  # up to the next 0.05
            proposed[metric] = max(proposed.get(metric, 0.0), need)
    lines.append(f"# {unresolved} pair(s) unresolved or disagreeing")
    lines.append("# bounds these two sets support: max(0.10, 2 x |worse by|, 3 x spread) over")
    lines.append("# the workloads, up to the next 0.05; setup_s takes the largest bound allowed")
    for metric in bounds:
        value = FIXED_BOUNDS.get(metric, min(MAX_BOUND, proposed[metric]))
        capped = "  (capped)" if proposed[metric] > MAX_BOUND and metric not in FIXED_BOUNDS else ""
        lines.append(f"#   {metric:20s} {value:.3f}{capped}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    bench.RESULTS.mkdir(exist_ok=True)
    (bench.RESULTS / "repeatability.txt").write_text(text)
    return 0 if unresolved == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
