"""Which ``src/`` functions do the system's own consumers ever call?

    python3 tools/reach.py                       # every consumer, ~8 min on 2 cores
    python3 tools/reach.py --consumer examples   # a subset
    python3 tools/reach.py --save before.json    # keep the function lists
    python3 tools/reach.py --compare before.json # name functions reached there, not here
    python3 tools/reach.py --tests               # also run tier-1: dead vs test-only code

Every consumer runs with a ``sys.setprofile`` / ``threading.setprofile``
hook installed by a generated ``sitecustomize`` module at the head of
``PYTHONPATH``, so subprocesses (``run.py``'s workers) carry it too.  Each
process writes the code objects it entered under ``src/`` when it exits.
A function counts as reached when any process entered it; the report
prints, per file, the lines inside functions that no consumer called, and
their total against all of ``src/``'s lines.  Tier-1 tests are not a
consumer: code reached only by its own tests is what this tool finds.
With ``--tests`` tier-1 also runs under the hook, in its own dump
directory, and the report adds the functions that neither a consumer nor
a test entered: dead code, as distinct from code only tests reach.

The hook slows every Python call, so timing assertions in a few benches
fail under it (and, with ``--tests``, a tier-1 test that inspects the
profiler's own stacks); each command's exit status and pytest's
``FAILED`` lines are printed, never hidden.  pytest-benchmark suspends
profiling around every timed call, so the benches run with
``--benchmark-disable``; they run from a temporary copy so their result
files do not overwrite ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIMEOUT_S = 3600

SITECUSTOMIZE = """\
import atexit, os, sys, threading

_SEEN = set()


def _reach_hook(frame, event, arg):
    if event == "call":
        _SEEN.add(frame.f_code)


def _reach_dump():
    sys.setprofile(None)
    threading.setprofile(None)
    prefix = {prefix!r}
    entered = sorted(
        {{(c.co_filename, c.co_firstlineno) for c in list(_SEEN)
          if c.co_filename.startswith(prefix)}}
    )
    out = os.environ.get("REACH_DUMPS")
    if out is None:  # a child started with a cleaned environment
        return
    path = os.path.join(out, "%d.txt" % os.getpid())
    with open(path, "a") as handle:
        handle.writelines("%s\\t%d\\n" % pair for pair in entered)


atexit.register(_reach_dump)
threading.setprofile(_reach_hook)
sys.setprofile(_reach_hook)
"""

BENCH_INI = "[pytest]\naddopts = -q\npython_files = bench_*.py\n"


def consumers(bench_dir: pathlib.Path) -> dict[str, list[list[str]]]:
    """name -> the commands it runs (cwd: the repo root)."""
    py = sys.executable
    examples = sorted((ROOT / "examples").glob("*.py"))
    benches = sorted(p.name for p in (ROOT / "benchmarks").glob("bench_*.py"))
    return {
        "e2e-smoke": [[py, "benchmarks/e2e/run.py", "--smoke"]],
        "examples": [[py, str(path)] for path in examples],
        "demo": [[py, "-m", "repro"]],
        "fault": [[py, "-m", "repro.fault", "--schedules", "20"]],
        "cluster": [[py, "-m", "repro.cluster", "--schedules", "20"]],
        "service-smoke": [[py, "-m", "repro.service", "smoke"]],
        "obs-smoke": [[py, "-m", "repro.obs", "smoke", "--txns", "200"]],
        "benches": [[
            py, "-m", "pytest", "-p", "no:cacheprovider", "--benchmark-disable",
            "--rootdir", str(bench_dir), *[str(bench_dir / b) for b in benches],
        ]],
    }


def run_consumers(
    names: list[str], work: pathlib.Path, tests: bool
) -> tuple[pathlib.Path, pathlib.Path, list[str]]:
    """Run the chosen consumers (and tier-1 when ``tests``) under the hook;
    returns the consumers' and the tests' directories of per-process dumps
    and one report line per failed command."""
    hook_dir, bench_dir = work / "hook", work / "benchmarks"
    dumps, test_dumps = work / "dumps", work / "test-dumps"
    for directory in (hook_dir, dumps, test_dumps, bench_dir):
        directory.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(prefix=str(SRC) + os.sep)
    )
    for path in (ROOT / "benchmarks").glob("*.py"):
        shutil.copy(path, bench_dir)
    (bench_dir / "pytest.ini").write_text(BENCH_INI)
    hooked = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook_dir), str(SRC)]))
    env = dict(hooked, REPRO_BENCH_SCALE="0.05", REACH_DUMPS=str(dumps))
    plan = [
        (name, command, env) for name in names
        for command in consumers(bench_dir)[name]
    ]
    if tests:
        # Tier-1 as CI runs it, but without -x: a failure under the hook
        # must not hide the reach of the tests after it.
        tier1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        plan.append(("tier-1", tier1, dict(hooked, REACH_DUMPS=str(test_dumps))))
    failures = []
    for name, command, command_env in plan:
        label = " ".join(pathlib.Path(c).name if os.sep in c else c for c in command[1:4])
        started = time.perf_counter()
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=command_env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S,
            )
            status, output = done.returncode, done.stdout
        except subprocess.TimeoutExpired as exc:
            status, output = "timeout", exc.stdout or ""
            if isinstance(output, bytes):
                output = output.decode(errors="replace")
        seconds = time.perf_counter() - started
        print(f"[{name}] {label}: exit {status} in {seconds:.0f} s", file=sys.stderr)
        if status != 0:
            failed = [line for line in output.splitlines() if line.startswith("FAILED")]
            detail = failed or output.splitlines()[-5:]
            failures += [f"{name}: {label}: exit {status}"]
            failures += [f"    {line}" for line in detail]
    return dumps, test_dumps, failures


def reached_lines(dumps: pathlib.Path) -> dict[str, set[int]]:
    """file (relative to ``src/``) -> first lines of the code objects entered."""
    reached: dict[str, set[int]] = {}
    for dump in dumps.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, first = line.rsplit("\t", 1)
            rel = os.path.relpath(filename, SRC)
            reached.setdefault(rel, set()).add(int(first))
    return reached


def functions(tree: ast.AST) -> list[tuple[str, int, int]]:
    """(qualified name, first line incl. decorators, last line) of every def."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((name, first, child.end_lineno))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def measure(reached: dict[str, set[int]], tested: dict[str, set[int]] | None) -> dict:
    """Per file: total lines, unreached lines, reached and unreached
    functions; with ``tested``, also the dead functions (entered by no
    consumer and no test) and their lines."""
    report = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        text = path.read_text()
        entered = reached.get(rel, set())
        unreached_lines: set[int] = set()
        dead_lines: set[int] = set()
        hit, missed, dead = [], [], []
        for name, first, last in functions(ast.parse(text)):
            if first in entered:
                hit.append(name)
                continue
            missed.append(name)
            unreached_lines.update(range(first, last + 1))
            if tested is not None and first not in tested.get(rel, ()):
                dead.append((name, last - first + 1))
                dead_lines.update(range(first, last + 1))
        report[rel] = {
            "lines": len(text.splitlines()),
            "unreached": len(unreached_lines),
            "reached_functions": hit,
            "unreached_functions": missed,
        }
        if tested is not None:
            report[rel]["dead"] = len(dead_lines)
            report[rel]["dead_functions"] = dead
    return report


def print_report(report: dict, failures: list[str], compare: dict | None) -> None:
    total = sum(f["lines"] for f in report.values())
    unreached = sum(f["unreached"] for f in report.values())
    print("unreached lines per file (lines in functions no consumer called):")
    for rel, entry in sorted(report.items(), key=lambda kv: -kv[1]["unreached"]):
        if entry["unreached"]:
            print(f"  {entry['unreached']:5d} of {entry['lines']:5d}  {rel}")
    print(f"total: {unreached} unreached lines of {total}")
    if compare is not None:
        lost = [
            f"{rel}:{name}"
            for rel, entry in report.items()
            for name in entry["unreached_functions"]
            if name in compare.get(rel, {}).get("reached_functions", ())
        ]
        print(f"reached in the compared run but not in this one: {len(lost)}")
        for item in lost:
            print(f"  {item}")
    if any("dead" in entry for entry in report.values()):
        dead = sum(entry["dead"] for entry in report.values())
        print("entered by no consumer and no tier-1 test (dead code):")
        for rel, entry in sorted(report.items()):
            for name, length in entry["dead_functions"]:
                print(f"  {length:5d}  {rel}:{name}")
        print(f"dead total: {dead} lines (the rest of the {unreached} "
              "unreached lines only tests enter)")
    print(f"failed commands: {sum(not line.startswith(' ') for line in failures)}")
    for line in failures:
        print(f"  {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = list(consumers(pathlib.Path()))
    parser.add_argument("--consumer", action="append", choices=names,
                        help="run only these consumers (repeatable; default all)")
    parser.add_argument("--save", type=pathlib.Path, help="write the per-file report as JSON")
    parser.add_argument("--compare", type=pathlib.Path,
                        help="a --save file; list functions it reached that this run did not")
    parser.add_argument("--tests", action="store_true",
                        help="also run tier-1 under the hook and list dead code")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        dumps, test_dumps, failures = run_consumers(
            args.consumer or names, pathlib.Path(work), args.tests
        )
        tested = reached_lines(test_dumps) if args.tests else None
        report = measure(reached_lines(dumps), tested)
    if args.save:
        args.save.write_text(json.dumps(report, indent=1, sort_keys=True))
    compare = json.loads(args.compare.read_text()) if args.compare else None
    print_report(report, failures, compare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
