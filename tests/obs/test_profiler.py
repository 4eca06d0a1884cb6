"""Sampling profiler: stack folding, sampling, and collapsed rendering."""

import threading
import time

from repro.obs.profiler import (
    SamplingProfiler,
    fold_frame,
    profile,
    render_collapsed,
)


def _busy_loop(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(i * i for i in range(200))


def test_fold_frame_is_root_first():
    import sys

    frame = sys._getframe()
    folded = fold_frame(frame)
    parts = folded.split(";")
    # The leaf (this test function) is last, callers precede it.
    assert parts[-1].endswith("test_fold_frame_is_root_first")
    assert all(":" in part for part in parts)
    # Basenames only — no path separators leak into the fold.
    assert "/" not in folded


def test_render_collapsed_hottest_first():
    text = render_collapsed({"main;a:f": 3, "main;b:g": 10, "main;c:h": 1})
    lines = text.splitlines()
    assert lines[0] == "main;b:g 10"
    assert lines[-1] == "main;c:h 1"
    counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
    assert counts == sorted(counts, reverse=True)


def test_render_collapsed_empty_is_empty_string():
    assert render_collapsed({}) == ""


def test_sampler_catches_a_busy_thread():
    stop = threading.Event()
    worker = threading.Thread(target=_busy_loop, args=(stop,), name="busy-bee")
    worker.start()
    try:
        stacks = profile(seconds=0.25, interval=0.005).snapshot()
    finally:
        stop.set()
        worker.join()
    assert stacks, "no samples collected"
    busy = {s: n for s, n in stacks.items() if s.startswith("busy-bee;")}
    assert busy, f"busy thread never sampled: {sorted(stacks)}"
    assert any("_busy_loop" in stack for stack in busy)


def test_sampler_excludes_its_own_thread():
    stacks = profile(seconds=0.1, interval=0.005).snapshot()
    assert not any(stack.startswith("repro-profiler;") for stack in stacks)


def test_top_of_stack_names_the_leaf_frame():
    stop = threading.Event()
    worker = threading.Thread(target=_busy_loop, args=(stop,), name="busy-top")
    worker.start()
    profiler = SamplingProfiler(interval=0.005)
    profiler.start()
    try:
        time.sleep(0.2)
        top = profiler.top_of_stack("busy-top")
    finally:
        profiler.stop()
        stop.set()
        worker.join()
    assert top is not None
    assert "_busy_loop" in top or "genexpr" in top


def test_start_stop_idempotent():
    profiler = SamplingProfiler(interval=0.01)
    profiler.start()
    profiler.start()  # no second thread
    assert profiler.running
    profiler.stop()
    profiler.stop()
    assert not profiler.running
