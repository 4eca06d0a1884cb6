"""A stdlib wall-clock sampling profiler (collapsed-stack output).

``sys._current_frames()`` gives every live thread's innermost frame; a
sampler thread wakes every ``interval`` seconds, walks each frame chain
root-first, and counts the *collapsed stack* — the semicolon-joined
``thread;file:func;file:func;...`` string flamegraph tools eat directly
(Brendan Gregg's ``flamegraph.pl``, speedscope, pyspy's collapsed mode).

This is deliberately a sampler, not a tracer: overhead is bounded by the
sampling rate (a few hundred dict increments per second) regardless of how
hot the profiled code is, so it is safe to run against a live database —
the ``/pprof?seconds=N`` endpoint on the monitoring server does exactly
that.

The profiler also answers *point* queries: :meth:`top_of_stack` returns
the hottest innermost frame (optionally for one thread), which the flight
recorder folds into slow-transaction captures — "the txn was slow *and
this is where it was*".
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter, sleep
from typing import Any, Mapping

DEFAULT_INTERVAL = 0.005  # 200 Hz: coarse enough to be cheap, fine enough to rank
MAX_STACK_DEPTH = 64


def fold_frame(frame: Any, max_depth: int = MAX_STACK_DEPTH) -> str:
    """One frame chain as ``file:func;...`` (root first, leaf last)."""
    parts: list[str] = []
    depth = 0
    while frame is not None and depth < max_depth:
        code = frame.f_code
        filename = code.co_filename.rsplit("/", 1)[-1]
        parts.append(f"{filename}:{code.co_name}")
        frame = frame.f_back
        depth += 1
    parts.reverse()
    return ";".join(parts)


def render_collapsed(stacks: Mapping[str, int]) -> str:
    """Counts as collapsed-stack text, hottest first (stable ties)."""
    lines = [
        f"{stack} {count}"
        for stack, count in sorted(
            stacks.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


class SamplingProfiler:
    """Samples every thread's stack on a fixed wall-clock interval.

    ``stacks`` maps ``thread;frames...`` collapsed stacks to sample
    counts.  The sampler excludes its own thread.  Thread-safe reads are
    cheap (dict copy under the GIL).
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        self.interval = max(0.001, float(interval))
        self.stacks: dict[str, int] = {}
        self.samples_total = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.started_at: float | None = None

    # ------------------------------------------------------------------ #
    # lifecycle                                                            #
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self.started_at = perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    # ------------------------------------------------------------------ #
    # sampling                                                             #
    # ------------------------------------------------------------------ #

    def sample_once(self) -> int:
        """Take one sample of every live thread; returns threads sampled."""
        own = threading.get_ident()
        names = {t.ident: t.name for t in threading.enumerate()}
        sampled = 0
        for ident, frame in sys._current_frames().items():
            if ident == own:
                continue
            thread_name = names.get(ident, f"thread-{ident}")
            key = f"{thread_name};{fold_frame(frame)}"
            self.stacks[key] = self.stacks.get(key, 0) + 1
            self.samples_total += 1
            sampled += 1
        return sampled

    # ------------------------------------------------------------------ #
    # reads                                                                #
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, int]:
        return dict(self.stacks)

    def top_of_stack(self, thread_name: str | None = None) -> str | None:
        """The hottest leaf frame, optionally restricted to one thread."""
        leaves: dict[str, int] = {}
        for stack, count in self.stacks.items():
            thread, _, frames = stack.partition(";")
            if thread_name is not None and thread != thread_name:
                continue
            leaf = frames.rsplit(";", 1)[-1] if frames else thread
            leaves[leaf] = leaves.get(leaf, 0) + count
        if not leaves:
            return None
        return max(leaves.items(), key=lambda kv: (kv[1], kv[0]))[0]


def profile(seconds: float, interval: float = DEFAULT_INTERVAL) -> SamplingProfiler:
    """Run a sampler for ``seconds`` (blocking) and return it stopped.

    This is the ``/pprof?seconds=N`` implementation: the HTTP handler
    thread blocks here while the sampler thread collects.
    """
    profiler = SamplingProfiler(interval=interval)
    profiler.start()
    try:
        sleep(max(0.0, float(seconds)))
    finally:
        profiler.stop()
    return profiler
