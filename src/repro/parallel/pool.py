"""A persistent pool of scan/export worker processes.

The coordinator (the process that owns the :class:`~repro.db.Database`)
dispatches fragments — lists of block descriptors plus what to do with them
— over a task queue; workers push tagged results back.  The pool is built
for graceful degradation, never correctness-by-parallelism:

- every fragment the pool cannot complete (pool not started, worker died
  mid-task, timeout) comes back as ``None``, and the caller redoes exactly
  that fragment in-process;
- results are matched by task id, so a worker that answers late (or a
  fragment from an abandoned query) is dropped as stale rather than
  misattributed;
- dead workers are respawned after every dispatch round, so one crash
  degrades a single query instead of the pool;
- workers share **no** locks with each other: each worker has its own task
  queue (fragments are dealt round-robin) *and* its own result queue.  A
  shared queue is poisoned by a SIGKILL'd worker — a blocked reader holds
  the queue's reader lock, and a writer can die between sending its bytes
  and releasing the write lock (on a single-core machine the coordinator
  routinely consumes a result before the worker's feeder thread is
  rescheduled to release the lock, so "idle" workers still hold it).
  With dedicated queues a kill only strands that worker's own plumbing,
  which the respawn replaces wholesale.

The pool is also a telemetry conduit (see :mod:`repro.obs.relay`): when
built with a registry, every worker runs a :class:`WorkerTelemetry` whose
flush payloads ride the result queues home — metric deltas become
``process``/``worker_id``-labeled series, events and spans land in the
coordinator's flight recorder and tracer clock-aligned, and a
shared-memory staged-event page keeps ``obs.events_dropped_total`` exact
even when a worker is SIGKILLed with unshipped events.  Dispatch captures
the caller's trace context, so worker spans join the dispatching scan's
causal tree.

Start method defaults to ``fork`` where available (cheap, inherits the
import state) and can be forced with ``REPRO_PARALLEL_START_METHOD`` or the
constructor — the CI matrix runs the suite under both ``fork`` and
``spawn``.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import queue as queue_mod
import time
from typing import Any

from repro.obs import trace as _trace
from repro.obs.recorder import broadcast as _record_event
from repro.obs.relay import TelemetryRelay
from repro.parallel.worker import worker_main

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"

#: Environment opt-in for the in-worker sampling profiler.
WORKER_PROFILE_ENV = "REPRO_WORKER_PROFILE"


def default_start_method() -> str:
    method = os.environ.get(START_METHOD_ENV)
    if method:
        return method
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _hottest_stack(profile: dict[str, int] | None) -> str | None:
    """The most-sampled collapsed stack in a worker's profile delta."""
    if not profile:
        return None
    return max(profile.items(), key=lambda kv: (kv[1], kv[0]))[0]


class WorkerPool:
    """Persistent worker processes executing scan/serialize fragments."""

    def __init__(
        self,
        num_workers: int,
        start_method: str | None = None,
        registry=None,
        task_timeout: float = 60.0,
        recorder=None,
        tracer=None,
        profile_workers: bool | None = None,
        profile_interval: float = 0.01,
        slow_fragment_threshold: float | None = None,
    ) -> None:
        self.num_workers = max(1, int(num_workers))
        self.start_method = start_method or default_start_method()
        self.task_timeout = task_timeout
        self._ctx = mp.get_context(self.start_method)
        self._task_queues: list[Any] = []
        self._result_queues: list[Any] = []
        self._workers: list[Any] = []
        self._next_worker = 0
        self._task_seq = itertools.count()
        self._started = False
        self._broken = False
        self._registry = registry
        self._recorder = recorder
        self._tracer = tracer
        if profile_workers is None:
            profile_workers = bool(os.environ.get(WORKER_PROFILE_ENV))
        self.profile_workers = profile_workers
        self.profile_interval = profile_interval
        #: Fragments slower than this (seconds) emit a
        #: ``parallel.slow_fragment`` event with top-of-stack attribution.
        self.slow_fragment_threshold = slow_fragment_threshold
        self._relay: TelemetryRelay | None = None
        #: task_id -> (dispatch monotonic ts, fragment kind); liveness reads
        #: this to expose the oldest outstanding task's age.
        self._outstanding: dict[int, tuple[float, str]] = {}
        self._restart_count = 0
        if registry is not None:
            self._m_dispatched = registry.counter(
                "parallel.tasks_dispatched_total", "fragments sent to workers"
            )
            self._m_completed = registry.counter(
                "parallel.tasks_completed_total", "fragments answered by workers"
            )
            self._m_failures = registry.counter(
                "parallel.task_failures_total", "fragments that errored in a worker"
            )
            self._m_fallbacks = registry.counter(
                "parallel.fallbacks_total",
                "fragments redone in-process (pool down, crash, timeout)",
            )
            self._m_restarts = registry.counter(
                "parallel.worker_restarts_total", "dead workers respawned"
            )
            registry.gauge(
                "parallel.workers_configured", "pool size",
                callback=lambda: self.num_workers,
            )
            registry.gauge(
                "parallel.workers_alive", "workers currently alive",
                callback=lambda: sum(1 for w in self._workers if w.is_alive()),
            )
            registry.gauge(
                "parallel.outstanding_tasks",
                "fragments dispatched and not yet answered",
                callback=lambda: float(len(self._outstanding)),
            )
            registry.gauge(
                "parallel.oldest_outstanding_age_seconds",
                "age of the oldest unanswered fragment (0 when idle)",
                callback=lambda: self.oldest_outstanding_age() or 0.0,
            )
            self._m_worker_tasks = [
                registry.counter(
                    "parallel.worker_tasks_total",
                    "fragments completed per worker",
                    labels={"process": "worker", "worker_id": str(i)},
                )
                for i in range(self.num_workers)
            ]
        else:
            self._m_dispatched = self._m_completed = self._m_failures = None
            self._m_fallbacks = self._m_restarts = None
            self._m_worker_tasks = None

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._started:
            return
        if self._registry is not None and self._relay is None:
            self._relay = TelemetryRelay(
                self.num_workers,
                self._registry,
                recorder=self._recorder,
                tracer=self._tracer,
            )
        self._task_queues = [self._ctx.Queue() for _ in range(self.num_workers)]
        self._result_queues = [self._ctx.Queue() for _ in range(self.num_workers)]
        self._workers = [self._spawn(i) for i in range(self.num_workers)]
        self._started = True

    def _telemetry_args(self) -> dict[str, Any] | None:
        if self._relay is None:
            return None
        args = self._relay.worker_args()
        if self.profile_workers:
            args["profile"] = True
            args["profile_interval"] = self.profile_interval
        return args

    def _spawn(self, index: int):
        process = self._ctx.Process(
            target=worker_main,
            args=(
                index,
                self._task_queues[index],
                self._result_queues[index],
                self._telemetry_args(),
            ),
            name=f"repro-parallel-{index}",
            daemon=True,
        )
        process.start()
        return process

    def ensure_started(self) -> bool:
        """Start lazily; a failed start marks the pool broken (no retries)."""
        if self._broken:
            return False
        if not self._started:
            try:
                self.start()
            except Exception:
                self._broken = True
                _record_event("parallel.pool_broken", method=self.start_method)
                return False
        return True

    @property
    def available(self) -> bool:
        return not self._broken

    @property
    def started(self) -> bool:
        return self._started

    def stop(self) -> None:
        """Stop all workers (idempotent); the pool can be restarted."""
        if not self._started:
            return
        self._started = False
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
        self._drain_final_telemetry()
        self._workers = []
        for q in [*self._task_queues, *self._result_queues]:
            try:
                q.close()
                q.join_thread()
            except Exception:  # pragma: no cover
                pass
        self._task_queues = []
        self._result_queues = []
        self._outstanding.clear()
        if self._relay is not None:
            self._relay.close()
            self._relay = None

    def _drain_final_telemetry(self) -> None:
        """After workers exited: merge their shutdown flushes, then settle
        each worker's staged-event account (exactly zero drops for clean
        exits; the unshipped remainder for terminated ones)."""
        if self._relay is None:
            return
        for result_queue in self._result_queues:
            while True:
                try:
                    entry = result_queue.get_nowait()
                except Exception:
                    break
                if len(entry) >= 5 and entry[4] is not None:
                    self._relay.merge(entry[4])
        for index in range(self.num_workers):
            self._relay.note_worker_death(index)

    def warm(self, timeout: float = 30.0) -> bool:
        """Round-trip a ping through every worker (benchmarks use this to
        keep process startup out of the measured interval)."""
        if not self.ensure_started():
            return False
        results = self.run_fragments(
            "ping", [() for _ in range(self.num_workers)], timeout=timeout
        )
        return all(r == "pong" for r in results)

    # ------------------------------------------------------------------ #
    # dispatch                                                            #
    # ------------------------------------------------------------------ #

    def run_fragments(
        self, kind: str, payloads: list[tuple], timeout: float | None = None
    ) -> list[Any]:
        """Execute ``payloads`` across the pool; order-preserving.

        Returns one entry per payload: the worker's result, or ``None``
        for any fragment the pool could not complete — the caller must
        fall back in-process for exactly those.
        """
        if not payloads:
            return []
        if not self.ensure_started():
            self._count_fallbacks(len(payloads), reason="pool_unavailable")
            return [None] * len(payloads)
        self._reap_and_respawn()  # don't deal fragments to known-dead workers
        ctx = _trace.current_context(self._tracer)
        wire_ctx = tuple(ctx) if ctx is not None else None
        ids: dict[int, int] = {}
        now = time.monotonic()
        for position, payload in enumerate(payloads):
            task_id = next(self._task_seq)
            ids[task_id] = position
            self._outstanding[task_id] = (now, kind)
            index = self._next_worker % self.num_workers
            self._next_worker += 1
            self._task_queues[index].put((task_id, kind, payload, wire_ctx))
        if self._m_dispatched is not None:
            self._m_dispatched.inc(len(payloads))
        _record_event(
            "parallel.dispatch", fragment_kind=kind, fragments=len(payloads),
            trace_id=ctx.trace_id if ctx is not None else None,
        )

        results: list[Any] = [None] * len(payloads)
        pending = set(ids)
        deadline = time.monotonic() + (timeout or self.task_timeout)
        while pending:
            progressed = False
            for result_queue in self._result_queues:
                try:
                    entry = result_queue.get_nowait()
                except queue_mod.Empty:
                    continue
                except Exception:  # pragma: no cover - truncated pickle
                    # A worker killed mid-send leaves a partial frame in its
                    # (private) result pipe; the reap below replaces it.
                    continue
                progressed = True
                task_id, worker_index, ok, payload = entry[:4]
                flushed = entry[4] if len(entry) >= 5 else None
                if flushed is not None and self._relay is not None:
                    self._relay.merge(flushed)
                if task_id is None:
                    continue  # telemetry-only message (worker shutdown)
                position = ids.get(task_id)
                if position is None or task_id not in pending:
                    self._outstanding.pop(task_id, None)
                    continue  # stale: a fragment from an abandoned query
                pending.discard(task_id)
                dispatched_at, _ = self._outstanding.pop(
                    task_id, (None, None)
                )
                if ok:
                    results[position] = payload
                    if self._m_completed is not None:
                        self._m_completed.inc()
                        if 0 <= worker_index < len(self._m_worker_tasks):
                            self._m_worker_tasks[worker_index].inc()
                    _record_event(
                        "parallel.complete", fragment_kind=kind, worker=worker_index
                    )
                    self._note_slow_fragment(
                        kind, worker_index, dispatched_at, flushed
                    )
                else:
                    if self._m_failures is not None:
                        self._m_failures.inc()
                    _record_event(
                        "parallel.task_failed", fragment_kind=kind,
                        worker=worker_index, error=str(payload),
                    )
            if progressed:
                continue
            if any(not w.is_alive() for w in self._workers):
                # A dead worker may have taken pending tasks with it; don't
                # wait out the full timeout for answers that can never come.
                # Live workers' late results for this query are dropped as
                # stale on the next dispatch.
                break
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        for task_id in pending:
            self._outstanding.pop(task_id, None)
        if pending:
            self._count_fallbacks(len(pending), reason="incomplete")
        failed = sum(1 for r in results if r is None) - len(pending)
        if failed > 0:
            self._count_fallbacks(failed, reason="task_failed", record=False)
        self._reap_and_respawn()
        return results

    def run_blocks(self, kind: str, descriptors: list, *args: Any) -> dict[int, Any]:
        """Run a per-block fragment ``kind`` over block ``descriptors``.

        The descriptors go out in contiguous runs, about two per worker for
        balance, each as the payload ``(run, *args)``; the per-block results
        come back keyed by block id.  Blocks of a run the pool could not
        complete are absent — the caller reads exactly those in-process.
        """
        size = max(1, -(-len(descriptors) // (2 * self.num_workers)))
        runs = [descriptors[i : i + size] for i in range(0, len(descriptors), size)]
        answers = self.run_fragments(kind, [(run, *args) for run in runs])
        return {
            result["block_id"]: result for answer in answers for result in answer or ()
        }

    def _note_slow_fragment(
        self,
        kind: str,
        worker_index: int,
        dispatched_at: float | None,
        flushed: dict | None,
    ) -> None:
        threshold = self.slow_fragment_threshold
        if threshold is None or dispatched_at is None:
            return
        elapsed = time.monotonic() - dispatched_at
        if elapsed < threshold:
            return
        top = _hottest_stack(flushed.get("profile") if flushed else None)
        _record_event(
            "parallel.slow_fragment",
            fragment_kind=kind,
            worker=worker_index,
            seconds=elapsed,
            top_stack=top,
        )

    def _count_fallbacks(self, count: int, reason: str, record: bool = True) -> None:
        if self._m_fallbacks is not None:
            self._m_fallbacks.inc(count)
        if record:
            _record_event("parallel.fallback", fragments=count, reason=reason)

    def _reap_and_respawn(self) -> None:
        if not self._started:
            return
        for index, worker in enumerate(self._workers):
            if worker.is_alive():
                continue
            self._restart_count += 1
            if self._m_restarts is not None:
                self._m_restarts.inc()
            if self._relay is not None:
                # Settle the corpse's staged-event account: everything it
                # recorded but never shipped becomes an exact drop count.
                self._relay.note_worker_death(index)
            _record_event(
                "parallel.worker_respawn", worker=index, exitcode=worker.exitcode
            )
            # The dead worker's queues may hold undelivered fragments (stale
            # by now), partial frames, or locks the kill stranded; replace
            # both ends of its plumbing.
            self._task_queues[index] = self._ctx.Queue()
            self._result_queues[index] = self._ctx.Queue()
            self._workers[index] = self._spawn(index)

    # ------------------------------------------------------------------ #
    # introspection / test hooks                                          #
    # ------------------------------------------------------------------ #

    def worker_pids(self) -> list[int]:
        return [w.pid for w in self._workers if w.pid is not None]

    def alive_count(self) -> int:
        return sum(1 for w in self._workers if w.is_alive())

    def oldest_outstanding_age(self) -> float | None:
        """Age (seconds) of the longest-unanswered dispatched fragment,
        ``None`` when nothing is in flight.  A wedged pool shows up here
        long before a scan's timeout expires."""
        # Snapshot: dict values() can mutate under us from the dispatch
        # thread; list() is atomic enough under the GIL.
        stamps = [ts for ts, _ in list(self._outstanding.values())]
        if not stamps:
            return None
        return max(0.0, time.monotonic() - min(stamps))

    def liveness(self) -> dict[str, Any]:
        """Pool health for ``db.health()`` / ``/healthz``."""
        return {
            "configured": self.num_workers,
            "alive": self.alive_count(),
            "started": self._started,
            "broken": self._broken,
            "restarts": self._restart_count,
            "outstanding_tasks": len(self._outstanding),
            "oldest_outstanding_age_seconds": self.oldest_outstanding_age(),
        }

    @property
    def relay(self) -> TelemetryRelay | None:
        """The coordinator-side telemetry relay (``None`` without a registry)."""
        return self._relay

    def __repr__(self) -> str:
        state = "broken" if self._broken else (
            "started" if self._started else "idle"
        )
        return (
            f"WorkerPool(workers={self.num_workers}, "
            f"method={self.start_method!r}, {state})"
        )
