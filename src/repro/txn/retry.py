"""Bounded backoff-with-jitter transaction retry.

The engine resolves write-write conflicts by aborting the loser outright
(Section 3.1), which pushes the retry decision to the workload.  This
helper is the standard loop: re-run the body against a fresh snapshot,
backing off exponentially with jitter so herds of conflicting workers
decorrelate instead of re-colliding.

:class:`~repro.errors.DegradedError` and other non-abort failures are
*not* retried — only conflict aborts are transient by construction.  An
abort raised by ``commit`` itself is retried too: on a cluster that is
how a 2PC :class:`~repro.errors.CoordinationAbort` surfaces (a prepare
lost to a transient device error), and it is exactly as transient as a
conflict.  :class:`~repro.errors.TwoPhaseInDoubt` is *not* an abort —
the outcome is unknown, so re-running could double-apply — and
propagates.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import TransactionAborted
from repro.obs.slo import stamp_phase

if TYPE_CHECKING:
    from repro.db import Engine
    from repro.obs.registry import Counter
    from repro.txn.context import TransactionContext


def retry_transaction(
    db: "Engine",
    body: Callable[["TransactionContext"], Any],
    *,
    retries: int = 5,
    base_backoff: float = 0.0005,
    max_backoff: float = 0.05,
    jitter: float = 1.0,
    rng: Any = None,
    sleep: Callable[[float], None] = time.sleep,
    retry_counter: "Counter | None" = None,
    deadline: float | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> Any:
    """Run ``body(txn)`` with bounded, jittered retries on conflict aborts.

    ``body`` must be safe to re-execute from scratch (each attempt sees a
    fresh snapshot).  An attempt is retried when it raises
    :class:`TransactionAborted` or leaves the transaction ``must_abort``
    (a write-write conflict); any other exception aborts and propagates.
    The attempt ``i`` retry waits ``base_backoff * 2**i``, capped at
    ``max_backoff``, scaled by ``1 + jitter * U(0, 1)``.

    ``rng`` may be anything with a ``random()`` method (seeded workload
    generators pass themselves for determinism).  ``retry_counter`` is
    incremented once per retry.  Returns ``body``'s result; raises
    :class:`TransactionAborted` once retries are exhausted.

    Beyond the attempt *count*, the loop can carry a wall-clock budget:
    ``deadline`` is an absolute ``clock()`` timestamp (the service front
    door propagates per-request deadlines this way).  The first attempt
    always runs — the budget bounds *retrying*: when the next backoff
    sleep would cross the deadline, the loop stops and re-raises the
    abort immediately instead of sleeping into a deadline it can no
    longer meet.
    """
    draw = rng.random if rng is not None else random.random
    attempts = retries + 1
    prev_txn_id: int | None = None
    for attempt in range(attempts):
        txn = db.begin()
        if prev_txn_id is not None:
            # Link the fresh attempt to the aborted one so the flight
            # recorder can reconstruct the begin→(retries)→commit chain.
            db.recorder.record(
                "txn.retry",
                txn_id=txn.txn_id,
                prev_txn_id=prev_txn_id,
                attempt=attempt,
            )
        prev_txn_id = txn.txn_id
        try:
            result = body(txn)
        except TransactionAborted:
            if txn.is_active:
                db.abort(txn)
            if attempt == attempts - 1 or not _backoff(
                attempt, base_backoff, max_backoff, jitter, draw, sleep,
                retry_counter, deadline, clock,
            ):
                raise
            continue
        except BaseException:
            if txn.is_active:
                db.abort(txn)
            raise
        if txn.must_abort:
            if txn.is_active:
                db.abort(txn)
            if attempt == attempts - 1 or not _backoff(
                attempt, base_backoff, max_backoff, jitter, draw, sleep,
                retry_counter, deadline, clock,
            ):
                raise TransactionAborted(
                    f"write-write conflict persisted across {attempts} attempts"
                )
            continue
        if txn.is_active:
            try:
                db.commit(txn)
            except TransactionAborted:
                # A commit-time abort: on a single node a conflict caught
                # at commit, on a cluster a CoordinationAbort from 2PC.
                # Both leave the transaction fully rolled back and are as
                # transient as an in-body conflict, so they retry.
                if txn.is_active:
                    db.abort(txn)
                if attempt == attempts - 1 or not _backoff(
                    attempt, base_backoff, max_backoff, jitter, draw, sleep,
                    retry_counter, deadline, clock,
                ):
                    raise
                continue
        return result


def _backoff(
    attempt: int,
    base: float,
    cap: float,
    jitter: float,
    draw: Callable[[], float],
    sleep: Callable[[float], None],
    counter: "Counter | None",
    deadline: float | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> bool:
    """Sleep out one backoff step; ``False`` means the step would cross
    ``deadline``, in which case nothing was slept and the caller must
    stop retrying (the jittered delay is drawn *before* the check so a
    lucky short draw may still fit the remaining budget)."""
    delay = min(cap, base * (2 ** attempt))
    if jitter:
        delay *= 1.0 + jitter * draw()
    if deadline is not None and clock() + delay > deadline:
        return False
    if counter is not None:
        counter.inc()
    if delay > 0:
        # Attribute the sleep to the surrounding service request (if any):
        # backoff is dead time on the request's critical path, and the
        # breakdown must charge it to retrying rather than to engine work.
        with stamp_phase("retry.backoff"):
            sleep(delay)
    return True
