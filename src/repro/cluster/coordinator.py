"""The two-phase commit coordinator and its durable decision log.

State machine (presumed abort)::

    phase 1:  for each participant, in shard order:
                  prepare  — force the PRP record, hold the txn PREPARED
              any failure → decision = ABORT
    decide:   COMMIT decisions are *forced* to the coordinator log before
              any participant may commit (the classic 2PC write-ahead
              rule); ABORT decisions are written unforced — losing one in
              a crash is harmless because recovery presumes abort.
    phase 2:  COMMIT → commit_prepared on every participant
              ABORT  → abort every still-live participant, then raise
                       CoordinationAbort (retryable)

Crash safety hinges on one subtlety: if forcing a COMMIT decision fails,
the partially-written record is *rewound* (seek + truncate) before the
coordinator falls back to aborting the participants.  Without the rewind
a crash image could still contain the complete commit record while the
participants aborted — recovery would then commit what the living system
rolled back.  When the rewind itself fails the coordinator can neither
commit nor safely abort: it raises :class:`TwoPhaseInDoubt` and leaves
the participants prepared for recovery to resolve.

Named crash points (see :mod:`repro.fault.crashpoints`):

``coordinator.prepare``   before each participant's prepare call
``participant.ack``       after each durable prepare ack and after each
                          phase-2 participant application
``coordinator.decide``    twice around the decision write (distinguish
                          with the injector's ``skip`` count)
"""

from __future__ import annotations

import io
import threading
from typing import TYPE_CHECKING, BinaryIO

from repro.errors import (
    CoordinationAbort,
    DegradedError,
    TransactionAborted,
    TwoPhaseInDoubt,
)
from repro.fault.crashpoints import crash_point
from repro.obs import trace
from repro.obs.recorder import Recorder, get_recorder
from repro.obs.registry import MetricRegistry
from repro.obs.slo import stamp_phase
from repro.txn.context import TxnState
from repro.wal.records import (
    DECISION_ABORT,
    DECISION_COMMIT,
    LoggedDecision,
    decode_entries,
    encode_decision,
)

if TYPE_CHECKING:
    from repro.cluster.sharded import DistributedTransaction, ShardedDatabase


class CoordinatorLog:
    """The coordinator's durable decision log (DEC records only)."""

    def __init__(self, device: BinaryIO | None = None) -> None:
        self.device = device if device is not None else io.BytesIO()
        self._offset = 0
        self._lock = threading.Lock()
        self.commits_logged = 0
        self.aborts_logged = 0
        self.degraded = False
        self.degraded_reason: str | None = None

    def log_decision(self, gid: str, decision: int, force: bool) -> None:
        """Append one decision record; ``force=True`` fsyncs it.

        On a device error the partial record is rewound away and
        :class:`OSError` raised (the caller may then decide abort
        instead).  An un-rewindable failure raises
        :class:`TwoPhaseInDoubt` and poisons the log: a later crash
        image could contain bytes the living process cannot see past.
        """
        payload = encode_decision(gid, decision)
        with self._lock:
            if self.degraded:
                raise TwoPhaseInDoubt(
                    f"coordinator log is poisoned: {self.degraded_reason}"
                )
            start = self._offset
            try:
                self.device.write(payload)
                if force:
                    self.device.flush()
            except Exception as exc:
                self._rewind_or_poison(start, exc)
            self._offset += len(payload)
            if decision == DECISION_COMMIT:
                self.commits_logged += 1
            else:
                self.aborts_logged += 1

    def _rewind_or_poison(self, offset: int, exc: Exception) -> None:
        try:
            self.device.seek(offset)
            self.device.truncate(offset)
        except Exception:
            self.degraded = True
            self.degraded_reason = f"coordinator log unrewindable after {exc!r}"
            raise TwoPhaseInDoubt(self.degraded_reason) from exc
        raise OSError(f"coordinator log write failed: {exc!r}") from exc

    def contents(self) -> bytes:
        """The full decision log image (in-memory devices only)."""
        if isinstance(self.device, io.BytesIO):
            return self.device.getvalue()
        image = getattr(self.device, "image", None)
        if callable(image):
            return image()
        raise TypeError("contents() requires an in-memory log device")

    @staticmethod
    def decisions_from(raw: bytes) -> dict[str, int]:
        """Parse a (possibly torn) decision log into ``{gid: decision}``."""
        decisions: dict[str, int] = {}
        for entry in decode_entries(raw, tolerate_torn_tail=True):
            if isinstance(entry, LoggedDecision):
                decisions[entry.gid] = entry.decision
        return decisions


class TwoPhaseCoordinator:
    """Drives prepare/decide/apply across a transaction's participants."""

    def __init__(
        self,
        cluster: "ShardedDatabase",
        log: CoordinatorLog,
        registry: MetricRegistry | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        self.cluster = cluster
        self.log = log
        self.recorder = recorder if recorder is not None else get_recorder()
        reg = registry if registry is not None else MetricRegistry()
        self._m_commits = reg.counter(
            "cluster.2pc_commit_total", "cross-shard transactions committed"
        )
        self._m_aborts = reg.counter(
            "cluster.2pc_abort_total", "cross-shard transactions aborted by 2PC"
        )
        self._m_prepares = reg.counter(
            "cluster.prepare_total", "participant prepare calls issued"
        )

    def commit(self, dtxn: "DistributedTransaction") -> int:
        """Run 2PC over ``dtxn``'s write participants; returns the largest
        per-shard commit timestamp.

        Raises :class:`CoordinationAbort` (after full rollback everywhere)
        when any prepare fails or the commit decision cannot be written
        but *can* be rewound; raises :class:`TwoPhaseInDoubt` — leaving
        the participants prepared — when it cannot even do that.
        """
        gid = dtxn.gid
        assert gid is not None
        # Read-only participants were committed by the facade before this
        # call (the read-only 2PC optimization); only writers vote.
        participants = sorted(
            (sid, txn)
            for sid, txn in dtxn.participants.items()
            if not txn.is_read_only
        )
        # The whole protocol runs under one span (nested in any enclosing
        # one on this thread), and the journal events carry its trace id,
        # so timelines and Chrome traces show coordinator and per-shard
        # work as one causal tree.
        with trace.span("cluster.2pc", gid=gid) as root_span:
            trace_id = trace.current_trace_id()
            self.recorder.record(
                "cluster.prepare", gid=gid,
                shards=[sid for sid, _ in participants], trace_id=trace_id,
            )

            # ---- phase 1: prepare every participant, in shard order ---- #
            reason: BaseException | None = None
            with stamp_phase("cluster.prepare"):
                for shard_id, txn in participants:
                    with trace.span("cluster.2pc.prepare", shard=shard_id):
                        crash_point("coordinator.prepare")
                        self._m_prepares.inc()
                        try:
                            self.cluster.shards[shard_id].txn_manager.prepare(
                                txn, gid
                            )
                        except (
                            TransactionAborted, DegradedError, OSError
                        ) as exc:
                            # The failing participant rolled itself back
                            # inside prepare; the rest are aborted below.
                            reason = exc
                            break
                        crash_point("participant.ack")

            decision = DECISION_COMMIT if reason is None else DECISION_ABORT

            # ---- decide: force commit decisions before phase 2 ---- #
            with stamp_phase("cluster.decide"), trace.span(
                "cluster.2pc.decide"
            ) as decide_span:
                crash_point("coordinator.decide")
                if decision == DECISION_COMMIT:
                    try:
                        self.log.log_decision(gid, DECISION_COMMIT, force=True)
                    except TwoPhaseInDoubt:
                        # Cannot commit, cannot safely abort: hand the
                        # prepared participants to recovery.
                        decide_span.set_attr("decision", "in-doubt")
                        self.recorder.record(
                            "cluster.decide", gid=gid, decision="in-doubt",
                            trace_id=trace_id,
                        )
                        raise
                    except Exception as exc:
                        # The partial record was rewound, so no crash image
                        # can resurrect a commit decision: aborting is safe.
                        reason = exc
                        decision = DECISION_ABORT
                if decision == DECISION_ABORT:
                    try:
                        self.log.log_decision(gid, DECISION_ABORT, force=False)
                    except Exception:
                        pass  # presumed abort: unwritten abort record is fine
                crash_point("coordinator.decide")
                decided = (
                    "commit" if decision == DECISION_COMMIT else "abort"
                )
                decide_span.set_attr("decision", decided)
                self.recorder.record(
                    "cluster.decide", gid=gid, decision=decided,
                    trace_id=trace_id,
                )

            # ---- phase 2: apply the decision on every participant ---- #
            if decision == DECISION_COMMIT:
                commit_ts = 0
                for shard_id, txn in participants:
                    with trace.span(
                        "cluster.2pc.commit_prepared", shard=shard_id
                    ):
                        commit_ts = max(
                            commit_ts,
                            self.cluster.shards[
                                shard_id
                            ].txn_manager.commit_prepared(txn),
                        )
                        crash_point("participant.ack")
                self._m_commits.inc()
                return commit_ts

            root_span.set_attr("aborted", True)
            for shard_id, txn in participants:
                if txn.state in (TxnState.ACTIVE, TxnState.PREPARED):
                    with trace.span("cluster.2pc.abort", shard=shard_id):
                        self.cluster.shards[shard_id].txn_manager.abort(txn)
                        crash_point("participant.ack")
            self._m_aborts.inc()
            raise CoordinationAbort(
                f"distributed transaction {gid} aborted during 2PC: {reason!r}"
            ) from reason
