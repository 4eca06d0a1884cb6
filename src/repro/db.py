"""The Database facade: all engine components wired together.

This is the top of the public API — the piece a downstream user
instantiates.  It owns the catalog, timestamp domain, transaction manager,
log manager, garbage collector, access observer, and block transformer, in
the architecture of Figure 4 plus the transformation pipeline of Figure 8.

Example::

    from repro import Database, ColumnSpec, INT64, UTF8

    db = Database()
    items = db.create_table("item", [
        ColumnSpec("i_id", INT64), ColumnSpec("i_name", UTF8),
    ])
    with db.transaction() as txn:
        items.table.insert(txn, {0: 1, 1: "widget"})
"""

from __future__ import annotations

import contextlib
import io
from typing import BinaryIO, Iterator, Literal

from repro.catalog.catalog import Catalog, TableInfo
from repro.gc_engine.collector import GarbageCollector
from repro.obs.recorder import Recorder
from repro.obs.registry import MetricRegistry
from repro.obs.slo import SloTracker
from repro.storage.block_store import BlockStore
from repro.storage.constants import BLOCK_SIZE, BlockState
from repro.storage.data_table import DataTable
from repro.storage.layout import ColumnSpec
from repro.transform.access_observer import AccessObserver
from repro.transform.transformer import BlockTransformer
from repro.txn.context import TransactionContext
from repro.txn.manager import TransactionManager
from repro.wal.manager import LogManager
from repro.wal.recovery import RecoveryManager


class Engine:
    """The surface both engines share: :class:`Database` (one node) and
    :class:`~repro.cluster.sharded.ShardedDatabase` (N of them).

    It wires the observability objects every consumer reads (``obs``,
    ``recorder``, ``slo``) and runs transactions over
    the subclass's ``begin``/``commit``/``abort``.  Subclasses also supply
    ``catalog``, ``health()``, ``flush_all()`` and ``partitions()``, so
    the service, the obs server and the retry helper never ask which
    engine they hold.
    """

    def __init__(
        self,
        obs_registry: MetricRegistry | None = None,
        recorder: Recorder | None = None,
        slow_txn_threshold: float | None = None,
    ) -> None:
        #: The engine-wide metric registry (see :mod:`repro.obs`): every
        #: component publishes into it, ``metrics()`` and the Prometheus /
        #: JSON expositions read from it.  Per-instance by default so
        #: independent databases never mix counts.
        self.obs = obs_registry if obs_registry is not None else MetricRegistry()
        #: The flight recorder (see :mod:`repro.obs.recorder`): every
        #: component journals its events and trace spans here, and the
        #: service front door its completed requests; ``timeline()``,
        #: ``serve_obs()``'s ``/events``, ``/trace`` and ``/request``, and
        #: the Chrome-trace export read from it.  ``slow_txn_threshold``
        #: (seconds) enables ``txn.slow`` captures.
        self.recorder = (
            recorder
            if recorder is not None
            else Recorder(registry=self.obs, slow_txn_threshold=slow_txn_threshold)
        )
        #: Per-tenant SLO accounting (fed by the service front door;
        #: served at /slo by the obs HTTP server).
        self.slo = SloTracker(registry=self.obs)
        self._obs_server = None

    @contextlib.contextmanager
    def transaction(self) -> Iterator[TransactionContext]:
        """Context manager committing on success, aborting on exception."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if txn.is_active:
                self.abort(txn)
            raise
        else:
            if txn.is_active:
                self.commit(txn)

    def run_transaction(self, body, retries: int = 3):
        """Run ``body(txn)`` with automatic retry on write-write conflicts
        (and, on a cluster, on 2PC coordination aborts).

        ``body`` must be safe to re-execute (it is rerun from scratch on
        conflict, against a fresh snapshot).  Returns ``body``'s result.
        Raises :class:`~repro.errors.TransactionAborted` once retries are
        exhausted.  Immediate retries, no backoff — workloads wanting
        jittered backoff use :func:`repro.txn.retry.retry_transaction`
        directly.
        """
        from repro.txn.retry import retry_transaction

        return retry_transaction(self, body, retries=retries, base_backoff=0.0)

    def timeline(self, txn_id: int) -> dict:
        """The causal timeline of one transaction from the flight recorder:
        the begin→(retries)→commit/abort event chain plus the trace spans
        that ran inside it.  See :meth:`repro.obs.Recorder.timeline`."""
        return self.recorder.timeline(txn_id)

    def serve_obs(self, port: int = 0, host: str = "127.0.0.1"):
        """Start the HTTP monitoring server (``/metrics``, ``/healthz``,
        ``/varz``, ``/events``, ``/timeline/<txn_id>``, ``/trace``).

        ``port=0`` binds an ephemeral port — read the bound one from the
        returned :class:`~repro.obs.server.ObsServer`'s ``.port``.
        Idempotent; ``close()`` stops it.
        """
        if self._obs_server is None:
            from repro.obs.server import ObsServer

            self._obs_server = ObsServer(self, host=host, port=port).start()
        return self._obs_server

    def stop_serving_obs(self) -> None:
        """Stop the monitoring server if one is running (idempotent)."""
        server, self._obs_server = self._obs_server, None
        if server is not None:
            server.stop()


class Database(Engine):
    """An in-memory, Arrow-native, multi-versioned OLTP database."""

    def __init__(
        self,
        log_device: BinaryIO | None = None,
        logging_enabled: bool = True,
        cold_threshold_epochs: int = 1,
        compaction_group_size: int = 50,
        cold_format: Literal["gather", "dictionary"] = "gather",
        obs_registry: MetricRegistry | None = None,
        recorder: Recorder | None = None,
        slow_txn_threshold: float | None = None,
    ) -> None:
        super().__init__(obs_registry, recorder, slow_txn_threshold)
        self.block_store = BlockStore(registry=self.obs)
        self.catalog = Catalog(self.block_store)
        self.log_manager = (
            LogManager(
                device=log_device or io.BytesIO(),
                registry=self.obs,
                recorder=self.recorder,
            )
            if logging_enabled
            else None
        )
        self.txn_manager = TransactionManager(
            log_manager=self.log_manager, registry=self.obs, recorder=self.recorder
        )
        self.access_observer = AccessObserver(
            threshold_epochs=cold_threshold_epochs,
            registry=self.obs,
            recorder=self.recorder,
        )
        self.gc = GarbageCollector(
            self.txn_manager,
            access_observer=self.access_observer,
            registry=self.obs,
            recorder=self.recorder,
        )
        self.transformer = BlockTransformer(
            self.txn_manager,
            self.gc,
            self.access_observer,
            compaction_group_size=compaction_group_size,
            cold_format=cold_format,
            registry=self.obs,
            recorder=self.recorder,
        )
        if self.log_manager is not None:
            self.log_manager.on_degrade = self._enter_degraded
        self._register_db_gauges()

    def _register_db_gauges(self) -> None:
        """Callback gauges for live engine state (evaluated on read)."""
        reg = self.obs
        reg.gauge("db.tables", "tables in the catalog", callback=lambda: len(self.catalog))
        reg.gauge(
            "db.blocks_live",
            "blocks currently allocated",
            callback=lambda: self.block_store.live_count,
        )
        reg.gauge(
            "db.blocks_freed",
            "blocks returned to the store",
            callback=lambda: self.block_store.freed_count,
        )
        reg.gauge(
            "db.live_tuples",
            "visible tuples across all tables",
            callback=self._live_tuple_count,
        )
        reg.gauge(
            "index.maintenance_ops",
            "cumulative index maintenance operations",
            callback=lambda: self.catalog.index_manager.total_maintenance_ops(),
        )
        reg.gauge(
            "db.degraded",
            "1 while the engine is in degraded read-only mode",
            callback=lambda: 1.0 if self.degraded else 0.0,
        )
        self._m_background_errors = reg.counter(
            "db.background_errors_total",
            "exceptions survived by the maintenance threads",
        )

    def _live_tuple_count(self) -> int:
        return sum(
            self.catalog.table(name).live_tuple_count()
            for name in self.catalog.table_names()
        )

    # ------------------------------------------------------------------ #
    # DDL                                                                 #
    # ------------------------------------------------------------------ #

    def create_table(
        self,
        name: str,
        columns: list[ColumnSpec],
        block_size: int = BLOCK_SIZE,
        watch_cold: bool = False,
    ) -> TableInfo:
        """Create a table; ``watch_cold=True`` opts it into the hot→cold
        pipeline (the paper only watches tables that generate cold data)."""
        info = self.catalog.create_table(name, columns, block_size=block_size)
        if watch_cold:
            self.access_observer.watch_table(info.table)
        return info

    def create_index(self, table_name: str, index_name: str, key_columns: list[str],
                     kind: Literal["bplus", "hash"] = "bplus"):
        """Create an index on an (empty or populated) table."""
        backfill = self.txn_manager.begin()
        try:
            return self.catalog.create_index(
                table_name, index_name, key_columns, kind, backfill_txn=backfill
            )
        finally:
            self.txn_manager.commit(backfill)

    # ------------------------------------------------------------------ #
    # transactions                                                        #
    # ------------------------------------------------------------------ #

    def begin(self) -> TransactionContext:
        """Start a transaction."""
        return self.txn_manager.begin()

    def commit(self, txn: TransactionContext) -> int:
        """Commit; returns the commit timestamp."""
        return self.txn_manager.commit(txn)

    def abort(self, txn: TransactionContext) -> None:
        """Roll back."""
        self.txn_manager.abort(txn)

    def partitions(
        self, name: str, txn: TransactionContext | None = None, replica: int = 0
    ) -> Iterator[tuple[TransactionContext | TransactionManager, DataTable]]:
        """Each local ``(txn or txn manager, DataTable)`` holding ``name``'s
        rows: on one node the table itself, under ``txn`` when one is
        given.  ``replica`` matters only on a cluster (see
        :meth:`repro.cluster.sharded.ShardedDatabase.partitions`)."""
        yield (self.txn_manager if txn is None else txn), self.catalog.table(name)

    # ------------------------------------------------------------------ #
    # background work                                                     #
    # ------------------------------------------------------------------ #

    def run_maintenance(self, passes: int = 1) -> int:
        """Run GC + transformation passes; returns blocks frozen.

        A no-op in degraded read-only mode: the transformation pipeline
        moves tuples, and degraded mode bars all writers.
        """
        if self.degraded:
            return 0
        frozen = 0
        for _ in range(passes):
            frozen += self.transformer.run_pass()
        return frozen

    def quiesce(self, max_passes: int = 16) -> None:
        """Drain GC and deferred work (tests and orderly shutdown)."""
        self.gc.run_until_quiet(max_passes)
        self.flush_all()

    def flush_all(self) -> None:
        """Flush the WAL queue (a no-op with logging disabled)."""
        if self.log_manager is not None:
            self.log_manager.flush()

    def freeze_table(self, name: str, max_passes: int = 8) -> int:
        """Drive a table's blocks to FROZEN (bulk-load → export workflows)."""
        info = self.catalog.get(name)
        if info.table not in self.access_observer._tables:
            self.access_observer.watch_table(info.table)
        frozen = 0
        for _ in range(max_passes):
            frozen += self.run_maintenance()
            states = info.table.block_states()
            if states[BlockState.HOT] == 0 and states[BlockState.COOLING] == 0:
                break
        return frozen

    def start_background(
        self,
        gc_interval: float = 0.005,
        transform_interval: float = 0.01,
        log_interval: float = 0.005,
    ) -> None:
        """Start the dedicated maintenance threads of Section 6.1.

        The paper's deployment runs one logging thread, one GC thread, and
        one transformation thread alongside the workers; this starts the
        same trio as daemons.  Idempotent; stop with
        :meth:`stop_background`.
        """
        if getattr(self, "_background_stop", None) is not None:
            return
        import threading

        stop = self._background_stop = threading.Event()

        def survive(step) -> None:
            # A transient failure in one pass must not silently kill the
            # maintenance thread for the rest of the process's life.
            try:
                step()
            except Exception:
                self._m_background_errors.inc()

        def gc_loop() -> None:
            while not stop.wait(gc_interval):
                survive(self.gc.run)

        def transform_loop() -> None:
            while not stop.wait(transform_interval):
                if self.degraded:
                    continue
                survive(self.transformer.process_queue)
                survive(self.transformer.process_freeze_pending)

        self._background_threads = [
            threading.Thread(target=gc_loop, daemon=True, name="gc"),
            threading.Thread(target=transform_loop, daemon=True, name="transform"),
        ]
        for thread in self._background_threads:
            thread.start()
        if self.log_manager is not None:
            self.log_manager.start_background(log_interval)

    def stop_background(self) -> None:
        """Stop the maintenance threads and drain outstanding work.

        Idempotent; safe even if a thread already died.  A failing final
        log flush is swallowed here (the engine may legitimately be
        degraded) — use :meth:`close` to have it surfaced.
        """
        stop = getattr(self, "_background_stop", None)
        if stop is None:
            return
        stop.set()
        for thread in self._background_threads:
            thread.join()
        self._background_stop = None
        self._background_threads = []
        if self.log_manager is not None:
            self.log_manager.stop_background()
        try:
            self.quiesce()
        except Exception:
            self._m_background_errors.inc()

    def close(self) -> None:
        """Orderly shutdown: stop background work and drain the log.

        Unlike :meth:`stop_background`, a final failed flush is *raised* —
        a caller closing the database must learn that the tail of the log
        never became durable (the background thread's own last-drain error
        is surfaced the same way).
        """
        self.stop_serving_obs()
        self.stop_background()
        if self.log_manager is not None:
            self.log_manager.flush()
            error = self.log_manager.last_flush_error
            if error is not None:
                self.log_manager.last_flush_error = None
                raise error

    # ------------------------------------------------------------------ #
    # failure handling                                                    #
    # ------------------------------------------------------------------ #

    @property
    def degraded(self) -> bool:
        """Whether the engine is in degraded read-only mode."""
        return self.txn_manager.degraded

    def _enter_degraded(self, reason: str) -> None:
        """Hooked to the log manager: persistent device failure bars writers."""
        self.txn_manager.enter_degraded(reason)

    def health(self) -> dict:
        """Liveness/durability status for operators and the torture harness.

        ``status`` is ``"ok"`` or ``"degraded"``; the ``wal`` section is
        ``None`` when logging is disabled.  ``backlog`` is the flush-queue
        depth (transactions committed but not yet durable) and
        ``last_fsync_age_seconds`` the time since the last successful
        fsync (``None`` until the first one) — the two numbers that say
        how far behind the log is, also scrapeable as the ``wal.pending``
        and ``wal.last_fsync_age_seconds`` gauges.
        """
        wal = None
        if self.log_manager is not None:
            lm = self.log_manager
            wal = {
                "healthy": not lm.degraded,
                "flush_failures": lm.flush_failures,
                "consecutive_flush_failures": lm.consecutive_flush_failures,
                "pending": lm.pending_count,
                "backlog": lm.pending_count,
                "last_fsync_age_seconds": lm.last_fsync_age_seconds,
                "degraded_reason": lm.degraded_reason,
            }
        return {
            "status": "degraded" if self.degraded else "ok",
            "degraded_reason": self.txn_manager.degraded_reason,
            "wal": wal,
            "slo": self.slo.health_summary(),
        }

    # ------------------------------------------------------------------ #
    # durability                                                          #
    # ------------------------------------------------------------------ #

    def log_contents(self) -> bytes:
        """The serialized write-ahead log (in-memory devices only)."""
        if self.log_manager is None:
            return b""
        return self.log_manager.contents()

    def recover_from(self, raw: bytes, tolerate_torn_tail: bool = True) -> int:
        """Replay a log into this (fresh) database; returns txns replayed.

        By default a torn final transaction (crash mid-flush) is dropped —
        it never committed durably.
        """
        recovery = RecoveryManager(self.txn_manager, self.catalog.data_tables())
        return recovery.replay(raw, tolerate_torn_tail=tolerate_torn_tail)

    def checkpoint(self, new_log_device: BinaryIO | None = None) -> bytes:
        """Write a quiescent checkpoint and truncate the log.

        The caller must ensure no concurrent writers (Section 3.4's
        checkpoints; fuzzy checkpointing is out of scope).  After this call
        the log contains only post-checkpoint transactions, so recovery is
        ``recover_with_checkpoint(checkpoint, log_contents())``.
        ``new_log_device`` replaces the log device after truncation (the
        fault-injection harness passes a fresh :class:`FaultyDevice` so the
        post-checkpoint log stays under fault control); a plain in-memory
        buffer by default.
        """
        from repro.wal.checkpoint import write_checkpoint

        self.flush_all()
        snapshot = write_checkpoint(self)
        if self.log_manager is not None:
            self.log_manager.truncate(new_log_device or io.BytesIO())
        return snapshot

    def recover_with_checkpoint(self, checkpoint: bytes, log_suffix: bytes) -> int:
        """Load a checkpoint then replay the log suffix into this (fresh)
        database; returns transactions replayed from the log."""
        from repro.wal.checkpoint import recover

        return recover(self, checkpoint, log_suffix)

    # ------------------------------------------------------------------ #
    # observability                                                       #
    # ------------------------------------------------------------------ #

    def verify_integrity(self):
        """Physical integrity pass over every table (see
        :mod:`repro.storage.integrity`); returns the report."""
        from repro.storage.integrity import check_database

        return check_database(self)

    def metrics(self) -> dict:
        """One snapshot of every component's counters.

        Stable keys intended for dashboards and tests; values are plain
        ints/floats.  Since the ``repro.obs`` subsystem landed this is a
        thin view over the engine's metric registry (``self.obs``) — the
        machine-readable expositions (``obs.render_prometheus(db.obs)``,
        ``obs.render_json(db.obs)``) see the very same instruments.  Note
        that ``obs.configure(enabled=False)`` freezes the counter-backed
        values here along with every other instrument.
        """
        states = {state.name: 0 for state in BlockState}
        for name in self.catalog.table_names():
            for state, count in self.catalog.table(name).block_states().items():
                states[state.name] += count
        reg = self.obs
        counter = lambda name: int(reg.counter(name).value)
        gauge = lambda name: reg.gauge(name).value
        return {
            "tables": int(gauge("db.tables")),
            "blocks_live": int(gauge("db.blocks_live")),
            "blocks_freed": int(gauge("db.blocks_freed")),
            "block_states": states,
            "live_tuples": int(gauge("db.live_tuples")),
            "txns_active": int(gauge("txn.active")),
            "txns_pending_gc": int(gauge("txn.pending_gc")),
            "gc_passes": counter("gc.pass_total"),
            "gc_records_unlinked": counter("gc.records_unlinked_total"),
            "gc_deferred_pending": int(gauge("gc.deferred_pending")),
            "transform_groups_compacted": counter("transform.groups_compacted_total"),
            "transform_tuples_moved": counter("transform.tuples_moved_total"),
            "transform_blocks_frozen": counter("transform.blocks_frozen_total"),
            "transform_freezes_preempted": counter("transform.freezes_preempted_total"),
            "transform_queue_depth": int(gauge("transform.queue_depth")),
            "index_maintenance_ops": int(gauge("index.maintenance_ops")),
            "wal_bytes_written": counter("wal.written_bytes"),
            "wal_flushes": counter("wal.flush_total"),
        }
