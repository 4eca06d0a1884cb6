"""Figure 12: transformation algorithm throughput.

One transformation pass over a group of blocks whose emptiness varies from
0% to 80%, for four algorithms:

- **Hybrid-Gather** — the paper's two-phase algorithm (compact, then gather),
- **Snapshot** — copy every live tuple into fresh Arrow buffers,
- **In-Place (Transactional)** — do all the work as ordinary transactions,
- **Hybrid-Compress** — two-phase with dictionary compression.

Panels: (a) throughput on the 50%-varlen table, (b) phase breakdown,
(c) all-fixed columns, (d) all-varlen columns.

Paper shape: Hybrid-Gather wins when blocks are nearly full (compaction
degenerates to a bitmap scan); throughput dips as emptiness grows (tuple
movement is random access) and recovers past ~50% empty (fewer tuples
left); Snapshot is flat-ish and overtakes Hybrid around 20% empty;
In-Place pays version maintenance; Hybrid-Compress is an order of
magnitude slower because of the dictionary build.
"""

from __future__ import annotations

import time

import pytest

from repro import Database, obs
from repro.bench.harness import RegistryDelta, format_deltas
from repro.bench.reporting import format_series
from repro.obs import trace
from repro.storage.constants import BlockState
from repro.transform.compaction import execute_compaction, plan_compaction
from repro.transform.dictionary import dictionary_compress_block
from repro.transform.gather import gather_block
from repro.transform.transformer import inplace_transform, snapshot_transform
from repro.workloads.synthetic import SyntheticConfig, build_synthetic_table

from conftest import publish, scaled

EMPTY_AXIS = [0, 1, 5, 10, 20, 40, 60, 80]
N_BLOCKS = scaled(4, minimum=2)


def build(percent_empty: float, column_mix: str = "mixed"):
    db = Database(logging_enabled=False)
    info = build_synthetic_table(
        db,
        "s",
        SyntheticConfig(
            n_blocks=N_BLOCKS, percent_empty=percent_empty, column_mix=column_mix
        ),
    )
    return db, info


def hybrid_pass(db, info, compress: bool = False) -> tuple[float, float, float]:
    """One two-phase pass; returns (total, compaction, gather) seconds.

    Phase timings are sourced from ``repro.obs`` trace spans — the same
    instrumentation the engine's transformer emits — rather than one-off
    ``perf_counter`` bookkeeping (the Fig. 12b panel is a span summary).
    """
    obs.configure(enabled=True)
    tracer = trace.Tracer(capacity=16)
    gather_phase = "transform.dictionary" if compress else "transform.gather"
    blocks = list(info.table.blocks)
    with tracer.span("transform.pass"):
        with tracer.span("transform.compaction"):
            plan = plan_compaction(blocks)
            txn = execute_compaction(db.txn_manager, info.table, plan)
            assert txn is not None
            keep = plan.filled_blocks + (
                [plan.partial_block] if plan.partial_block is not None else []
            )
            for block in keep:
                block.compare_and_swap_state(BlockState.HOT, BlockState.COOLING)
            db.txn_manager.commit(txn)
            db.gc.run_until_quiet()
        with tracer.span(gather_phase):
            for block in keep:
                block.set_state(BlockState.FREEZING)
                if compress:
                    dictionary_compress_block(block)
                else:
                    gather_block(block)
                block.set_state(BlockState.FROZEN)
    summary = tracer.summarize()
    return (
        summary["transform.pass"].total_seconds,
        summary["transform.compaction"].total_seconds,
        summary[gather_phase].total_seconds,
    )


def snapshot_pass(db, info) -> float:
    began = time.perf_counter()
    for block in list(info.table.blocks):
        snapshot_transform(db.txn_manager, info.table, block)
    return time.perf_counter() - began


def inplace_pass(db, info) -> float:
    began = time.perf_counter()
    assert inplace_transform(db.txn_manager, info.table, list(info.table.blocks))
    return time.perf_counter() - began


def blocks_per_sec(seconds: float) -> float:
    return N_BLOCKS / seconds if seconds else float("inf")


def test_hybrid_gather_nearly_full(benchmark):
    db, info = build(percent_empty=1)
    benchmark.pedantic(lambda: hybrid_pass(db, info), rounds=1, iterations=1)


def test_snapshot_nearly_full(benchmark):
    db, info = build(percent_empty=1)
    benchmark.pedantic(lambda: snapshot_pass(db, info), rounds=1, iterations=1)


def test_hybrid_compress_nearly_full(benchmark):
    db, info = build(percent_empty=1)
    benchmark.pedantic(
        lambda: hybrid_pass(db, info, compress=True), rounds=1, iterations=1
    )


def _sweep(column_mix: str):
    throughput = {"Hybrid-Gather": [], "Snapshot": [], "In-Place": [], "Hybrid-Compress": []}
    breakdown = {"Compaction": [], "Varlen-Gather": [], "Dictionary": []}
    for empty in EMPTY_AXIS:
        db, info = build(empty, column_mix)
        total, compaction, gather = hybrid_pass(db, info)
        throughput["Hybrid-Gather"].append(blocks_per_sec(total))
        breakdown["Compaction"].append(blocks_per_sec(compaction))
        breakdown["Varlen-Gather"].append(blocks_per_sec(gather))
        db, info = build(empty, column_mix)
        throughput["Snapshot"].append(blocks_per_sec(snapshot_pass(db, info)))
        db, info = build(empty, column_mix)
        throughput["In-Place"].append(blocks_per_sec(inplace_pass(db, info)))
        db, info = build(empty, column_mix)
        total_c, _, gather_c = hybrid_pass(db, info, compress=True)
        throughput["Hybrid-Compress"].append(blocks_per_sec(total_c))
        breakdown["Dictionary"].append(blocks_per_sec(gather_c))
    return throughput, breakdown


def test_report_figure_12(benchmark):
    def run():
        return _sweep("mixed")

    throughput, breakdown = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "fig12a_transform_throughput",
        format_series(
            "Figure 12a — transformation throughput, 50% varlen (blocks/s)",
            "%empty",
            EMPTY_AXIS,
            {k: [round(v, 1) for v in vs] for k, vs in throughput.items()},
        ),
    )
    publish(
        "fig12b_phase_breakdown",
        format_series(
            "Figure 12b — phase throughput breakdown, from obs spans (blocks/s)",
            "%empty",
            EMPTY_AXIS,
            {k: [round(v, 1) for v in vs] for k, vs in breakdown.items()},
        ),
    )
    # One representative pass with its engine-side metric delta, via the
    # bench harness + the registry every component publishes into.
    db, info = build(percent_empty=5)
    with RegistryDelta(db.obs) as capture:
        hybrid_pass(db, info)
    publish(
        "fig12_metric_deltas",
        format_deltas(capture.delta, "Figure 12 — one hybrid pass, metric deltas"),
    )
    # Paper shapes on the 50%-varlen table.  (The paper's order-of-magnitude
    # gather-vs-dictionary gap compresses here: both passes decode entries
    # with the same numpy kernel and pay the same per-block costs, and the
    # dictionary adds one np.unique over the decoded values — see
    # EXPERIMENTS.md.)
    head = slice(0, 3)

    def mean(values):
        return sum(values) / len(values)

    assert mean(throughput["Hybrid-Gather"][head]) > mean(throughput["Snapshot"][head])
    assert mean(throughput["Hybrid-Gather"][head]) > mean(throughput["In-Place"][head])
    # Dictionary compression must not *beat* the plain gather (a 15% band
    # absorbs single-shot noise; the C++ 10x factor shrinks to ~2x here).
    assert mean(throughput["Hybrid-Compress"][head]) < mean(
        throughput["Hybrid-Gather"][head]
    ) * 1.15
    # Compaction is near-free when blocks are full, then becomes the cost.
    assert breakdown["Compaction"][0] > breakdown["Varlen-Gather"][0]
    assert breakdown["Compaction"][4] < breakdown["Compaction"][0]


def test_report_figure_12c_fixed(benchmark):
    throughput, _ = benchmark.pedantic(lambda: _sweep("fixed"), rounds=1, iterations=1)
    publish(
        "fig12c_fixed_columns",
        format_series(
            "Figure 12c — transformation throughput, all fixed-length (blocks/s)",
            "%empty",
            EMPTY_AXIS,
            {k: [round(v, 1) for v in vs] for k, vs in throughput.items()},
        ),
    )
    assert throughput["Hybrid-Gather"][0] > throughput["Snapshot"][0]


def test_report_figure_12d_varlen(benchmark):
    throughput, _ = benchmark.pedantic(lambda: _sweep("varlen"), rounds=1, iterations=1)
    publish(
        "fig12d_varlen_columns",
        format_series(
            "Figure 12d — transformation throughput, all variable-length (blocks/s)",
            "%empty",
            EMPTY_AXIS,
            {k: [round(v, 1) for v in vs] for k, vs in throughput.items()},
        ),
    )
    assert throughput["Hybrid-Gather"][0] > throughput["In-Place"][0]
