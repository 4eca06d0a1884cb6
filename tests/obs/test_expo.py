"""Exposition: Prometheus text format validity and JSON snapshot stability."""

import json
import re

import pytest

from repro import ColumnSpec, Database, INT64, UTF8, obs
from repro.export import TableExporter
from repro.query import TableScanner, aggregate

# One Prometheus text-format line: name{labels}? value
_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})?"
    r" (NaN|[+-]?Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$"
)
_COMMENT_LINE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")


@pytest.fixture(autouse=True)
def _obs_enabled():
    was = obs.is_enabled()
    obs.configure(enabled=True)
    yield
    obs.configure(enabled=was)


@pytest.fixture
def worked_db():
    """A database that has exercised txn, wal, gc, transform, and export."""
    db = Database(cold_threshold_epochs=1)
    info = db.create_table(
        "t",
        [ColumnSpec("id", INT64), ColumnSpec("name", UTF8)],
        block_size=1 << 14,
        watch_cold=True,
    )
    with db.transaction() as txn:
        for i in range(info.table.layout.num_slots * 2):
            info.table.insert(txn, {0: i, 1: f"value-{i}-padded-out-of-line"})
    doomed = db.begin()
    info.table.insert(doomed, {0: 999, 1: "rolled back"})
    db.abort(doomed)
    db.freeze_table("t")
    TableExporter(db.txn_manager, info.table, registry=db.obs).export("arrow-wire")
    scanner = TableScanner(
        db.txn_manager, info.table, [0], range_filters={0: (0, 10)}, registry=db.obs
    )
    assert aggregate(scanner, 0).count == 11
    assert scanner.blocks_pruned >= 1
    return db


def test_prometheus_lines_all_parse(worked_db):
    text = obs.render_prometheus(worked_db.obs)
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("#"):
            assert _COMMENT_LINE.match(line), f"bad comment line: {line!r}"
        else:
            assert _METRIC_LINE.match(line), f"bad metric line: {line!r}"


def test_prometheus_covers_every_component(worked_db):
    """≥1 counter, gauge, and histogram from txn, wal, gc, transform, export."""
    text = obs.render_prometheus(worked_db.obs)
    types = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
    for component, counter, gauge, histogram in [
        ("txn", "txn_commit_total", "txn_active", "txn_commit_seconds"),
        ("wal", "wal_written_bytes", "wal_pending", "wal_flush_seconds"),
        ("gc", "gc_pass_total", "gc_deferred_pending", "gc_pass_seconds"),
        (
            "transform",
            "transform_blocks_frozen_total",
            "transform_queue_depth",
            "transform_compaction_seconds",
        ),
        (
            "export",
            "export_exports_total",
            "export_last_throughput_mb_per_sec",
            "export_serialization_seconds",
        ),
    ]:
        assert types.get(counter) == "counter", (component, counter, types.get(counter))
        assert types.get(gauge) == "gauge", (component, gauge, types.get(gauge))
        assert types.get(histogram) == "histogram", (component, histogram)


def test_prometheus_histogram_family_shape(worked_db):
    text = obs.render_prometheus(worked_db.obs)
    lines = text.splitlines()
    buckets = [l for l in lines if l.startswith("txn_commit_seconds_bucket")]
    assert buckets, "histogram bucket series missing"
    assert buckets[-1].startswith('txn_commit_seconds_bucket{le="+Inf"}')
    # Cumulative counts never decrease.
    counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
    assert counts == sorted(counts)
    assert any(l.startswith("txn_commit_seconds_sum ") for l in lines)
    count_line = next(l for l in lines if l.startswith("txn_commit_seconds_count "))
    assert int(count_line.split(" ")[1]) == counts[-1]


def test_json_snapshot_parses_and_is_stable(worked_db):
    first = obs.render_json(worked_db.obs)
    payload = json.loads(first)
    assert set(payload) == {"counters", "gauges", "histograms"}
    assert payload["counters"]["txn.commit_total"] >= 1
    assert payload["counters"]["gc.pass_total"] >= 1
    hist = payload["histograms"]["txn.commit_seconds"]
    assert hist["count"] == sum(count for _, count in hist["buckets"])
    assert hist["buckets"][-1][0] == "+Inf"
    # Stable: a quiescent engine renders identical JSON, modulo gauges
    # that measure elapsed time and therefore advance between renders.
    def stable(raw):
        snap = json.loads(raw)
        snap["gauges"].pop("wal.last_fsync_age_seconds", None)
        return snap

    assert stable(obs.render_json(worked_db.obs)) == stable(first)


def test_snapshot_counts_match_engine_activity(worked_db):
    snap = obs.snapshot(worked_db.obs)
    m = worked_db.metrics()
    assert snap["counters"]["gc.pass_total"] == m["gc_passes"]
    assert snap["counters"]["wal.written_bytes"] == m["wal_bytes_written"]
    assert snap["counters"]["txn.abort_total"] >= 1
    assert snap["counters"]["transform.blocks_frozen_total"] == m["transform_blocks_frozen"] > 0
    assert snap["counters"]["query.blocks_pruned_total"] >= 0


# ---------------------------------------------------------------------- #
# line-level Prometheus conformance (text format v0.0.4)                  #
# ---------------------------------------------------------------------- #


def _family_of(line):
    """The family a sample or comment line belongs to."""
    if line.startswith("# "):
        return line.split(" ")[2]
    name = line.split("{")[0].split(" ")[0]
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def test_prometheus_help_and_type_exactly_once_per_family(worked_db):
    text = obs.render_prometheus(worked_db.obs)
    help_seen, type_seen = {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            family = line.split(" ")[2]
            help_seen[family] = help_seen.get(family, 0) + 1
        elif line.startswith("# TYPE "):
            family = line.split(" ")[2]
            type_seen[family] = type_seen.get(family, 0) + 1
    assert help_seen and type_seen
    dup_help = {f: n for f, n in help_seen.items() if n > 1}
    dup_type = {f: n for f, n in type_seen.items() if n > 1}
    assert not dup_help, f"HELP emitted more than once: {dup_help}"
    assert not dup_type, f"TYPE emitted more than once: {dup_type}"


def test_prometheus_help_precedes_type_and_samples_are_contiguous(worked_db):
    text = obs.render_prometheus(worked_db.obs)
    lines = text.splitlines()
    closed = set()  # families whose block has ended
    current = None
    for line in lines:
        family = _family_of(line)
        if line.startswith("# HELP "):
            assert family not in closed, f"family {family} reopened"
            if current is not None and current != family:
                closed.add(current)
            current = family
        elif line.startswith("# TYPE "):
            assert family == current, f"TYPE {family} not directly after its HELP"
        else:
            assert family == current, (
                f"sample {line!r} outside its family block ({current})"
            )


def test_prometheus_histogram_single_terminal_inf_bucket(worked_db):
    text = obs.render_prometheus(worked_db.obs)
    types = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
    histograms = [name for name, kind in types.items() if kind == "histogram"]
    assert histograms
    lines = text.splitlines()
    for family in histograms:
        buckets = [l for l in lines if l.startswith(f"{family}_bucket{{")]
        inf_buckets = [l for l in buckets if 'le="+Inf"' in l]
        assert len(inf_buckets) == 1, f"{family}: {len(inf_buckets)} +Inf buckets"
        assert buckets[-1] == inf_buckets[0], f"{family}: +Inf bucket not terminal"
        count = next(l for l in lines if l.startswith(f"{family}_count "))
        assert inf_buckets[0].rsplit(" ", 1)[1] == count.rsplit(" ", 1)[1], (
            f"{family}: +Inf bucket != _count"
        )


def test_prometheus_explicit_inf_bound_not_doubled():
    """A histogram declared with a trailing inf bound must still expose
    exactly one +Inf bucket (the implicit overflow bucket)."""
    from repro.obs.registry import MetricRegistry

    reg = MetricRegistry()
    hist = reg.histogram(
        "test.explicit_inf_seconds",
        "declared with a trailing +Inf bound",
        buckets=(0.1, 1.0, float("inf")),
    )
    hist.observe(0.05)
    hist.observe(50.0)
    text = obs.render_prometheus(reg)
    inf_lines = [l for l in text.splitlines() if 'le="+Inf"' in l]
    assert len(inf_lines) == 1
    assert inf_lines[0].endswith(" 2")


def test_prometheus_help_escaping():
    from repro.obs.registry import MetricRegistry

    reg = MetricRegistry()
    reg.counter("test.escapes_total", "line one\nline two with back\\slash")
    text = obs.render_prometheus(reg)
    assert (
        "# HELP test_escapes_total line one\\nline two with back\\\\slash"
        in text.splitlines()
    )


def test_prometheus_family_collision_skipped():
    """Two dotted names sanitizing to one family emit one HELP/TYPE block."""
    from repro.obs.registry import MetricRegistry

    reg = MetricRegistry()
    reg.counter("test.collide_total", "dotted").inc(3)
    reg.counter("test_collide_total", "underscored").inc(5)
    text = obs.render_prometheus(reg)
    lines = text.splitlines()
    assert lines.count("# TYPE test_collide_total counter") == 1
    samples = [l for l in lines if l.startswith("test_collide_total ")]
    assert len(samples) == 1


# ---------------------------------------------------------------------- #
# labeled families (per-shard series)                                    #
# ---------------------------------------------------------------------- #


def _labeled_registry():
    """An unlabeled series plus labeled series in one family, the shape
    per-shard telemetry produces."""
    from repro.obs.registry import MetricRegistry

    reg = MetricRegistry()
    reg.counter("test.labeled_total", "fragments").inc(2)
    for sid in ("0", "1"):
        reg.counter(
            "test.labeled_total",
            "fragments",
            labels={"shard": sid, "table": "stock"},
        ).inc(3 + int(sid))
    hist = reg.histogram(
        "test.labeled_seconds",
        "latency",
        buckets=(0.1, 1.0),
        labels={"shard": "0", "table": "stock"},
    )
    hist.observe(0.05)
    hist.observe(5.0)
    return reg


def _assert_families_well_formed(text):
    """The block-structure checks the unlabeled tests make, reusable for
    labeled output: every line parses, HELP/TYPE once per family, and all
    samples of a family are contiguous under its comment block."""
    seen_type = {}
    closed = set()
    current = None
    for line in text.splitlines():
        if line.startswith("#"):
            assert _COMMENT_LINE.match(line), f"bad comment line: {line!r}"
        else:
            assert _METRIC_LINE.match(line), f"bad metric line: {line!r}"
        family = _family_of(line)
        if line.startswith("# HELP "):
            assert family not in closed, f"family {family} reopened"
            if current is not None and current != family:
                closed.add(current)
            current = family
        elif line.startswith("# TYPE "):
            seen_type[family] = seen_type.get(family, 0) + 1
            assert seen_type[family] == 1, f"TYPE {family} repeated"
        else:
            assert family == current, f"sample {line!r} strays from {current}"


def test_labeled_series_share_one_family_block():
    text = obs.render_prometheus(_labeled_registry())
    _assert_families_well_formed(text)
    lines = text.splitlines()
    samples = [l for l in lines if l.startswith("test_labeled_total")]
    assert samples == [
        "test_labeled_total 2",
        'test_labeled_total{shard="0",table="stock"} 3',
        'test_labeled_total{shard="1",table="stock"} 4',
    ]
    assert lines.count("# TYPE test_labeled_total counter") == 1


def test_labeled_histogram_bucket_lines_compose_le_last():
    text = obs.render_prometheus(_labeled_registry())
    lines = text.splitlines()
    buckets = [l for l in lines if l.startswith("test_labeled_seconds_bucket")]
    assert [l.rsplit(" ", 1)[0] for l in buckets] == [
        'test_labeled_seconds_bucket{shard="0",table="stock",le="0.1"}',
        'test_labeled_seconds_bucket{shard="0",table="stock",le="1"}',
        'test_labeled_seconds_bucket{shard="0",table="stock",le="+Inf"}',
    ]
    counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
    assert counts == sorted(counts)
    count_line = next(
        l for l in lines if l.startswith("test_labeled_seconds_count")
    )
    assert count_line == (
        'test_labeled_seconds_count{shard="0",table="stock"} 2'
    )
    assert counts[-1] == 2  # +Inf bucket equals _count
    assert (
        'test_labeled_seconds_sum{shard="0",table="stock"}'
        in next(l for l in lines if l.startswith("test_labeled_seconds_sum"))
    )


def test_label_values_escaped_per_spec():
    from repro.obs.registry import MetricRegistry

    reg = MetricRegistry()
    reg.counter(
        "test.escaped_total",
        "odd label values",
        labels={"path": 'a\\b"c\nd'},
    ).inc(1)
    text = obs.render_prometheus(reg)
    assert (
        'test_escaped_total{path="a\\\\b\\"c\\nd"} 1' in text.splitlines()
    )


def test_shard_labeled_gauges_render_as_one_family():
    """Cluster shard gauges (``{shard="N"}``) obey the same family rules."""
    from repro.cluster import ShardedDatabase

    cluster = ShardedDatabase(n_shards=2, logging_enabled=False)
    try:
        text = obs.render_prometheus(cluster.obs)
    finally:
        cluster.close()
    _assert_families_well_formed(text)
    healthy = [
        l for l in text.splitlines() if l.startswith("cluster_shard_healthy")
    ]
    assert healthy == [
        'cluster_shard_healthy{shard="0"} 1',
        'cluster_shard_healthy{shard="1"} 1',
    ]


def test_wal_counter_matches_log_manager(worked_db):
    assert (
        worked_db.obs.counter("wal.written_bytes").value
        == worked_db.log_manager.bytes_written
    )
    assert (
        worked_db.obs.counter("wal.flush_total").value
        == worked_db.log_manager.flush_count
    )


# --------------------------------------------------------------------- #
# OpenMetrics 1.0 exposition                                            #
# --------------------------------------------------------------------- #

# One OpenMetrics metric line: name{labels}? value [# {exemplar} value ts]
_OM_VALUE = r"(NaN|[+-]?Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)"
_OM_LABELS = r"(\{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})?"
_OM_EXEMPLAR = (
    r"( # \{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\} "
    + _OM_VALUE + r"( [0-9]+(\.[0-9]+)?)?)?"
)
_OM_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*" + _OM_LABELS + " " + _OM_VALUE
    + _OM_EXEMPLAR + "$"
)
_OM_COMMENT_LINE = re.compile(
    r"^# (HELP|TYPE|UNIT) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$"
)


def _assert_openmetrics_conformant(text):
    """Line-level OpenMetrics 1.0 checks: grammar, counter sample naming,
    the # EOF terminator, and exemplar placement (buckets only)."""
    lines = text.splitlines()
    assert lines[-1] == "# EOF"
    types = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            assert _OM_COMMENT_LINE.match(line), f"bad comment: {line!r}"
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                # Spec: counter family names must not end in _total.
                assert not (kind == "counter" and name.endswith("_total")), (
                    f"counter family keeps _total: {line!r}"
                )
                types[name] = kind
        else:
            assert _OM_METRIC_LINE.match(line), f"bad metric line: {line!r}"
            name = re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*", line).group(0)
            if " # {" in line:
                assert name.endswith("_bucket"), (
                    f"exemplar outside a bucket: {line!r}"
                )
    # Every counter family's samples carry the _total suffix.
    for name, kind in types.items():
        if kind != "counter":
            continue
        for line in lines:
            if line.startswith(name) and not line.startswith("#"):
                sample = re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*", line).group(0)
                if sample in (name, name + "_total"):
                    assert sample == name + "_total", (
                        f"counter sample missing _total: {line!r}"
                    )
    return types


def test_openmetrics_lines_all_parse(worked_db):
    text = obs.render_openmetrics(worked_db.obs)
    types = _assert_openmetrics_conformant(text)
    # The same components the Prometheus exposition covers are present.
    assert types.get("txn_commit") == "counter"
    assert types.get("wal_flush_seconds") == "histogram"
    assert types.get("txn_active") == "gauge"


def test_openmetrics_exemplars_attach_to_buckets(worked_db):
    registry = worked_db.obs
    obs.configure(exemplars=True)
    try:
        hist = registry.histogram("test.exemplar_seconds", "exemplar demo")
        hist.observe(0.004, exemplar="deadbeef")
        text = obs.render_openmetrics(registry)
        _assert_openmetrics_conformant(text)
        exemplar_lines = [
            line for line in text.splitlines()
            if line.startswith("test_exemplar_seconds_bucket")
            and 'trace_id="deadbeef"' in line
        ]
        assert exemplar_lines, "no bucket carried the exemplar"
        # Exactly the bucket the observation fell into (0.004 → le=0.005),
        # not every bucket above it.
        assert len(exemplar_lines) == 1
        assert 'le="0.005"' in exemplar_lines[0]
        assert " 0.004 " in exemplar_lines[0]
    finally:
        obs.configure(exemplars=False)
        registry.unregister("test.exemplar_seconds")


def test_exemplars_off_by_default(worked_db):
    registry = worked_db.obs
    hist = registry.histogram("test.no_exemplar_seconds", "no exemplars")
    try:
        hist.observe(0.004, exemplar="cafe")
        assert hist.exemplars() == {}
        text = obs.render_openmetrics(registry)
        assert "cafe" not in text
    finally:
        registry.unregister("test.no_exemplar_seconds")
