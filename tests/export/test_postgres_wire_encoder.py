"""The columnar DataRow encoder writes exactly the bytes of the row-at-a-time
encoder it replaced, kept here as the oracle."""

import io
import math
import random
import struct

import pytest

from repro.errors import SerializationError
from repro.export import postgres_wire


def oracle_row(values):
    """The row-at-a-time ``encode_row`` the columnar encoder replaced."""
    body = io.BytesIO()
    body.write(struct.pack("<H", len(values)))
    for value in values:
        if value is None:
            body.write(struct.pack("<i", -1))
            continue
        if isinstance(value, bytes):
            raw = value
        elif isinstance(value, float):
            raw = repr(value).encode("ascii")
        elif isinstance(value, bool):
            raw = b"t" if value else b"f"
        else:
            raw = str(value).encode("utf-8")
        body.write(struct.pack("<i", len(raw)))
        body.write(raw)
    payload = body.getvalue()
    return struct.pack("<cI", b"D", len(payload)) + payload


def oracle_rows(rows):
    return b"".join(oracle_row(row) for row in rows), len(rows)


SPECIAL = [
    -1, -(2**63), 2**64, 0, 7, math.nan, math.inf, -math.inf, -0.0, 0.0,
    1e-300, 1.5, "", "héllo wörld ✓", "日本語", b"", b"\x00\xff", True, False, None,
]


def seeded_value(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return rng.randrange(-(10**12), 10**12)
    if kind == 1:
        return rng.uniform(-1e6, 1e6)
    if kind == 2:
        return "".join(rng.choice("aé✓z 日") for _ in range(rng.randrange(12)))
    if kind == 3:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(6)))
    if kind == 4:
        return rng.random() < 0.5
    if kind == 5:
        return rng.choice(SPECIAL)
    return None


def seeded_rows(seed, width, count):
    rng = random.Random(seed)
    return [tuple(seeded_value(rng) for _ in range(width)) for _ in range(count)]


def typed_columns(seed, count):
    """One exact type per column (plus NULLs): the encoder's typed paths."""
    rng = random.Random(seed)

    def maybe(value):
        return None if rng.random() < 0.2 else value

    return [
        [maybe(rng.randrange(-(10**9), 10**9)) for _ in range(count)],
        [maybe(rng.choice([rng.random() * 100, math.nan, -0.0, 1e-300, math.inf]))
         for _ in range(count)],
        [maybe(rng.choice(["", "ascii", "naïve", "✓✓"])) for _ in range(count)],
        [maybe(rng.random() < 0.5) for _ in range(count)],
        [maybe(bytes([rng.randrange(256)])) for _ in range(count)],
    ]


def text_of(value):
    """What ``decode_rows`` hands back for a value."""
    if value is None:
        return None
    return oracle_row([value])[11:].decode("utf-8", "replace")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("width", [0, 1, 3])
@pytest.mark.parametrize("count", [0, 1, 700])
def test_encode_rows_matches_the_row_encoder(seed, width, count):
    rows = seeded_rows(seed * 1000 + width, width, count)
    raw, messages = postgres_wire.encode_rows(rows)
    assert (raw, messages) == oracle_rows(rows)
    assert postgres_wire.decode_rows(raw) == [
        tuple(text_of(v) for v in row) for row in rows
    ]


@pytest.mark.parametrize("seed", [0, 1])
def test_encode_columns_matches_the_row_encoder(seed):
    columns = typed_columns(seed, 600)
    rows = list(zip(*columns))
    assert postgres_wire.encode_columns(columns) == oracle_rows(rows)
    for column in columns:  # one column at a time, too
        assert postgres_wire.encode_columns([column]) == oracle_rows(
            [(v,) for v in column]
        )


def test_special_values_round_trip():
    rows = [tuple(SPECIAL), tuple(reversed(SPECIAL))]
    raw, messages = postgres_wire.encode_rows(rows)
    assert (raw, messages) == oracle_rows(rows)
    decoded = postgres_wire.decode_rows(raw)
    assert decoded == [tuple(text_of(v) for v in row) for row in rows]
    texts = dict(zip(map(repr, SPECIAL), decoded[0]))
    assert texts["nan"] == "nan" and texts["-inf"] == "-inf"
    assert texts["-0.0"] == "-0.0" and texts["1e-300"] == "1e-300"
    assert texts["-1"] == "-1" and texts[repr(2**64)] == str(2**64)
    assert texts["True"] == "t" and texts["False"] == "f"
    assert texts["'日本語'"] == "日本語" and texts["None"] is None


def test_rows_of_no_fields_need_the_row_count():
    assert postgres_wire.encode_columns([], 3) == oracle_rows([(), (), ()])
    assert postgres_wire.encode_columns([]) == (b"", 0)


def test_ragged_input_is_rejected():
    with pytest.raises(SerializationError):
        postgres_wire.encode_columns([[1, 2], [3]])
    with pytest.raises(SerializationError):
        postgres_wire.encode_columns([[1, 2]], 3)
    with pytest.raises(SerializationError):
        postgres_wire.encode_rows([(1, 2), (3,)])
