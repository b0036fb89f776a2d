"""The record writer: byte-identical to json.dumps(indent=2), row tables,
and the committed golden records.

The golden files under tests/golden/ hold the records the CLI writes for
their *.config.json inputs, first written before records were written by
record_json. A change to a byte is either a change to the canonical record
format or a change to a computed value, such as a last digit that moves when
an expression is rewritten. Only the latter regenerates a golden, with

    PYTHONPATH=src python3 -m gradkick.cli <command> \
        --config tests/golden/<name>.config.json --out tests/golden/<name>.json

and the change that does so names each field that moved and why.
"""

import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkick.cli import build_parser, main
from gradkick.config import (ExperimentConfig, FunctionSpec, ResultRecord,
                             RowTable, record_json)
from gradkick.floattext import BLOCK_VALUES
from gradkick.params import AlgorithmParams

GOLDEN = pathlib.Path(__file__).parent / "golden"


def oracle(tree) -> str:
    # default=list turns a RowTable into the list of row dicts it stands for.
    return json.dumps(tree, indent=2, allow_nan=False, default=list) + "\n"


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, 0.1, 1.7976931348623157e308,
               2.0 ** 63, 123456789.0)
EDGE_INTS = (0, -1, 2 ** 63, -(2 ** 63) - 1, 10 ** 30)
EDGE_STRINGS = ("", 'say "hi"', "back\\slash", "ctl\x00\x01\x1f\x7f\n\t",
                "naïve ☃ \U0001d11e", " \ud800")

finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
scalars = (st.none() | st.booleans() | st.integers() | st.sampled_from(EDGE_INTS)
           | finite_floats | st.text(max_size=12) | st.sampled_from(EDGE_STRINGS))


@st.composite
def row_tables(draw, max_rows=6):
    """A distribution-style or count-style RowTable, p in 1..3, possibly empty."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    rows = draw(st.integers(0, max_rows))
    axis = 1 << n
    points = np.array(draw(st.lists(st.lists(st.integers(0, axis - 1), min_size=p, max_size=p),
                                    min_size=rows, max_size=rows)),
                      dtype=np.int64).reshape(rows, p)
    g = (np.arange(axis), points)
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1),
                               min_size=rows, max_size=rows))
        return RowTable(g=g, count=(np.array(counts, dtype=np.int64), None))
    decoded = draw(st.lists(finite_floats, min_size=axis, max_size=axis))
    probs = draw(st.lists(finite_floats, min_size=rows, max_size=rows))
    return RowTable(g=g, gradient=(np.array(decoded), points),
                    probability=(np.array(probs, dtype=float), None))


@st.composite
def mixed_tables(draw, max_rows=6):
    """A RowTable of 1 to 4 fields in any order, each per-row, coded by a
    1-D codes array or coded by a (rows, width) one, of ints or floats."""
    rows = draw(st.integers(0, max_rows))
    fields = {}
    for name in draw(st.lists(st.sampled_from(["a", "b", "c", "d"]),
                              min_size=1, max_size=4, unique=True)):
        kind = draw(st.sampled_from(["row", "codes", "points"]))
        size = rows if kind == "row" else draw(st.integers(1, 5))
        if draw(st.booleans()):
            values = np.array(draw(st.lists(st.sampled_from(EDGE_INTS[:2]) | st.integers(-9, 9),
                                            min_size=size, max_size=size)), dtype=np.int64)
        else:
            values = np.array(draw(st.lists(finite_floats, min_size=size, max_size=size)))
        codes = None
        if kind != "row":
            shape = (rows,) if kind == "codes" else (rows, draw(st.integers(1, 3)))
            codes = np.array(draw(st.lists(st.integers(0, size - 1), min_size=math.prod(shape),
                                           max_size=math.prod(shape))),
                             dtype=np.int64).reshape(shape)
        fields[name] = (values, codes)
    return RowTable(**fields)


trees = st.recursive(
    scalars | row_tables(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=8) | st.sampled_from(EDGE_STRINGS),
                                        children, max_size=4)),
    max_leaves=30)


def streamed(tree) -> list[str]:
    """The blocks record_json hands to a writer."""
    blocks = []
    assert record_json(tree, blocks.append) is None
    return blocks


@given(tree=trees)
@settings(max_examples=400, deadline=None)
def test_writer_matches_json_dumps(tree):
    expected = oracle(tree)
    assert record_json(tree) == expected
    assert "".join(streamed(tree)) == expected


@st.composite
def long_tables(draw):
    """A RowTable whose rows reach into one to four of the writer's row
    blocks: coded points and gradients, per-row floats and per-row ints."""
    rows = draw(st.sampled_from([1, BLOCK_VALUES - 1, BLOCK_VALUES, BLOCK_VALUES + 1,
                                 2 * BLOCK_VALUES, 3 * BLOCK_VALUES + 1])
                | st.integers(1, 3 * BLOCK_VALUES + 1))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = rng.integers(0, 8, size=(rows, p))
    probabilities = rng.random(rows) * 10.0 ** rng.integers(-30, 5, size=rows)
    return RowTable(g=(np.arange(8), points), gradient=(rng.normal(size=8), points),
                    probability=(probabilities, None),
                    count=(rng.integers(-(2 ** 63), 2 ** 63 - 1, size=rows), None))


@given(table=long_tables())
@settings(max_examples=20, deadline=None)
def test_long_tables_are_handed_over_one_block_of_rows_at_a_time(table):
    blocks_needed = -(-len(table) // BLOCK_VALUES)
    for tree in (table, {"samples": {"outcome_counts": table, "seed": 3}, "after": [0.5]}):
        blocks = streamed(tree)
        assert "".join(blocks) == oracle(tree)
        # Every block but the last ends at the end of a full block of rows.
        assert len(blocks) == blocks_needed
        assert all(block.endswith("}") for block in blocks[:-1])


@given(table=row_tables(max_rows=40) | mixed_tables(max_rows=40))
@settings(max_examples=100, deadline=None)
def test_row_tables_match_json_dumps_at_every_depth(table):
    for tree in (table, [table], {"samples": {"outcome_counts": table, "seed": 3}}):
        assert record_json(tree) == oracle(tree)


def test_empty_containers_and_tables():
    empty = RowTable(g=(np.arange(4), np.zeros((0, 2), dtype=np.int64)),
                     probability=(np.zeros(0), None))
    tree = {"a": [], "b": {}, "c": (), "d": empty, "e": [[], {}, empty]}
    assert record_json(tree) == oracle(tree)
    assert record_json(empty) == "[]\n"


def distribution_table(probabilities, decoded=(0.0, -0.5, 1.0, 0.5)):
    points = np.array([[0, 1], [2, 3], [1, 1]][:len(probabilities)], dtype=np.int64).reshape(-1, 2)
    return RowTable(g=(np.arange(4), points),
                    gradient=(np.array(decoded), points),
                    probability=(np.array(probabilities, dtype=float), None))


def bad_placements(bad):
    yield bad
    yield [1.0, bad]
    yield {"ok": 1, "nested": {"list": [0.5, (2.0, bad)]}}
    yield {"distribution": distribution_table([0.5, bad, 0.25])}
    # a decoded value that a row selects (g = 2 on the first axis)
    yield {"distribution": distribution_table([0.5, 0.25], decoded=(0.0, -0.5, bad, 0.5))}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_raise_wherever_they_sit(bad):
    for tree in bad_placements(bad):
        with pytest.raises(ValueError):
            oracle(tree)
        with pytest.raises(ValueError, match="not JSON compliant"):
            record_json(tree)


def test_unselected_non_finite_decoded_value_is_not_written():
    # json.dumps of the rows never sees a decoded value no row selects.
    points = np.array([[0, 2], [3, 3]])
    table = RowTable(g=(np.arange(4), points),
                     gradient=(np.array([0.0, math.nan, 1.0, 0.5]), points))
    assert record_json(table) == oracle(table)


def test_record_with_non_finite_field_raises():
    params = AlgorithmParams(n=3, nu=1e-9, lam=1.0, mu=0.125)
    cfg = ExperimentConfig(function=FunctionSpec(kind="linear", coefficients=(-1.0,)),
                           x=(0.0,), params=params)
    record = ResultRecord(command="run", config=cfg, params=params, grid_bits=3,
                          grid_size=8, memory_estimate_bytes=128,
                          true_gradient=(math.inf,))
    with pytest.raises(ValueError):
        record.to_json()
    record.true_gradient = (-1.0,)
    record.distribution = distribution_table([1.0, math.nan])
    with pytest.raises(ValueError):
        record.to_json()


def test_writer_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        record_json({"x": object()})
    with pytest.raises(TypeError):
        record_json({"x": np.float32(1.0)})
    # Record keys are strings; any other key is refused, not converted.
    with pytest.raises(TypeError, match="keys must be str"):
        record_json({1: "int key"})


def test_row_table_is_a_read_only_sequence_of_row_dicts():
    table = distribution_table([0.5, 0.25, 0.25])
    rows = [{"g": [0, 1], "gradient": [0.0, -0.5], "probability": 0.5},
            {"g": [2, 3], "gradient": [1.0, 0.5], "probability": 0.25},
            {"g": [1, 1], "gradient": [-0.5, -0.5], "probability": 0.25}]
    assert len(table) == 3
    assert table[0] == rows[0] and table[-1] == rows[2]
    assert type(table[1]["g"][0]) is int and type(table[1]["probability"]) is float
    with pytest.raises(IndexError):
        table[3]
    with pytest.raises(IndexError):
        table[-4]
    assert list(table) == rows
    assert table == rows and rows == table
    assert table != rows[:2] and table != rows[::-1]
    assert table == distribution_table([0.5, 0.25, 0.25])
    assert table.column("probability").tolist() == [0.5, 0.25, 0.25]
    assert (table == "rows") is False

    empty = distribution_table([])
    assert len(empty) == 0 and list(empty) == [] and empty == []


def test_row_table_rejects_ragged_or_non_numeric_fields():
    with pytest.raises(ValueError, match="row count"):
        RowTable(a=(np.zeros(3), None), b=(np.zeros(2), None))
    with pytest.raises(TypeError):
        RowTable(a=(np.array(["x"]), None))


def test_large_table_is_written_without_an_intermediate_copy():
    # Row pieces go straight into the writer's output list: besides the
    # text itself that costs one pointer per piece and the value strings,
    # about 1.9x the text; building a joined table string on the way took
    # about 2.9x.
    rows = 1 << 14
    points = np.stack([np.arange(rows) >> 7, np.arange(rows) & 127], axis=1)
    table = RowTable(g=(np.arange(128), points),
                     gradient=(np.linspace(-1.0, 1.0, 128), points),
                     probability=(np.random.default_rng(1).random(rows), None))
    tree = {"distribution": table}
    record_json(tree)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        text = record_json(tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == oracle(tree)
    assert peak <= 2.4 * len(text)


def test_streamed_table_holds_one_block_of_rows():
    # Handed to a writer, the same table at four times the rows: the writer
    # holds one block of row pieces and its joined text, about twice the
    # block, whatever the table's length.
    rows = 1 << 16
    points = np.stack([(np.arange(rows) >> 7) & 127, np.arange(rows) & 127], axis=1)
    table = RowTable(g=(np.arange(128), points),
                     gradient=(np.linspace(-1.0, 1.0, 128), points),
                     probability=(np.random.default_rng(1).random(rows), None))
    tree = {"distribution": table}
    record_json(tree, len)  # warm caches outside the measurement
    lengths = []
    tracemalloc.start()
    try:
        record_json(tree, lambda block: lengths.append(len(block)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lengths) == rows // BLOCK_VALUES
    assert peak <= 2.4 * max(lengths)


# verify-linear is a linear p=2 verify with an explicit domain and
# max_grid_bits, so its record holds a leakage report.
GOLDEN_NAMES = ("plan", "run", "verify", "verify-linear", "bench")


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_cli_writes_the_golden_records(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    code = main([name.split("-")[0], "--config", str(GOLDEN / f"{name}.config.json"),
                 "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_golden_records_are_json_dumps_of_their_trees():
    for name in GOLDEN_NAMES:
        text = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        tree = json.loads(text)
        assert record_json(tree) == text == oracle(tree)


@pytest.mark.parametrize("name", ["plan", "run", "verify", "verify-linear"])
def test_golden_records_read_back_and_rewrite_byte_for_byte(name):
    text = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert ResultRecord.from_json(text).to_json() == text


def test_parser_is_built_once_and_still_reports_usage_errors(capsys):
    assert build_parser() is build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(["run"])
        assert exit_info.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err
