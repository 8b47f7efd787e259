"""Byte-identity oracle for the column-at-a-time CSV codec.

``to_csv`` must write exactly the bytes the row-wise reference writer
writes, and ``read_csv``/``read_csv_shards`` must decode exactly the
frame the per-cell reference reader builds (``frames_identical``: dtype,
missingness and every value), on the nine eval datasets, the demo
serving workload and hand-built edge columns.  The references live in
``csv_reference.py``.
"""

import csv

import numpy as np
import pytest
from csv_reference import reference_read_csv, reference_to_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, Series, read_csv
from repro.dataframe import io as csv_io
from repro.dataframe.io import (
    concat_shards,
    iter_frame_shards,
    read_csv_shards,
    scan_csv_kinds,
    to_csv,
)
from repro.eval.serving import ALL_DATASETS, build_demo_result, fit_and_export, make_serving_frame
from repro.serve import compile_plan, frames_identical


def assert_codec_matches_reference(frame: DataFrame, base, chunk: int = 37) -> None:
    """Encode *frame* with both writers, then decode with every reader."""
    new, ref = base / "new.csv", base / "ref.csv"
    to_csv(frame, new)
    reference_to_csv(frame, ref)
    assert new.read_bytes() == ref.read_bytes()

    want = reference_read_csv(ref)
    ok, detail = frames_identical(read_csv(new), want)
    assert ok, detail
    shards = list(read_csv_shards(new, chunk, schema=scan_csv_kinds(new)))
    offset = 0
    for shard in shards:
        assert shard.start == offset
        ok, detail = frames_identical(shard.frame, want.iloc[offset : offset + len(shard)])
        assert ok, detail
        offset += len(shard)
    assert offset == len(want)
    # Without a schema each shard infers its own dtypes, like a file of
    # just its rows.
    with open(new, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    for shard in read_csv_shards(new, chunk):
        piece = base / "piece.csv"
        with open(piece, "w", newline="") as handle:
            csv.writer(handle).writerows([header, *rows[shard.start : shard.start + len(shard)]])
        ok, detail = frames_identical(shard.frame, reference_read_csv(piece))
        assert ok, detail

    # Append mode: one header, then every shard's rows.
    new_inc, ref_inc = base / "new_inc.csv", base / "ref_inc.csv"
    for i, shard in enumerate(iter_frame_shards(frame, chunk)):
        to_csv(shard.frame, new_inc, append=i > 0)
        reference_to_csv(shard.frame, ref_inc, append=i > 0)
    if len(frame):
        assert new_inc.read_bytes() == ref_inc.read_bytes() == ref.read_bytes()


@pytest.fixture(scope="module", params=ALL_DATASETS)
def fitted(request):
    bundle, result = fit_and_export(request.param, n_rows=200, seed=0)
    return bundle["frame"], result.frame


def test_eval_dataset_input_frames(fitted, tmp_path):
    assert_codec_matches_reference(fitted[0], tmp_path)


def test_eval_dataset_fitted_frames(fitted, tmp_path):
    assert_codec_matches_reference(fitted[1], tmp_path)


def test_demo_serving_workload(tmp_path):
    """The ``plan apply --csv`` path: decode the served CSV, apply the
    demo plan, encode the featured frame — each step against the
    reference codec."""
    result, frame = build_demo_result(400, seed=0, n_groups=12)
    plan = compile_plan(result, frame, "Target")
    serving = make_serving_frame(1500, seed=1, n_groups=12)
    assert_codec_matches_reference(serving, tmp_path)
    featured = plan.apply(read_csv(tmp_path / "new.csv"))
    ok, detail = frames_identical(featured, plan.apply(reference_read_csv(tmp_path / "ref.csv")))
    assert ok, detail
    assert_codec_matches_reference(featured, tmp_path, chunk=500)


def object_column(values) -> Series:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return Series._from_array(out)


@pytest.mark.parametrize("block_rows", [2, 4, 1 << 14])
def test_edge_columns(tmp_path, monkeypatch, block_rows):
    """Also across codec block boundaries: a float block followed by a
    string block makes an object column whose numbers keep their types."""
    monkeypatch.setattr(csv_io, "_BLOCK_ROWS", block_rows)
    nan = float("nan")
    frame = DataFrame(
        {
            "numpy_scalars": object_column(
                [np.int64(3), np.float64(0.1), np.bool_(True), np.float32(0.1), "x", None]
            ),
            "object_nan": object_column(["a", nan, np.float64("nan"), None, "b,c", 'q"d']),
            "bools": Series([True, False, True, True, False, True]),
            "bools_missing": Series([True, None, False, None, True, False]),
            "floats": Series([1.5, nan, -0.0, 1e16, 5e-324, 0.1]),
            "ints": Series([0, -1, 2**62, 7, -(2**63), 2**63 - 1]),
            "all_missing": Series([None] * 6),
            "text": Series(["", " pad ", "nan", "1_000", "line\nbreak", "007"]),
            "quoted_newline": Series(["1\n2", "3", "4", "5.5\n", "6", "7"]),
        }
    )
    assert_codec_matches_reference(frame, tmp_path, chunk=4)


# ----------------------------------------------------------------------
# Encoder edges: lookup tables, distinct-value tables and hand quoting
# ----------------------------------------------------------------------
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def array_column(values, dtype) -> Series:
    return Series._from_array(np.array(values, dtype=dtype))


def nan_with_payload(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def assert_bytes_match(frame: DataFrame, base, **kwargs) -> None:
    new, ref = base / "new.csv", base / "ref.csv"
    to_csv(frame, new, **kwargs)
    reference_to_csv(frame, ref, **kwargs)
    assert new.read_bytes() == ref.read_bytes()


@pytest.fixture(params=[1, 2, 3, None], ids=["rows1", "rows2", "rows3", "default"])
def encode_rows(request, monkeypatch):
    """Run an encoder case at tiny encode blocks and at the default."""
    if request.param is not None:
        monkeypatch.setattr(csv_io, "_ENCODE_ROWS", request.param)


NAN = float("nan")
ENCODER_EDGES = {
    "signed_zero_low_cardinality": {
        "z": Series([0.0, -0.0, 0.0, -0.0, 1.5, 0.0, -0.0, NAN]),
    },
    "nan_payloads": {
        "payloads": array_column(
            [
                nan_with_payload(0x7FF8000000000001),
                1.0,
                nan_with_payload(0xFFF8000000000000),
                nan_with_payload(0x7FF0000000000001),
                NAN,
                1.0,
            ],
            np.float64,
        ),
        "all_nan": array_column([NAN, nan_with_payload(0xFFF8000000000000)] * 3, np.float64),
    },
    "int64_extremes": {
        "min_small_range": array_column(
            [INT64_MIN, INT64_MIN + 2, INT64_MIN + 1, INT64_MIN, INT64_MIN + 2, INT64_MIN], np.int64
        ),
        "min_and_max": array_column([INT64_MIN, INT64_MAX, 0, INT64_MAX, INT64_MIN, -1], np.int64),
        "int8": array_column([-128, 127, -128, -127, 0, -128], np.int8),
    },
    "uint64_above_int64": {
        "big": array_column([2**64 - 1, 2**63, 2**64 - 2, 2**64 - 1, 2**63, 2**63 + 1], np.uint64),
        "small_range": array_column([2**64 - 1, 2**64 - 2, 2**64 - 1] * 2, np.uint64),
        "uint8": array_column([255, 0, 254, 255, 255, 0], np.uint8),
    },
    "float32_and_complex": {
        "f32": array_column([0.1, NAN, -0.0, 1e30, 0.1, 3.0], np.float32),
        "f16": array_column([0.1, 65504.0, NAN, -0.0, 0.1, 1.0], np.float16),
        "c128": array_column(
            [1 + 2j, complex(NAN, 0), complex(0, NAN), -0.0j, 1 + 2j, 0j], np.complex128
        ),
    },
    "bools": {
        "b": Series([True, False, True, True, False, True]),
        "all_true": Series([True] * 6),
    },
    "object_cells": {
        "specials": object_column(
            ["a,b", 'say "hi"', "cr\rlf", "lf\n", " lead", "trail ", '"', ",", "", None]
        ),
        "scalars": object_column(
            [np.int64(-3), np.float64(-0.0), np.bool_(False), np.float32(0.1), np.str_("s,t"),
             True, 0.1, NAN, 7, np.float64("nan")]
        ),
    },
    "header_names_need_quoting": {
        "a,b": Series([1, 2]),
        'q"uote': Series(["x", "y"]),
        "line\nbreak": Series([1.5, NAN]),
        "cr\r": Series([True, False]),
        " padded ": Series([None, "z"]),
    },
    "one_column_empty_cells": {"only": Series(["", "x", None, "", '""'])},
    "one_float_column_with_nan": {"f": Series([NAN, 1.0, NAN])},
    "one_empty_named_column": {"": Series([NAN, 2, NAN])},
    "zero_rows": {
        "i": array_column([], np.int64),
        "f": array_column([], np.float64),
        "o": object_column([]),
    },
}


@pytest.mark.parametrize("case", list(ENCODER_EDGES))
def test_encoder_edges(tmp_path, encode_rows, case):
    assert_bytes_match(DataFrame(ENCODER_EDGES[case]), tmp_path)


@pytest.mark.parametrize("case", ["object_cells", "one_column_empty_cells", "int64_extremes"])
def test_encoder_append_and_header_flags(tmp_path, encode_rows, case):
    """``append=True`` adds rows under the existing header; ``header=False``
    and ``header=True`` override the default either way."""
    frame = DataFrame(ENCODER_EDGES[case])
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    for kwargs in ({}, {"append": True}, {"append": True, "header": True}):
        to_csv(frame, new, **kwargs)
        reference_to_csv(frame, ref, **kwargs)
    assert new.read_bytes() == ref.read_bytes()
    assert_bytes_match(frame, tmp_path, header=False)


def test_to_csv_does_not_use_csv_writer(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.writer called")

    monkeypatch.setattr(csv, "writer", refuse)
    to_csv(DataFrame(ENCODER_EDGES["object_cells"]), tmp_path / "t.csv")


SPECIAL_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\'é0.-')), max_size=6)
LOW_FLOATS = st.sampled_from(
    [0.0, -0.0, 1.5, -2.25, 1e16, 5e-324, float("inf"), -float("inf"), NAN,
     nan_with_payload(0xFFF8000000000001), 0.1]
)


def column_strategy(n: int):
    """A column of *n* cells: ints (narrow and wide ranges, int64 edges),
    uint64, floats (low and high cardinality, signed zeros, NaN payloads),
    float32, bools, and object cells (special strings, missing, numpy
    scalars)."""
    cells = lambda elements: st.lists(elements, min_size=n, max_size=n)  # noqa: E731
    ints = st.one_of(
        st.integers(-3, 3), st.integers(INT64_MIN, INT64_MAX), st.sampled_from([INT64_MIN, INT64_MAX])
    )
    floats = st.one_of(LOW_FLOATS, st.floats(width=64))
    objects = st.one_of(
        SPECIAL_TEXT,
        st.none(),
        st.just(NAN),
        st.booleans(),
        LOW_FLOATS,
        st.integers(-5, 5).map(np.int64),
        st.floats(width=32).map(np.float32),
        st.sampled_from(["a", "b,c", 'd"e']).map(np.str_),
    )
    return st.one_of(
        cells(ints).map(lambda v: array_column(v, np.int64)),
        cells(st.integers(0, 2**64 - 1)).map(lambda v: array_column(v, np.uint64)),
        cells(st.integers(2**64 - 4, 2**64 - 1)).map(lambda v: array_column(v, np.uint64)),
        cells(floats).map(lambda v: array_column(v, np.float64)),
        cells(LOW_FLOATS).map(lambda v: array_column(v, np.float64)),
        cells(st.floats(width=32)).map(lambda v: array_column(v, np.float32)),
        cells(st.booleans()).map(lambda v: array_column(v, bool)),
        cells(objects).map(object_column),
        cells(st.sampled_from(["", None, "x"])).map(object_column),
    )


@st.composite
def encoder_frames(draw):
    n = draw(st.integers(0, 12))
    names = draw(st.lists(SPECIAL_TEXT, min_size=1, max_size=4, unique=True))
    return DataFrame({name: draw(column_strategy(n)) for name in names})


@settings(max_examples=150, deadline=None)
@given(encoder_frames(), st.integers(1, 5))
def test_encoder_matches_reference_property(tmp_path_factory, frame, encode_rows):
    """Any frame encodes to the reference writer's bytes at any encode
    block size: the lookup and distinct-value tables render exactly the
    cells ``csv.writer`` writes."""
    base = tmp_path_factory.mktemp("enc")
    saved = csv_io._ENCODE_ROWS
    csv_io._ENCODE_ROWS = encode_rows
    try:
        assert_bytes_match(frame, base)
    finally:
        csv_io._ENCODE_ROWS = saved


def test_negative_zero_int_cell_widens_to_positive_zero(tmp_path):
    """``"-0"`` is the int 0, so a float column holding it reads +0.0
    (writes back as ``0.0``), while ``"-0.0"`` stays -0.0."""
    path = tmp_path / "t.csv"
    path.write_text("f\n-0\n-0.0\n1.5\n\n")
    got, want = read_csv(path), reference_read_csv(path)
    assert np.array_equal(np.signbit(got["f"].values), np.signbit(want["f"].values))
    assert np.signbit(got["f"].values).tolist() == [False, True, False, False]


def test_ragged_rows_decode_like_the_reference(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2\n\n7,x,8\n")
    ok, detail = frames_identical(read_csv(path), reference_read_csv(path))
    assert ok, detail
    shards = concat_shards(read_csv_shards(path, 2, schema=scan_csv_kinds(path)))
    ok, detail = frames_identical(shards, reference_read_csv(path))
    assert ok, detail


@pytest.mark.parametrize(
    "read",
    [
        read_csv,
        scan_csv_kinds,
        lambda path: list(read_csv_shards(path, 2, schema=scan_csv_kinds(path))),
    ],
    ids=["read_csv", "scan_csv_kinds", "read_csv_shards"],
)
def test_extra_cells_raise_naming_the_row(tmp_path, read):
    """A cell beyond the header is an error, never a silent drop: the
    message names the 1-based data row, its cell count and the width."""
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3\n4,5\n6,7,8\n")
    with pytest.raises(ValueError, match=r"data row 4 has 3 cells but the header has 2"):
        read(path)
    with pytest.raises(ValueError, match=r"data row 4 has 3 cells"):
        reference_read_csv(path)


def test_header_only_and_empty_files(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n")
    ok, detail = frames_identical(read_csv(path), reference_read_csv(path))
    assert ok, detail
    assert scan_csv_kinds(path) == {"a": "empty", "b": "empty"}
    assert list(read_csv_shards(path, 3)) == []
    path.write_text("")
    assert read_csv(path).empty and scan_csv_kinds(path) == {}


CELLS = st.one_of(
    st.just(""),
    st.sampled_from(["True", "False", "-0", "007", "1e3", ".5", "nan", "x", "9" * 19, "9" * 20]),
    st.integers(-(10**20), 10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), min_size=1, max_size=25)
    ),
    st.integers(1, 6),
    st.integers(1, 4),
)
def test_small_blocks_merge_like_one_pass(tmp_path_factory, rows, block_rows, run_cells):
    """Kinds that change between decode blocks merge to the dtype a
    single per-cell pass picks, also when a block column is validated in
    several run-regex windows."""
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    width = len(rows[0])
    path.write_text(
        ",".join(f"c{i}" for i in range(width)) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    )
    saved = csv_io._BLOCK_ROWS, csv_io._RUN_CELLS
    csv_io._BLOCK_ROWS, csv_io._RUN_CELLS = block_rows, run_cells
    try:
        got, kinds = read_csv(path), scan_csv_kinds(path)
        shards = concat_shards(read_csv_shards(path, block_rows, schema=kinds))
    finally:
        csv_io._BLOCK_ROWS, csv_io._RUN_CELLS = saved
    want = reference_read_csv(path)
    ok, detail = frames_identical(got, want)
    assert ok, detail
    ok, detail = frames_identical(shards, want)
    assert ok, detail
