"""Unit tests for :mod:`repro.dataframe.io`."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dataframe import DataFrame, Series, read_csv
from repro.dataframe import io as csv_io
from repro.dataframe.io import _parse_cell, read_csv_shards, scan_csv_kinds, to_csv


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        df = DataFrame({"name": ["a", "b"], "x": [1, 2], "y": [1.5, None]})
        path = tmp_path / "data.csv"
        to_csv(df, path)
        back = read_csv(path)
        assert back.columns == ["name", "x", "y"]
        assert back["x"].tolist() == [1, 2]
        assert back["y"].isna().tolist() == [False, True]

    def test_type_inference(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2.5,hello\n2,3.5,world\n")
        df = read_csv(path)
        assert df["a"].tolist() == [1, 2]
        assert df["b"].tolist() == [2.5, 3.5]
        assert df["c"].tolist() == ["hello", "world"]

    def test_short_rows_padded(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1\n")
        df = read_csv(path)
        assert df["b"].isna().tolist() == [True]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        assert read_csv(path).empty


class TestStrictCellGrammar:
    """Regression suite for the ``_parse_cell`` grammar tightening.

    Python's ``int()``/``float()`` accept spellings CSV must not: digit
    underscores, NaN/inf words, and surrounding whitespace all used to
    coerce silently, corrupting string columns (``"1_000"`` became the
    int 1000; the literal string ``"nan"`` became missing).  The strict
    grammar only accepts plain decimal literals.
    """

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("42", 42),
            ("+7", 7),
            ("-0", 0),
            ("007", 7),  # documented lossiness: leading zeros coerce
            ("2.5", 2.5),
            ("5.", 5.0),
            (".5", 0.5),
            ("1e3", 1000.0),
            ("-2.5E-3", -0.0025),
            ("True", True),
            ("False", False),
            ("", None),
        ],
    )
    def test_strict_grammar_accepts(self, text, expected):
        got = _parse_cell(text)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize(
        "text",
        [
            "1_000", "1_0.5", "1e1_0",  # underscore separators
            "nan", "NaN", "NAN", "inf", "-inf", "Inf", "Infinity", "-Infinity",
            " 3", "3 ", " 3 ", "\t7", "2.5 ", " 2.5",  # padded whitespace
            "true", "FALSE", "TRUE",  # only the exact repr spellings are bools
            "0x10", "1j", "--5", "++1", "+", "-", ".", "e5", "1.2.3",
        ],
    )
    def test_strict_grammar_keeps_strings(self, text):
        assert _parse_cell(text) == text

    def test_rejected_spellings_stay_strings_through_read_csv(self, tmp_path):
        """End to end: a column of once-coercing spellings reads back as
        the verbatim strings, as an object column."""
        path = tmp_path / "t.csv"
        path.write_text('s\nnan\n1_000\n" 3 "\nInfinity\n')
        back = read_csv(path)
        assert back["s"].values.dtype == object
        assert back["s"].tolist() == ["nan", "1_000", " 3 ", "Infinity"]

    def test_scan_kinds_agrees_with_parser(self, tmp_path):
        """``scan_csv_kinds`` must classify with the same grammar the
        parser uses — a NaN-spelling column is object, not float."""
        path = tmp_path / "t.csv"
        path.write_text("a,b\nnan,1\n1_000,2.5\n")
        kinds = scan_csv_kinds(path)
        assert kinds["a"] == "object"
        assert kinds["b"] == "float"


class TestBoolRoundtrip:
    """Regression suite for the bool serialization bugfix: ``to_csv``
    writes ``True``/``False`` and ``read_csv`` restores real bools."""

    def test_pure_bool_column(self, tmp_path):
        path = tmp_path / "t.csv"
        to_csv(DataFrame({"flag": Series([True, False, True])}), path)
        assert path.read_text() == "flag\nTrue\nFalse\nTrue\n"
        back = read_csv(path)
        assert back["flag"].values.dtype == np.dtype(bool)
        assert back["flag"].tolist() == [True, False, True]

    def test_bool_with_missing(self, tmp_path):
        path = tmp_path / "t.csv"
        to_csv(DataFrame({"flag": Series([True, None, False])}), path)
        back = read_csv(path)
        assert back["flag"].values.dtype == object
        assert back["flag"].tolist() == [True, None, False]

    def test_bool_mixed_with_numbers_coerces_like_memory(self, tmp_path):
        """A column mixing bools and ints round-trips to the same dtype
        the in-memory constructor picks (int, bools as 0/1)."""
        path = tmp_path / "t.csv"
        to_csv(DataFrame({"m": Series([True, 2, False])}), path)
        back = read_csv(path)
        want = Series([True, 2, False]).values
        assert back["m"].values.dtype == want.dtype
        assert np.array_equal(back["m"].values, want)

    def test_scan_kinds_bool_and_bool_missing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("p,q\nTrue,True\nFalse,\n")
        kinds = scan_csv_kinds(path)
        assert kinds["p"] == "bool"
        assert kinds["q"] == "bool_missing"

    def test_numeric_looking_string_lossiness_pinned(self, tmp_path):
        """The documented round-trip edge: a *string* that spells a
        strict numeric literal cannot be told apart from the number once
        written, so it reads back as the number."""
        path = tmp_path / "t.csv"
        to_csv(DataFrame({"s": Series(["007", "x"])}), path)
        back = read_csv(path)
        assert back["s"].tolist() == [7, "x"]


class TestIntegerBeyondInt64:
    """Regression suite: an integer cell outside int64 used to raise
    ``OverflowError`` from the int64 coercion.  Such a cell keeps its
    verbatim text, so the column reads as object, in every reader."""

    BIG = "99999999999999999999"

    def write(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"a,b\n1,{self.BIG}\n2,3\n")
        return path

    def test_read_csv_keeps_text(self, tmp_path):
        back = read_csv(self.write(tmp_path))
        assert back["a"].values.dtype == np.int64
        assert back["b"].values.dtype == object
        assert back["b"].tolist() == [self.BIG, 3]

    def test_scan_csv_kinds_reports_object(self, tmp_path):
        assert scan_csv_kinds(self.write(tmp_path)) == {"a": "int", "b": "object"}

    def test_schema_pinned_shards_keep_text(self, tmp_path):
        path = self.write(tmp_path)
        shards = list(read_csv_shards(path, 1, schema=scan_csv_kinds(path)))
        assert [s.frame["b"].tolist() for s in shards] == [[self.BIG], [3]]
        assert all(s.frame["b"].values.dtype == object for s in shards)

    def test_int64_bounds_stay_integers(self, tmp_path):
        assert _parse_cell("9223372036854775807") == 2**63 - 1
        assert _parse_cell("-9223372036854775808") == -(2**63)
        assert _parse_cell("9223372036854775808") == "9223372036854775808"
        path = tmp_path / "t.csv"
        path.write_text("a\n9223372036854775807\n-9223372036854775808\n")
        back = read_csv(path)
        assert back["a"].values.dtype == np.int64
        assert back["a"].tolist() == [2**63 - 1, -(2**63)]

    def test_long_digit_run_in_a_float_column_keeps_text(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"f\n1.5\n{self.BIG}\n")
        back = read_csv(path)
        assert back["f"].values.dtype == object
        assert back["f"].tolist() == [1.5, self.BIG]


class TestDuplicateHeader:
    """Regression suite: with header ``a,a`` ``read_csv`` appended both
    cells to one column (a 1-row file read as 2 rows) and
    ``read_csv_shards`` silently kept the last ``a``.  Every reader now
    refuses the file, naming the column and its positions."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,a\n1,2,3\n")
        return path

    def test_read_csv_raises(self, path):
        with pytest.raises(ValueError, match=r"'a' at positions \[0, 2\]"):
            read_csv(path)

    def test_read_csv_shards_raises(self, path):
        with pytest.raises(ValueError, match=r"'a' at positions \[0, 2\]"):
            list(read_csv_shards(path, 10))

    def test_scan_csv_kinds_raises(self, path):
        with pytest.raises(ValueError, match=r"'a' at positions \[0, 2\]"):
            scan_csv_kinds(path)


class TestSecondPass:
    """``read_csv`` re-reads the file when a column turns object after
    earlier all-numeric blocks.  A source that reads differently the
    second time must fail loudly, not keep float-decoded cells (``3``
    read back as ``3.0``, missing cells as NaN)."""

    CSV = "x,y\n1,a\n2,b\n,c\nthree,d\n"

    def test_rereadable_file_keeps_cell_types(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csv_io, "_BLOCK_ROWS", 2)
        path = tmp_path / "t.csv"
        path.write_text(self.CSV)
        assert read_csv(path)["x"].tolist() == [1, 2, None, "three"]

    def test_pipe_source_raises(self):
        if not os.path.exists("/dev/stdin"):
            pytest.skip("no /dev/stdin")
        code = (
            "from repro.dataframe import io\n"
            "io._BLOCK_ROWS = 2\n"
            "io.read_csv('/dev/stdin')\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            input=self.CSV,
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr and "cannot be re-read" in proc.stderr

    def test_changed_file_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csv_io, "_BLOCK_ROWS", 2)
        path = tmp_path / "t.csv"
        path.write_text(self.CSV)
        reads = []

        def open_changing(file, *args, **kwargs):
            reads.append(file)
            if len(reads) == 1:
                return open(file, *args, **kwargs)
            return io.StringIO("x,y\n1,a\n")  # one block of one row

        monkeypatch.setattr(csv_io, "open", open_changing, raising=False)
        with pytest.raises(ValueError, match="cannot be re-read"):
            read_csv(path)
        assert len(reads) == 2


class TestStaleSchema:
    """``read_csv_shards`` pins shards to a schema only where the cells
    fit it; a stale schema raises naming the column instead of passing
    an object block through or casting NaN to an int64 garbage value."""

    @pytest.mark.parametrize(
        "kinds, column, held",
        [
            ({"a": "int", "b": "object"}, "a", "empty"),
            ({"a": "float", "b": "int"}, "b", "object"),
            ({"a": "float", "b": "bool"}, "b", "object"),
            ({"a": "empty", "b": "object"}, "a", "int"),
        ],
    )
    def test_mismatched_kind_raises(self, tmp_path, kinds, column, held):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,x\n,y\n")
        with pytest.raises(ValueError, match=f"column '{column}'.*'{held}'.*kind"):
            list(read_csv_shards(path, 1, schema=kinds))

    def test_bool_block_widens_to_int(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\nTrue\n5\n")
        shards = list(read_csv_shards(path, 1, schema={"a": "int"}))
        assert [s.frame["a"].values.dtype for s in shards] == [np.int64, np.int64]
        assert [s.frame["a"].tolist() for s in shards] == [[1], [5]]

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\n")
        with pytest.raises(ValueError, match="unknown schema kind 'str'"):
            list(read_csv_shards(path, 1, schema={"a": "str"}))
