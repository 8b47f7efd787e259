"""CSV input/output and the row-shard substrate for out-of-core execution.

The CSV codec works a column at a time:

* :func:`to_csv` renders each column of a row block straight to a list
  of ``str`` cells and writes each row as ``",".join(row)``, rows joined
  by ``"\\r\\n"`` — the bytes ``csv.writer`` writes, without its per-cell
  work.  Integer columns whose range is shorter than the block render
  through a table of that range, bools through ``["False", "True"]``,
  floats through their distinct bit patterns (so ``-0.0`` stays apart
  from ``0.0`` and every NaN is an empty cell; ``repr`` runs once per
  distinct value unless nearly all are distinct), and object columns
  quote each distinct string once (``csv``'s QUOTE_MINIMAL).  The encode
  block is 4096 rows, a quarter of the decode block: an output frame is
  wider than its input (35 columns against 9 on the demo plan) and each
  rendered high-cardinality cell is a ``str`` object of its own, so a
  decode-sized block raised the serve command's peak RSS.
* :func:`read_csv`, :func:`read_csv_shards` and :func:`scan_csv_kinds`
  share one column-block decoder.  It parses bounded row blocks, never
  the whole file at once, and classifies each column of a block while
  decoding it: an all-int column becomes ``int64`` and an
  all-float-or-empty column becomes ``float64`` directly (one regex over
  the joined column validates the strict grammar, then one C-level
  conversion); every other column parses its distinct cells with
  :func:`_parse_cell`.  A block's kind merges into the whole-file kind
  under Series list-coercion rules (``kernels._classify``), so the
  decoded frame is bit-identical to building ``Series`` from per-cell
  parses.

Besides the one-shot :func:`read_csv`/:func:`to_csv` pair, this module
provides the streaming primitives the sharded fit/serve paths build on:

* :class:`Shard` — a bounded, contiguous row window of a larger table;
* :func:`iter_frame_shards` / :func:`read_csv_shards` — shard streams over
  an in-memory frame (zero-copy views) or a CSV file (bounded buffers);
* :func:`scan_csv_kinds` — a cheap schema pass so every CSV shard coerces
  to the whole-file dtypes (cell values bit-identical to ``read_csv``);
* :func:`concat_shards` — re-joins per-shard results under Series
  list-coercion semantics, the package-wide dtype authority, so a
  shard-wise pipeline lands on exactly the frame the in-memory path
  would have produced;
* :func:`reservoir_sample` — a seeded bounded row sample whose output is
  a pure function of ``(seed, row stream)``, never of shard boundaries.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.dataframe.frame import DataFrame
from repro.dataframe.series import Series

__all__ = [
    "Shard",
    "concat_shards",
    "iter_frame_shards",
    "read_csv",
    "read_csv_shards",
    "reservoir_sample",
    "scan_csv_kinds",
    "to_csv",
]


def _int_pattern(digits: str) -> str:
    """An integer literal whose digit run is *digits*."""
    return rf"[+-]?{digits}"


def _number_pattern(digits: str) -> str:
    """A decimal literal: a mantissa with a point (optional exponent), an
    integer mantissa with an exponent, or a bare integer of *digits*."""
    exponent = r"[eE][+-]?[0-9]+"
    return rf"[+-]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:{exponent})?|[0-9]+{exponent}|{digits})"


#: Strict numeric grammar for CSV cells.  Deliberately narrower than
#: Python's ``int()``/``float()``: no underscore separators (``"1_000"``
#: is data, not a number), no NaN/inf spellings (``"nan"`` must stay the
#: string ``"nan"`` — parsing it to a non-finite float made it serialize
#: back as an *empty* cell, silent data loss), and no surrounding
#: whitespace (``" 3 "`` is a padded string, not the number 3).
_INT_CELL = re.compile(_int_pattern("[0-9]+") + r"\Z")
_FLOAT_CELL = re.compile(_number_pattern("[0-9]+") + r"\Z")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: The same grammar over a run of cells joined with ``"\n"``.  Bare
#: integers are capped at 18 digits, which always fit int64; a longer one
#: sends the column to the per-cell path, where :func:`_parse_cell`
#: checks the exact range.  No cell pattern matches ``"\n"`` and no two
#: alternatives match the same cell, so a fullmatch runs in linear time.
_CAPPED_DIGITS = "[0-9]{1,18}"
_INT_RUN = re.compile(
    rf"{_int_pattern(_CAPPED_DIGITS)}(?:\n{_int_pattern(_CAPPED_DIGITS)})*"
)
_NUM_OR_EMPTY_RUN = re.compile(
    rf"(?:{_number_pattern(_CAPPED_DIGITS)})?(?:\n(?:{_number_pattern(_CAPPED_DIGITS)})?)*"
)

#: Cells per run-regex match.  The repeat keeps a backtrack record per
#: cell (about 700 bytes for the number grammar), so matching a whole
#: block at once would hold ~11 MB.
_RUN_CELLS = 1 << 10

#: Rows per decode block: bounds the raw cells ``read_csv`` and
#: ``scan_csv_kinds`` hold at once.
_BLOCK_ROWS = 1 << 14

#: Rows per encode block: bounds the rendered cells ``to_csv`` holds at
#: once.  Table-rendered cells are shared, but every high-cardinality
#: float cell is a ``str`` of its own; at ``_BLOCK_ROWS`` rows the
#: 35-column demo output raised the serve command's peak RSS by 8 MB.
_ENCODE_ROWS = 1 << 12


def _all_cells_match(run: re.Pattern, cells: tuple) -> bool:
    """Whether every cell is in *run*'s grammar and none holds a line break."""
    for start in range(0, len(cells), _RUN_CELLS):
        window = cells[start : start + _RUN_CELLS]
        text = "\n".join(window)
        if text.count("\n") != len(window) - 1 or not run.fullmatch(text):
            return False
    return True


def _parse_cell(text: str):
    """Interpret a CSV cell: empty → missing, else bool, int, float, or string.

    Numeric parsing follows the strict grammar above; ``"True"`` and
    ``"False"`` (exactly — the spelling :func:`to_csv` writes) parse as
    booleans so boolean columns survive a CSV round trip.  An integer
    outside int64 keeps its verbatim text (no numeric column can hold it
    exactly).  Everything else is kept verbatim as a string.
    """
    if text == "":
        return None
    if _INT_CELL.match(text):
        value = int(text)
        return value if _INT64_MIN <= value <= _INT64_MAX else text
    if _FLOAT_CELL.match(text):
        return float(text)
    if text == "True":
        return True
    if text == "False":
        return False
    return text


# ----------------------------------------------------------------------
# Column kinds
# ----------------------------------------------------------------------
# A column's kind is a bitmask of what its cells hold; OR-ing the masks
# of two blocks gives the mask of their union, and :func:`_kind_name`
# maps a mask to the dtype Series list coercion would pick.
_MISSING, _PRESENT, _NONBOOL, _FLOATY, _OBJECT = 1, 2, 4, 8, 16
_INT_MASK = _PRESENT | _NONBOOL
_FLOAT_MASK = _PRESENT | _NONBOOL | _FLOATY


#: The mask of each kind name: a block fits a kind when OR-ing its mask
#: in leaves the kind name unchanged.
_KIND_MASKS = {
    "object": _OBJECT,
    "empty": _MISSING,
    "bool": _PRESENT,
    "bool_missing": _PRESENT | _MISSING,
    "float": _FLOAT_MASK,
    "int": _INT_MASK,
}


def _kind_name(mask: int) -> str:
    """``"object"`` (any string cell), ``"empty"`` (no present values),
    ``"bool"``/``"bool_missing"`` (all-boolean, without/with missing
    cells), ``"float"`` (numeric with any float or missing cell) or
    ``"int"``."""
    if mask & _OBJECT:
        return "object"
    if not mask & _PRESENT:
        return "empty"
    if not mask & _NONBOOL:
        return "bool_missing" if mask & _MISSING else "bool"
    if mask & (_FLOATY | _MISSING):
        return "float"
    return "int"


def _mask_of(values: Iterable) -> int:
    """Kind mask of parsed cells (None, bool, int, float or str)."""
    mask = 0
    for value in values:
        if value is None:
            mask |= _MISSING
        elif value is True or value is False:
            mask |= _PRESENT
        elif type(value) is int:
            mask |= _INT_MASK
        elif type(value) is float:
            mask |= _FLOAT_MASK
        else:
            return _OBJECT
    return mask


def _object_array(values: list) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _build(values: list, kind: str) -> np.ndarray:
    """Parsed cells → the array Series list coercion builds for *kind*."""
    if kind == "int":
        return np.array(values, dtype=np.int64)
    if kind == "float":
        return np.array(values, dtype=np.float64)  # None → NaN
    if kind == "bool":
        return np.array(values, dtype=bool)
    return _object_array(values)  # object / bool_missing / empty: None stays


def _as_kind(values: np.ndarray, kind: str) -> np.ndarray:
    """Widen one decoded block to a whole-file *kind* that is not object
    and that the block fits (its mask OR-ed into the kind's mask keeps
    the kind; callers check).

    Each conversion equals what list coercion does to the block's parsed
    cells: ints and bools widen to float, booleans to int, and booleans
    join missing cells as Python bools.  A numeric block cannot widen to
    object this way (an int-form cell of a float block is an int there),
    so callers re-parse such blocks with :func:`_parsed_cells`.
    """
    if values.dtype == object:  # empty / bool_missing / object blocks
        return np.array(values.tolist(), dtype=np.float64) if kind == "float" else values
    if kind == "float":
        return values.astype(np.float64, copy=False)
    if kind == "int":
        return values.astype(np.int64, copy=False)
    if kind == "bool_missing":
        return values.astype(object)  # Python bools
    return values


# ----------------------------------------------------------------------
# Column-block decoder
# ----------------------------------------------------------------------
def _classify_column(cells: tuple) -> tuple[int, dict | None]:
    """``(kind mask, parsed distinct cells)`` of one block column.

    The two numeric fast paths validate the column with a run regex and
    return no parse table; every other column parses each distinct cell
    once.
    """
    if _all_cells_match(_INT_RUN, cells):
        return _INT_MASK, None
    if _all_cells_match(_NUM_OR_EMPTY_RUN, cells):
        if not any(cells):
            return _MISSING, None
        return _FLOAT_MASK | (_MISSING if "" in cells else 0), None
    parsed = {cell: _parse_cell(cell) for cell in set(cells)}
    return _mask_of(parsed.values()), parsed


def _parsed_cells(cells: tuple) -> np.ndarray:
    """Object array of every cell's :func:`_parse_cell` value."""
    parsed = {cell: _parse_cell(cell) for cell in set(cells)}
    return _object_array(list(map(parsed.__getitem__, cells)))


def _decode_column(cells: tuple) -> tuple[int, np.ndarray]:
    """One block column → ``(kind mask, array of the block's own kind)``."""
    mask, parsed = _classify_column(cells)
    if parsed is not None:
        return mask, _build(list(map(parsed.__getitem__, cells)), _kind_name(mask))
    if mask == _INT_MASK:
        return mask, np.array(list(map(int, cells)), dtype=np.int64)
    if mask == _MISSING:
        return mask, np.full(len(cells), None, dtype=object)
    out = np.array([float(cell) if cell else np.nan for cell in cells])
    # An int-form "-0" is the int 0, which widens to +0.0, not -0.0.
    for i in np.flatnonzero((out == 0) & np.signbit(out)):
        if _INT_CELL.match(cells[i]):
            out[i] = 0.0
    return mask, out


def _read_header(reader) -> list[str] | None:
    """The header row (None for an empty file); duplicate names raise."""
    try:
        header = next(reader)
    except StopIteration:
        return None
    positions: dict[str, list[int]] = {}
    for i, name in enumerate(header):
        positions.setdefault(name, []).append(i)
    duplicated = [f"{name!r} at positions {at}" for name, at in positions.items() if len(at) > 1]
    if duplicated:
        raise ValueError(f"duplicate CSV column name(s): {'; '.join(duplicated)}")
    return header


def _column_blocks(reader, width: int, block_rows: int) -> Iterator[list[tuple]]:
    """Consecutive blocks of ≤ *block_rows* rows, each as *width* column
    tuples of cell text.  A short row is padded with empty trailing
    cells; a row with more cells than the header raises ``ValueError``
    naming its 1-based data row, so no cell is ever dropped silently."""
    done = 0
    while True:
        rows = list(islice(reader, block_rows))
        if not rows:
            return
        if set(map(len, rows)) != {width}:
            for number, row in enumerate(rows, done + 1):
                if len(row) > width:
                    raise ValueError(
                        f"CSV data row {number} has {len(row)} cells but the "
                        f"header has {width} columns"
                    )
            rows = [row + [""] * (width - len(row)) for row in rows]
        done += len(rows)
        yield list(zip(*rows))


def _frame(header: list[str], arrays: Iterable[np.ndarray]) -> DataFrame:
    out = DataFrame()
    for name, values in zip(header, arrays):
        out._columns[name] = Series._from_array(values, name)
    return out


def read_csv(path: str | Path) -> DataFrame:
    """Read a headered CSV file into a :class:`DataFrame` with inferred dtypes.

    A column that turns object after earlier all-numeric blocks has those
    blocks re-parsed from a second pass over *path*; a source that reads
    differently the second time (a pipe, a file that changed) raises
    ``ValueError`` rather than keep the float-decoded cells.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(reader)
        if header is None:
            return DataFrame()
        masks = [0] * len(header)
        parts: list[list[np.ndarray]] = [[] for _ in header]
        for columns in _column_blocks(reader, len(header), _BLOCK_ROWS):
            for i, cells in enumerate(columns):
                mask, values = _decode_column(cells)
                masks[i] |= mask
                parts[i].append(values)
    redo = {
        i
        for i, mask in enumerate(masks)
        if mask & _OBJECT and any(block.dtype != object for block in parts[i])
    }
    if redo:  # numeric blocks of an object column: parse their cells again
        n_blocks = len(parts[0])
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            next(reader, None)
            b = 0
            for columns in _column_blocks(reader, len(header), _BLOCK_ROWS):
                if b == n_blocks or len(columns[0]) != len(parts[0][b]):
                    b = -1
                    break
                for i in redo:
                    if parts[i][b].dtype != object:
                        parts[i][b] = _parsed_cells(columns[i])
                b += 1
            if b != n_blocks:
                raise ValueError(
                    f"{path}: the second pass for object columns read different rows "
                    "than the first (a pipe or a file that changed cannot be re-read)"
                )
    arrays = []
    for mask, blocks in zip(masks, parts):
        if not blocks:  # header-only file
            arrays.append(np.empty(0, dtype=object))
        elif len(blocks) == 1:
            arrays.append(blocks[0])
        else:
            kind = _kind_name(mask)
            arrays.append(np.concatenate([_as_kind(block, kind) for block in blocks]))
    return _frame(header, arrays)


def _quote(text: str) -> str:
    """*text* as a ``csv`` QUOTE_MINIMAL cell of the default dialect: a
    cell holding a delimiter, quote or line break is wrapped in quotes,
    with each quote doubled."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _text(value) -> str:
    """The text ``csv.writer`` writes for *value*: a string itself,
    ``None`` empty, a float its ``repr``, anything else its ``str``."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _table_cells(table: list, index: np.ndarray) -> list:
    """``[table[i] for i in index]`` at C speed."""
    return _object_array(table)[index].tolist()


def _float_cells(values: np.ndarray) -> list:
    """Float64 cells: ``repr`` of each value, NaN (any payload) → ``""``.

    Distinct values are found on the bit patterns, so ``-0.0`` and
    ``0.0`` stay apart.  Unless nearly every value is distinct, each
    distinct value is rendered once; otherwise every cell is.
    """
    bits, index = np.unique(values.view(np.uint64), return_inverse=True)
    if 4 * len(bits) <= 3 * len(values):
        distinct = bits.view(np.float64)
        table = list(map(repr, distinct.tolist()))
        for i in np.flatnonzero(np.isnan(distinct)).tolist():
            table[i] = ""
        return _table_cells(table, index)
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def _int_cells(values: np.ndarray) -> list:
    """Integer cells: through a table of every value in the column's
    range when that range is shorter than the column."""
    lo, hi = int(values.min()), int(values.max())
    if hi - lo >= len(values):
        return list(map(str, values.tolist()))
    wide = np.uint64 if values.dtype.kind == "u" else np.int64
    # The offsets fit the wide type, so its wrap-around subtraction is exact.
    index = values.astype(wide) - wide(lo)
    return _table_cells(list(map(str, range(lo, hi + 1))), index)


def _object_cells(values: np.ndarray) -> list:
    """Cells of an object (or other) column: numpy scalars are unboxed,
    missing cells are empty, and each distinct text is quoted once."""
    cells = values.tolist()
    types = set(map(type, cells))
    if not types <= {str, type(None)}:
        if any(issubclass(t, np.generic) for t in types):
            cells = [v.item() if isinstance(v, np.generic) else v for v in cells]
        cells = ["" if v != v else _text(v) for v in cells]
    quoted = {cell: "" if cell is None else _quote(cell) for cell in set(cells)}
    return list(map(quoted.__getitem__, cells))


def _column_cells(values: np.ndarray) -> list:
    """One column block as the ``str`` cells ``csv.writer`` would write."""
    kind = values.dtype.kind
    if kind == "b":
        return _table_cells(["False", "True"], values.view(np.uint8))
    if kind in "iu":
        return _int_cells(values)
    if kind == "f" and values.dtype.itemsize <= 8:  # not longdouble
        return _float_cells(values.astype(np.float64, copy=False))
    return _object_cells(values)


def _write_rows(handle, columns: list[list[str]]) -> None:
    """Write the rows whose cells *columns* holds, each ending ``\\r\\n``."""
    if len(columns) == 1:  # csv.writer writes a row's only cell, when empty, as ""
        columns = [[cell or '""' for cell in columns[0]]]
    handle.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def to_csv(
    frame: DataFrame,
    path: str | Path,
    *,
    append: bool = False,
    header: bool | None = None,
) -> None:
    """Write *frame* to a headered CSV file (missing values become empty cells).

    ``append=True`` adds rows to an existing file; *header* defaults to
    ``not append`` so a shard stream writes the header exactly once
    (first shard ``append=False``, the rest ``append=True``).  The bytes
    are those ``csv.writer`` (default dialect) writes for the frame's
    rows of unboxed scalars.
    """
    write_header = (not append) if header is None else header
    names = frame.columns
    arrays = [frame[name].values for name in names]
    with open(path, "a" if append else "w", newline="") as handle:
        if write_header:
            _write_rows(handle, [[_quote(_text(name))] for name in names])
        for start in range(0, len(frame), _ENCODE_ROWS):
            block = slice(start, start + _ENCODE_ROWS)
            _write_rows(handle, [_column_cells(values[block]) for values in arrays])


# ----------------------------------------------------------------------
# Row shards
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """A bounded, contiguous row window of a larger logical table.

    ``frame`` may share storage with the source table (the frame-shard
    iterator yields zero-copy views) — treat it as read-only.
    """

    frame: DataFrame
    index: int  # shard ordinal in the stream, 0-based
    start: int  # global row offset of the shard's first row

    def __len__(self) -> int:
        return len(self.frame)


def _as_frame(piece: "Shard | DataFrame") -> DataFrame:
    return piece.frame if isinstance(piece, Shard) else piece


def iter_frame_shards(frame: DataFrame, chunk_rows: int) -> Iterator[Shard]:
    """Yield *frame* as contiguous :class:`Shard` views of ≤ *chunk_rows* rows.

    Shards are numpy slice views — zero array copies — so iterating costs
    one dict per shard.  An empty frame yields nothing.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    n = len(frame)
    names = frame.columns
    arrays = [frame[c].values for c in names]
    for index, start in enumerate(range(0, n, chunk_rows)):
        stop = min(start + chunk_rows, n)
        piece = DataFrame()
        for name, values in zip(names, arrays):
            piece._columns[name] = Series._from_array(values[start:stop], name)
        yield Shard(piece, index, start)


# ----------------------------------------------------------------------
# Streaming CSV: schema scan + bounded shard reader
# ----------------------------------------------------------------------
def scan_csv_kinds(path: str | Path) -> dict[str, str]:
    """One streaming pass over a CSV → per-column coercion kind.

    Kinds mirror Series list coercion (``kernels._classify``) over
    :func:`_parse_cell` values: ``"bool"`` (all-boolean, no missing),
    ``"bool_missing"`` (boolean with missing cells — the object
    None/bool path), ``"int"``, ``"float"`` (numeric with any float or
    missing cell), ``"object"`` (any string cell), or ``"empty"`` (no
    present values).  Feeding the result to :func:`read_csv_shards` pins
    every shard to the whole-file dtypes.  The scan classifies blocks
    with the decoder :func:`read_csv` uses, skipping columns a string
    cell has already made ``"object"``.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(reader)
        if header is None:
            return {}
        masks = [0] * len(header)
        for columns in _column_blocks(reader, len(header), _BLOCK_ROWS):
            for i, cells in enumerate(columns):
                if not masks[i] & _OBJECT:
                    masks[i] |= _classify_column(cells)[0]
    return {name: _kind_name(mask) for name, mask in zip(header, masks)}


def read_csv_shards(
    path: str | Path,
    chunk_rows: int,
    schema: dict[str, str] | None = None,
) -> Iterator[Shard]:
    """Stream a headered CSV as :class:`Shard`\\ s of ≤ *chunk_rows* rows.

    With *schema* (from :func:`scan_csv_kinds`) every shard coerces to
    the whole-file dtypes, so each shard is bit-identical to the matching
    row slice of ``read_csv(path)`` regardless of where the boundaries
    fall.  Without a schema each shard infers dtypes independently —
    cheaper (no scan pass), but downstream consumers must tolerate dtype
    drift between shards (:func:`concat_shards` re-coerces).  A shard
    whose cells do not fit the schema kind of their column (a stale
    schema) raises ``ValueError`` naming the column.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(reader)
        if header is None:
            return
        kinds = [None if schema is None else schema.get(name, "object") for name in header]
        for name, kind in zip(header, kinds):
            if kind is not None and kind not in _KIND_MASKS:
                raise ValueError(f"column {name!r}: unknown schema kind {kind!r}")
        start = 0
        for index, columns in enumerate(_column_blocks(reader, len(header), chunk_rows)):
            arrays = []
            for name, kind, cells in zip(header, kinds, columns):
                if kind == "object":
                    arrays.append(_parsed_cells(cells))
                    continue
                mask, values = _decode_column(cells)
                if kind is not None:
                    if _kind_name(_KIND_MASKS[kind] | mask) != kind:
                        raise ValueError(
                            f"column {name!r}: shard {index} holds {_kind_name(mask)!r} "
                            f"cells, which do not fit schema kind {kind!r}"
                        )
                    values = _as_kind(values, kind)
                arrays.append(values)
            shard = Shard(_frame(header, arrays), index, start)
            start += len(shard)
            yield shard


# ----------------------------------------------------------------------
# Concat with list-coercion semantics
# ----------------------------------------------------------------------
def concat_shards(parts: Iterable["Shard | DataFrame"]) -> DataFrame:
    """Concatenate per-shard frames row-wise into one frame.

    When every piece agrees on a column's dtype the arrays concatenate
    directly (this is exact: if every shard of a column is e.g. int64,
    the in-memory column could only have been int64).  Mixed dtypes —
    an all-NaN shard that degraded to object ``None`` rejoining a float
    column, an int shard meeting a missing value — rebuild through
    Series list coercion, the same rule the in-memory element paths
    follow, so the result is bit-identical to the unsharded computation.
    """
    frames = [_as_frame(p) for p in parts]
    if not frames:
        return DataFrame()
    columns = frames[0].columns
    for frame in frames[1:]:
        if frame.columns != columns:
            raise ValueError(
                f"shard column mismatch: {frame.columns} != {columns}"
            )
    out = DataFrame()
    for name in columns:
        arrays = [frame[name].values for frame in frames]
        if len({a.dtype for a in arrays}) == 1:
            out._columns[name] = Series._from_array(np.concatenate(arrays), name)
        else:
            merged: list = []
            for frame in frames:
                merged.extend(frame[name].tolist())
            out._columns[name] = Series(merged, name)
    out._check_lengths()
    return out


# ----------------------------------------------------------------------
# Seeded reservoir sampling (chunk-invariant)
# ----------------------------------------------------------------------
_U64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised SplitMix64 finalizer over uint64 (wrap-around arithmetic)."""
    with np.errstate(over="ignore"):
        z = x + _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def reservoir_sample(
    shards: Iterable["Shard | DataFrame"], k: int, seed: int = 0
) -> tuple[DataFrame, int]:
    """Uniform bounded row sample over a shard stream (Algorithm R).

    The replacement draw for global row *i* is a pure hash of
    ``(seed, i)`` — never a stateful RNG — so the selected rows depend
    only on the logical row stream: any chunking of the same table, or
    the table materialised whole, yields the bit-identical sample.
    Sampled rows come back in original row order and columns re-coerce
    through Series list coercion (the dtypes a direct row-subset of the
    source would have).  Returns ``(sample_frame, total_rows_seen)``.
    """
    if k < 1:
        raise ValueError(f"reservoir size must be >= 1, got {k}")
    seed_base = _splitmix64(np.array([seed], dtype=_U64))[0]
    columns: list[str] | None = None
    slot_rows: list[tuple] = []
    slot_orig: list[int] = []
    total = 0
    for piece in shards:
        frame = _as_frame(piece)
        n = len(frame)
        if columns is None:
            columns = frame.columns
        elif frame.columns != columns:
            raise ValueError(
                f"shard column mismatch: {frame.columns} != {columns}"
            )
        if n == 0:
            continue
        arrays = [frame[c].values for c in columns]
        start, end = total, total + n
        if start < k:  # fill phase: rows 0..k-1 enter unconditionally
            take = min(k, end) - start
            taken = [a[:take].tolist() for a in arrays]
            for offset, row in enumerate(zip(*taken)):
                slot_rows.append(row)
                slot_orig.append(start + offset)
        tail_lo = max(start, k)
        if tail_lo < end:
            idx = np.arange(tail_lo, end, dtype=np.int64)
            hashes = _splitmix64(idx.astype(_U64) ^ seed_base)
            with np.errstate(over="ignore"):
                draws = (hashes % (idx + 1).astype(_U64)).astype(np.int64)
            hit = draws < k
            if hit.any():
                positions = idx[hit] - start
                slots = draws[hit]
                picked = [a[positions].tolist() for a in arrays]
                for slot, orig, row in zip(slots, idx[hit], zip(*picked)):
                    slot_rows[slot] = row
                    slot_orig[slot] = int(orig)
        total = end
    if columns is None:
        return DataFrame(), 0
    order = sorted(range(len(slot_rows)), key=slot_orig.__getitem__)
    data = {
        name: [slot_rows[i][j] for i in order] for j, name in enumerate(columns)
    }
    return DataFrame(data), total
