"""Reference CSV codec: the row-wise writer and per-cell reader.

These are the straightforward implementations ``repro.dataframe.io``
used before its column-at-a-time codec; the tests keep them as an oracle.
``to_csv`` walks ``iterrows`` and writes one row of unboxed scalars at a
time; ``read_csv`` parses every cell with the shared strict grammar and
lets ``Series`` list coercion pick each column's dtype.
"""

from __future__ import annotations

import csv

from repro.dataframe import DataFrame
from repro.dataframe.io import _parse_cell


def reference_read_csv(path) -> DataFrame:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            return DataFrame()
        data: dict[str, list] = {name: [] for name in header}
        for number, row in enumerate(reader, 1):
            if len(row) > len(header):
                raise ValueError(
                    f"CSV data row {number} has {len(row)} cells but the "
                    f"header has {len(header)} columns"
                )
            for name, cell in zip(header, row):
                data[name].append(_parse_cell(cell))
            for name in header[len(row):]:
                data[name].append(None)
    return DataFrame(data)


def reference_to_csv(frame: DataFrame, path, *, append: bool = False, header=None) -> None:
    write_header = (not append) if header is None else header
    with open(path, "a" if append else "w", newline="") as handle:
        writer = csv.writer(handle)
        if write_header:
            writer.writerow(frame.columns)
        for _, row in frame.iterrows():
            writer.writerow(
                ["" if value is None or value != value else value for value in row.to_dict().values()]
            )
