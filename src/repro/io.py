"""Loading base tables from files.

Supports the two formats the paper's workloads come in:

- *edge lists* — whitespace- or tab-separated numeric columns, ``#``
  comments (the SNAP/WebGraph distribution format of Table 1's graphs);
- *CSV with header* — for business-shaped tables (sales, shares, ...).

Values are type-inferred per field: int, then float, else string.
"""

from __future__ import annotations

import csv
import pathlib
import re
from typing import Sequence

from repro.relation import Relation


#: A number is ASCII digits without separators, as :func:`write_csv`
#: writes it (``int()`` alone would read ``1_000`` and ``١٢`` too).
_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                    r"|[+-]?(?:nan|inf|infinity)", re.IGNORECASE)


def _convert(text: str):
    number = text.strip()
    if _INT.fullmatch(number):
        return int(number)
    return float(number) if _FLOAT.fullmatch(number) else text


def read_edge_list(path: str | pathlib.Path, columns: Sequence[str] | None = None,
                   name: str = "edge") -> Relation:
    """Read a whitespace-separated edge list with ``#`` comments.

    Column names default to ``Src, Dst`` plus ``Cost`` when a third field
    is present (further fields get ``_c3``, ``_c4``...).
    """
    rows: list[tuple] = []
    arity = None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            fields = tuple(_convert(f) for f in line.split())
            if arity is None:
                arity = len(fields)
            elif len(fields) != arity:
                raise ValueError(
                    f"ragged edge list: expected {arity} fields, got "
                    f"{len(fields)} in {line!r}")
            rows.append(fields)
    if arity is None:
        arity = 2
    if columns is None:
        defaults = ["Src", "Dst", "Cost"]
        columns = (defaults[:arity] if arity <= 3 else
                   defaults + [f"_c{i}" for i in range(3, arity)])
    return Relation(name, columns, rows)


def read_csv(path: str | pathlib.Path, name: str | None = None) -> Relation:
    """Read a CSV whose first row is the header."""
    path = pathlib.Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        rows = [tuple(_convert(field) for field in record)
                for record in reader if record]
    return Relation(name or path.stem, [h.strip() for h in header], rows)


def write_csv(relation: Relation, path: str | pathlib.Path) -> None:
    """Write a relation as CSV with a header row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(relation.columns)
        writer.writerows(relation.rows)


def load_table(path: str | pathlib.Path, name: str | None = None) -> Relation:
    """Dispatch on extension: ``.csv`` → CSV, everything else → edge list."""
    path = pathlib.Path(path)
    if path.suffix.lower() == ".csv":
        return read_csv(path, name)
    return read_edge_list(path, name=name or path.stem)
