"""The session catalog: registered base tables and materialized views."""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from repro.errors import AnalysisError
from repro.relation import Relation

#: A relation's data epoch: ``(generation, row count)``.
Epoch = tuple[int, int]

#: Every identifier the lexer can produce (a letter or ``_``, then word
#: characters), plus words inside literals and comments: a superset.
_WORD = re.compile(r"[^\W\d]\w*")


def only_grew(then: Epoch, now: Epoch) -> bool:
    """Whether a relation at epoch ``then`` kept its generation and at
    most gained rows by ``now``.

    The second half of the one validity rule for anything derived from a
    base table (DESIGN.md §19): an equal epoch — the derived value is
    valid as it is; ``only_grew`` — exactly the rows past the old count
    are new, so it may absorb them instead of being rebuilt; anything
    else — rebuild.
    """
    return then[0] == now[0] and then[1] <= now[1]


class Catalog:
    """Name → :class:`Relation` registry with case-insensitive lookup.

    Two kinds of epoch make the catalog cacheable from the outside:

    - :attr:`version` bumps on any *schema* change — registering or
      replacing a table.  Cached plans (name resolution, column binding)
      are valid exactly as long as it holds still.
    - each relation has a *data* :meth:`epoch`, ``(generation, row
      count)``: the generation moves when the relation is registered,
      replaced or mutated out of band (:meth:`note_mutation`), the row
      count only ever grows under one generation (:meth:`append_rows`).
      Everything derived from a table's rows — cached query results,
      the fixpoint's base sides, the process backend's install half —
      is valid exactly as long as the epochs of the tables it read hold
      still, and may *absorb* ``rows[old count:]`` when only the count
      moved (:func:`only_grew`).

    :attr:`data_version` is the sum of every relation's generation and
    row count: two catalogs taken through the same history read the same
    number, which is what the serving WAL checks on replay.  Nothing is
    cached under it — an insert into one table must not retire what was
    derived from another.
    """

    def __init__(self):
        self._tables: dict[str, Relation] = {}
        self._generations: dict[str, int] = {}
        self.version = 0

    def register(self, name: str, columns: Sequence[str],
                 rows: Iterable[Sequence] | None = None) -> Relation:
        """Register (or replace) a base table and return it."""
        relation = Relation(name, columns, rows)
        self.register_relation(relation)
        return relation

    def register_relation(self, relation: Relation) -> None:
        key = relation.name.lower()
        self._tables[key] = relation
        self._generations[key] = self._generations.get(key, 0) + 1
        self.version += 1

    def append_rows(self, name: str, rows: Iterable[Sequence]) -> int:
        """Append validated rows to a registered table (data change only).

        The schema stays fixed, so cached *plans* survive; the table's
        epoch grows by the row count, nothing else happens here — what
        was derived from the table absorbs the rows (or is rebuilt) when
        it is next looked up.  Returns the number of rows appended (0
        leaves every epoch untouched).
        """
        relation = self.get(name)
        new_rows = [tuple(r) for r in rows]
        for row in new_rows:
            if len(row) != len(relation.columns):
                raise AnalysisError(
                    f"row {row!r} does not match {name!r} schema "
                    f"{relation.columns}")
        relation.rows.extend(new_rows)
        return len(new_rows)

    def note_mutation(self, name: str | None = None) -> None:
        """Record an out-of-band row mutation (rows changed in place) of
        table ``name`` — of every table when none is named."""
        keys = self._generations if name is None else [self._key(name)]
        for key in keys:
            self._generations[key] += 1

    def epoch(self, name: str) -> Epoch:
        """The data epoch of table ``name``: ``(generation, row count)``."""
        key = self._key(name)
        return self._generations[key], len(self._tables[key].rows)

    def tables_named(self, text: str) -> list[str]:
        """The registered tables named by a word of ``text``, sorted: a
        statement reaches a table only by naming it (the lexer has no
        quoted identifiers), so a cheap pre-parse superset of its reads."""
        return sorted(self._tables.keys()
                      & {word.lower() for word in _WORD.findall(text)})

    def epochs(self, names: Iterable[str]) -> tuple[tuple[str, int, int], ...]:
        """``(name, generation, row count)`` of every registered table
        among ``names`` (any case; other words are skipped), name-sorted
        — a hashable stamp of the data a statement mentioning exactly
        those words can read."""
        keys = self._tables.keys() & {name.lower() for name in names}
        return tuple((key, *self.epoch(key)) for key in sorted(keys))

    @property
    def data_version(self) -> int:
        return (sum(self._generations.values())
                + sum(len(table.rows) for table in self._tables.values()))

    def _key(self, name: str) -> str:
        key = name.lower()
        if key not in self._tables:
            raise AnalysisError(f"unknown table {name!r} (registered: "
                                f"{sorted(self._tables)})")
        return key

    def get(self, name: str) -> Relation:
        return self._tables[self._key(name)]

    def owns(self, relation: Relation) -> bool:
        """Whether ``relation`` is the very object registered under its
        name — the only rows whose changes :meth:`epoch` tracks, so the
        only ones a structure derived from them can be cached for."""
        return self._tables.get(relation.name.lower()) is relation

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def schema_of(self, name: str) -> tuple[str, ...]:
        return self.get(name).columns

    def names(self) -> list[str]:
        return sorted(self._tables)
