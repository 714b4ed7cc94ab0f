"""The session catalog: registered base tables and materialized views."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import AnalysisError
from repro.relation import Relation


class Catalog:
    """Name → :class:`Relation` registry with case-insensitive lookup.

    Two monotone epochs make the catalog cacheable from the outside
    (``repro.serving`` keys its plan and result caches on them):

    - :attr:`version` bumps on any *schema* change — registering or
      replacing a table.  Cached plans (name resolution, column binding)
      are valid exactly as long as it holds still.
    - :attr:`data_version` bumps on any *visible* change, schema or
      rows (:meth:`append_rows` / :meth:`note_mutation`).  Cached query
      results are valid exactly as long as it holds still.
    """

    def __init__(self):
        self._tables: dict[str, Relation] = {}
        self.version = 0
        self.data_version = 0

    def register(self, name: str, columns: Sequence[str],
                 rows: Iterable[Sequence] | None = None) -> Relation:
        """Register (or replace) a base table and return it."""
        relation = Relation(name, columns, rows)
        self._tables[name.lower()] = relation
        self.version += 1
        self.data_version += 1
        return relation

    def register_relation(self, relation: Relation) -> None:
        self._tables[relation.name.lower()] = relation
        self.version += 1
        self.data_version += 1

    def append_rows(self, name: str, rows: Iterable[Sequence]) -> int:
        """Append validated rows to a registered table (data change only).

        The schema stays fixed, so cached *plans* survive; cached
        *results* are invalidated through :attr:`data_version`.  Returns
        the number of rows appended (0 leaves both epochs untouched).
        """
        relation = self.get(name)
        new_rows = [tuple(r) for r in rows]
        if not new_rows:
            return 0
        for row in new_rows:
            if len(row) != len(relation.columns):
                raise AnalysisError(
                    f"row {row!r} does not match {name!r} schema "
                    f"{relation.columns}")
        relation.rows.extend(new_rows)
        self.data_version += 1
        return len(new_rows)

    def note_mutation(self) -> None:
        """Record an out-of-band row mutation (rows changed in place)."""
        self.data_version += 1

    def get(self, name: str) -> Relation:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise AnalysisError(f"unknown table {name!r} (registered: "
                                f"{sorted(self._tables)})") from None

    def owns(self, relation: Relation) -> bool:
        """Whether ``relation`` is the very object registered under its
        name — the only rows whose changes :attr:`data_version` tracks, so
        the only ones a structure derived from them can be cached for."""
        return self._tables.get(relation.name.lower()) is relation

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def schema_of(self, name: str) -> tuple[str, ...]:
        return self.get(name).columns

    def names(self) -> list[str]:
        return sorted(self._tables)
