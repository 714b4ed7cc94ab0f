"""Plan and result caches for the query service.

A served deployment sees the same statements over and over — dashboard
refreshes, per-tenant template queries — so the service memoizes the two
expensive halves of :meth:`repro.core.context.RaSQLContext.sql`
separately:

- :class:`PlanCache` keeps the *analyzed script* (parse → two-step
  analysis → rule-based optimization), keyed on the whitespace-normalized
  statement text, the catalog's **schema epoch**
  (:attr:`repro.core.catalog.Catalog.version` — name resolution binds to
  it), and the config knobs that change planning (``magic_filters``).
  Row inserts leave plans valid.
- :class:`ResultCache` keeps the final SELECT's relation, keyed on the
  normalized text, the **data epochs of the tables the statement can
  read** (:meth:`repro.core.catalog.Catalog.epochs` of the registered
  names among its identifiers — a superset of what it reads, which is
  safe), and the full execution config.  Between mutations of those
  tables, repeated reads are served without touching the cluster; an
  insert into a table the statement does not mention leaves its entry
  reachable.

Both caches are bounded LRU (mutation-heavy workloads would otherwise
accumulate dead epochs) and count their traffic into the session
registry: ``plan_cache_hits`` / ``plan_cache_misses`` /
``result_cache_hits`` / ``result_cache_misses``.
"""

from __future__ import annotations

import re
from collections import OrderedDict

_WHITESPACE = re.compile(r"\s+")
_QUOTE = re.compile("['\"]")


def _segments(sql: str):
    """Split *sql* into ``(is_literal, text)`` segments.

    Literal segments are ``'...'`` strings and ``"..."`` quoted
    identifiers, with doubled quotes (``''``) as the escape, matching the
    parser's lexer.  An unterminated quote swallows the rest of the
    statement as a literal — the parser will reject it anyway, and the
    key must not mangle it into colliding with a valid statement.
    """
    i, start = 0, 0
    while True:
        found = _QUOTE.search(sql, i)
        if found is None:
            break
        i = found.start()
        quote = sql[i]
        if start < i:
            yield False, sql[start:i]
        end = i + 1
        while end < len(sql):
            if sql[end] == quote:
                if end + 1 < len(sql) and sql[end + 1] == quote:
                    end += 2  # doubled quote: escaped, still inside
                    continue
                end += 1
                break
            end += 1
        else:
            end = len(sql)
        yield True, sql[i:end]
        i = start = end
    if start < len(sql):
        yield False, sql[start:]


def normalize_sql(sql: str) -> str:
    """Whitespace-insensitive cache key for a statement.

    Collapses runs of whitespace and strips trailing semicolons —
    *outside string literals and quoted identifiers only*, so
    ``WHERE name = 'a  b'`` and ``WHERE name = 'a b'`` key differently
    and a trailing ``';'`` inside a literal survives.  Deliberately
    *not* case-folded: string literals are case-sensitive, and a
    lexer-level normalization is not worth the marginal extra hit rate.
    """
    parts = []
    for is_literal, text in _segments(sql):
        parts.append(text if is_literal else _WHITESPACE.sub(" ", text))
    # Strip trailing statement terminators (and the whitespace around
    # them), walking only over non-literal tail segments.
    while parts:
        tail = parts[-1]
        if tail.startswith(("'", '"')):
            break  # literal segment: its content is part of the key
        stripped = tail.rstrip("; \t\r\n")
        if stripped:
            parts[-1] = stripped
            break
        parts.pop()
    return "".join(parts).strip()


class _LRUCache:
    """Bounded OrderedDict-backed LRU with hit/miss counters."""

    def __init__(self, capacity: int, metrics=None, hit_counter: str = "",
                 miss_counter: str = ""):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics
        self.hit_counter = hit_counter
        self.miss_counter = miss_counter
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key):
        """Return ``(found, value)`` and count the hit or miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            if self.metrics is not None and self.hit_counter:
                self.metrics.inc(self.hit_counter)
            return True, self._entries[key]
        self.misses += 1
        if self.metrics is not None and self.miss_counter:
            self.metrics.inc(self.miss_counter)
        return False, None

    def key(self, sql: str, catalog, config) -> tuple:
        return self.normalized_key(normalize_sql(sql), catalog, config)

    def store(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def report(self) -> dict:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4)}


class PlanCache(_LRUCache):
    """Analyzed-script cache: survives row inserts, dies on schema change."""

    def __init__(self, capacity: int = 128, metrics=None):
        super().__init__(capacity, metrics, "plan_cache_hits",
                         "plan_cache_misses")

    def normalized_key(self, text: str, catalog, config) -> tuple:
        """:meth:`key` of a statement already through :func:`normalize_sql`
        (the service normalizes once per request)."""
        return (text, catalog.version, config.magic_filters)


class ResultCache(_LRUCache):
    """Final-relation cache: a mutation of a table the statement mentions
    invalidates via the key (the one validity rule of DESIGN.md §19: a
    result is valid while the epochs of the tables it read hold still).

    A statement reaches a table only by naming it, and the lexer has no
    quoted identifiers, so the registered names among the statement's
    words cover every table it reads.  The schema epoch stays in the key:
    a newly registered table may capture a name that resolved elsewhere.
    The config enters the key through its ``repr`` — the frozen dataclass
    renders every knob, and two configs answer identically exactly when
    all knobs match (codegen on/off etc. are bit-exact by contract, but
    e.g. ``max_iterations`` is not).  The ``repr`` of the config keyed
    last is kept, by identity: a frozen config renders the same every
    time.
    """

    def __init__(self, capacity: int = 256, metrics=None):
        super().__init__(capacity, metrics, "result_cache_hits",
                         "result_cache_misses")
        self._config_key: tuple = (None, repr(None))

    def normalized_key(self, text: str, catalog, config,
                       names: list[str] | None = None) -> tuple:
        """``names``: ``catalog.tables_named(text)`` when the caller has
        it already, under the catalog's current ``version``."""
        if names is None:
            names = catalog.tables_named(text)
        memo = self._config_key
        if memo[0] is not config:
            memo = self._config_key = (config, repr(config))
        return (text, catalog.version, catalog.epochs(names), memo[1])
