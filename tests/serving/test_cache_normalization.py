"""Regression tests: ``normalize_sql`` must be quote-aware.

The original implementation collapsed whitespace with ``sql.split()``
and chopped terminators with ``rstrip(";")`` — both blind to string
literals, so ``WHERE name = 'a  b'`` and ``WHERE name = 'a b'`` keyed
identically (the caches served the wrong cached answer) and a trailing
``';'`` *inside* a literal was eaten.  Each collision is pinned here,
first at the key level, then end-to-end through the service's result
cache; these tests fail on the old implementation.
"""

import pytest

from repro import RaSQLContext
from repro.serving import QueryService, normalize_sql
from repro.serving.cache import PlanCache, ResultCache

pytestmark = pytest.mark.serving


class TestLiteralPreservation:
    def test_whitespace_inside_string_literal_is_significant(self):
        # The original bug: both collapsed to "... = 'a b'".
        assert (normalize_sql("SELECT * FROM t WHERE name = 'a  b'")
                != normalize_sql("SELECT * FROM t WHERE name = 'a b'"))

    def test_newlines_inside_string_literal_are_significant(self):
        assert (normalize_sql("SELECT 'line1\nline2'")
                != normalize_sql("SELECT 'line1 line2'"))

    def test_trailing_semicolon_inside_literal_survives(self):
        # The original bug: rstrip(";") turned 'x;' into 'x'.
        assert normalize_sql("SELECT 'x;'") == "SELECT 'x;'"
        assert (normalize_sql("SELECT 'x;'")
                != normalize_sql("SELECT 'x'"))

    def test_statement_terminator_after_literal_still_stripped(self):
        assert normalize_sql("SELECT 'x;';") == "SELECT 'x;'"
        assert normalize_sql("SELECT 'x' ;  ; ") == "SELECT 'x'"

    def test_doubled_quote_escape_stays_inside_literal(self):
        # 'it''s  ok' is ONE literal; the doubled quote must not end it
        # early and expose the inner whitespace to collapsing.
        assert (normalize_sql("SELECT 'it''s  ok'")
                == "SELECT 'it''s  ok'")
        assert (normalize_sql("SELECT 'a''b'")
                != normalize_sql("SELECT 'a' 'b'"))

    def test_quoted_identifier_whitespace_is_significant(self):
        assert (normalize_sql('SELECT "my  col" FROM t')
                != normalize_sql('SELECT "my col" FROM t'))

    def test_unterminated_literal_keys_stably(self):
        # The parser will reject it; normalization must neither crash
        # nor collide it with the terminated spelling.
        assert (normalize_sql("SELECT 'oops")
                != normalize_sql("SELECT 'oops'"))
        assert normalize_sql("SELECT 'a;  b") == "SELECT 'a;  b"


class TestNormalizationStillNormalizes:
    """The fix must not lose the hit rate the cache exists for."""

    def test_reformatting_outside_literals_hits_same_key(self):
        compact = "SELECT a, b FROM t WHERE a = 'x  y' AND b = 1"
        reformatted = ("SELECT   a,\n\t b\nFROM t\n"
                       "  WHERE a = 'x  y'\n    AND b = 1\n;")
        assert normalize_sql(compact) == normalize_sql(reformatted)

    def test_trailing_terminators_and_whitespace_stripped(self):
        assert normalize_sql("  SELECT 1 ;; ;\n") == "SELECT 1"
        assert normalize_sql("SELECT 1") == normalize_sql("SELECT 1;")

    def test_interior_statement_separator_is_kept(self):
        script = "CREATE VIEW v(X) AS (SELECT 1); SELECT X FROM v"
        assert ";" in normalize_sql(script)


class TestCacheKeys:
    def test_plan_and_result_keys_differ_across_literal_collision(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("t", ["Name"], [("a  b",), ("a b",)])
        catalog, config = ctx.catalog, ctx.config
        wide = "SELECT Name FROM t WHERE Name = 'a  b'"
        narrow = "SELECT Name FROM t WHERE Name = 'a b'"
        assert (PlanCache().key(wide, catalog, config)
                != PlanCache().key(narrow, catalog, config))
        assert (ResultCache().key(wide, catalog, config)
                != ResultCache().key(narrow, catalog, config))


    def test_a_request_normalizes_its_statement_once(self, monkeypatch):
        from repro.serving import cache, service as service_module

        calls = []

        def counting(sql):
            calls.append(sql)
            return normalize_sql(sql)

        monkeypatch.setattr(cache, "normalize_sql", counting)
        monkeypatch.setattr(service_module, "normalize_sql", counting)
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("t", ["Name"], [("a",), ("b",)])
        service = QueryService(ctx, scheduler="fifo")
        session = service.session("alice")
        statement = "SELECT  Name FROM t ;"
        first, second = session.sql(statement), session.sql(statement)
        service.drain()
        assert (first.source, second.source) == ("executed", "result_cache")
        # One scan per request — breaker shape, result key and plan key
        # share it — and the keys are the ones ``key(sql, ...)`` builds.
        assert calls == [statement, statement]
        assert (service.result_cache.key(statement, ctx.catalog, ctx.config)
                in service.result_cache._entries)
        assert (service.plan_cache.key(statement, ctx.catalog, ctx.config)
                in service.plan_cache._entries)


    def test_a_request_scans_its_statement_for_tables_once(
            self, monkeypatch):
        from repro.core.catalog import Catalog

        calls = []
        tables_named = Catalog.tables_named

        def counting(self, text):
            calls.append(text)
            return tables_named(self, text)

        monkeypatch.setattr(Catalog, "tables_named", counting)
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("t", ["Name"], [("a",), ("b",)])
        service = QueryService(ctx, scheduler="fifo")
        session = service.session("alice")
        statement = "SELECT  Name FROM t ;"
        first, second = session.sql(statement), session.sql(statement)
        service.drain()
        assert (first.source, second.source) == ("executed", "result_cache")
        # Admission's estimate and the result key share one scan.
        assert calls == [statement, statement]
        assert (service.result_cache.key(statement, ctx.catalog, ctx.config)
                in service.result_cache._entries)

    def test_a_table_registered_while_queued_enters_the_key(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("t", ["Name"], [("people",), ("b",)])
        service = QueryService(ctx, scheduler="fifo")
        session = service.session("alice")
        statement = "SELECT Name FROM t WHERE Name = 'people'"
        future = session.sql(statement)
        ctx.register_table("people", ["Name"], [("x",)])
        service.drain()
        assert future.result().rows == [("people",)]
        key, = service.result_cache._entries
        assert key == service.result_cache.key(statement, ctx.catalog,
                                               ctx.config)
        assert [name for name, *_ in key[2]] == ["people", "t"]

    def test_the_config_enters_the_key_as_its_own_repr(self):
        from repro import ExecutionConfig

        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("t", ["Name"], [("a",)])
        cache = ResultCache()
        whole, fraction = (ExecutionConfig(deadline_seconds=1),
                           ExecutionConfig(deadline_seconds=1.0))
        assert whole == fraction and repr(whole) != repr(fraction)
        for config in (whole, fraction, whole, ctx.config, ctx.config):
            key = cache.key("SELECT Name FROM t", ctx.catalog, config)
            assert key[-1] == repr(config)


class TestEndToEnd:
    """The user-visible symptom: the service served the wrong rows."""

    def test_result_cache_does_not_cross_serve_literal_variants(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("people", ["Name"], [("a  b",), ("a b",)])
        service = QueryService(ctx, scheduler="fifo")
        session = service.session("alice")
        wide = session.sql("SELECT Name FROM people WHERE Name = 'a  b'")
        narrow = session.sql("SELECT Name FROM people WHERE Name = 'a b'")
        service.drain()
        assert narrow.source == "executed"  # old code: "result_cache"
        assert wide.result().rows == [("a  b",)]
        assert narrow.result().rows == [("a b",)]

    def test_result_cache_does_not_cross_serve_trailing_literal(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("people", ["Name"], [("x;",), ("x",)])
        service = QueryService(ctx, scheduler="fifo")
        session = service.session("alice")
        semi = session.sql("SELECT Name FROM people WHERE Name = 'x;'")
        bare = session.sql("SELECT Name FROM people WHERE Name = 'x'")
        service.drain()
        assert bare.source == "executed"
        assert semi.result().rows == [("x;",)]
        assert bare.result().rows == [("x",)]
