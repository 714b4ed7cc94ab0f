"""Unit tests for the multi-tenant query service.

Covers the serving contract piece by piece: results match the plain
``ctx.sql`` path, caches hit and invalidate on the catalog epochs,
governor tickets die on every completion path (success, analysis
errors, deadline aborts, admission rejections), per-session counters
accumulate, and served views answer concurrent readers from one
memoized snapshot.
"""

import pytest

from repro import ExecutionConfig, QueryGovernor, RaSQLContext
from repro.baselines import serial
from repro.errors import (
    AdmissionRejectedError,
    AnalysisError,
    ParseError,
    QueryDeadlineExceededError,
)
from repro.queries import get_query
from repro.serving import QueryService, normalize_sql
from repro.serving.cache import _LRUCache

pytestmark = pytest.mark.serving

EDGES = [(1, 2, 4.0), (2, 3, 2.0), (1, 3, 9.0), (3, 4, 1.0)]
SSSP = get_query("sssp").formatted(source=1)
TC = get_query("tc").sql


def make_service(**kwargs):
    ctx = RaSQLContext(num_workers=2)
    ctx.register_table("edge", ["Src", "Dst", "Cost"], list(EDGES))
    return QueryService(ctx, **kwargs)


class TestSubmitAndResults:
    def test_sql_matches_direct_context_execution(self):
        service = make_service()
        future = service.session("alice").sql(SSSP)
        assert not future.done
        service.drain()

        reference = RaSQLContext(num_workers=2)
        reference.register_table("edge", ["Src", "Dst", "Cost"], list(EDGES))
        assert (sorted(future.result().rows)
                == sorted(reference.sql(SSSP).rows))

    def test_pending_future_refuses_result(self):
        service = make_service()
        future = service.session("alice").sql(SSSP)
        with pytest.raises(RuntimeError, match="pending"):
            future.result()
        service.drain()
        future.result()

    def test_insert_applies_to_catalog(self):
        service = make_service()
        future = service.session("alice").insert("edge", [(4, 5, 2.0)])
        service.drain()
        assert future.result() == 1
        assert (4, 5, 2.0) in service.ctx.catalog.get("edge").rows

    def test_drain_returns_futures_in_finish_order(self):
        service = make_service(scheduler="fifo")
        session = service.session("alice")
        futures = [session.sql(SSSP), session.sql(TC)]
        finished = service.drain()
        assert finished == futures
        assert service.execution_order == [f.request_id for f in futures]


class TestCaches:
    """Cache behavior is order-sensitive, so these pin the FIFO driver."""

    def test_result_cache_serves_repeated_statement(self):
        service = make_service(scheduler="fifo")
        session = service.session("alice")
        first, second = session.sql(SSSP), session.sql(SSSP)
        service.drain()
        assert first.source == "executed"
        assert second.source == "result_cache"
        # Snapshot consistency: cached readers share the relation.
        assert second.result() is first.result()
        assert session.counters.get("result_cache_hits") == 1

    def test_whitespace_insensitive_cache_key(self):
        service = make_service(scheduler="fifo")
        session = service.session("alice")
        reformatted = "\n  ".join(SSSP.split())
        assert normalize_sql(reformatted) == normalize_sql(SSSP)
        futures = [session.sql(SSSP), session.sql(reformatted)]
        service.drain()
        assert futures[1].source == "result_cache"

    def test_insert_invalidates_result_cache_not_plan_cache(self):
        service = make_service(scheduler="fifo")
        session = service.session("alice")
        session.sql(SSSP)
        session.insert("edge", [(4, 9, 1.0)])
        after = session.sql(SSSP)
        service.drain()
        # Data epoch moved: re-executed, and the answer sees the new edge.
        assert after.source == "executed"
        expected = serial.sssp(EDGES + [(4, 9, 1.0)], 1)
        assert after.result().to_dict() == expected
        # Schema epoch did not move: the plan was reused.
        assert service.plan_cache.hits == 1

    def test_insert_between_requests_rebuilds_the_base_sides(self):
        """The base-side cache sits under the result cache: statements
        that differ only in a constant share one build, and an insert
        *appends* to it — nothing is rebuilt — so the next request sees
        the new rows.  (The id predates the append; the counts are the
        contract.)"""
        reach = get_query("reach")
        service = make_service(scheduler="fifo")
        session = service.session("alice")
        metrics = service.ctx.metrics

        def counts():
            return tuple(metrics.get("base_side_cache_" + name) for name in
                         ("hits", "appended", "misses", "bypassed"))

        first = session.sql(reach.formatted(source=1))
        other = session.sql(reach.formatted(source=2))
        service.drain()
        assert other.source == "executed"
        assert counts() == (1, 0, 1, 0)
        session.insert("edge", [(4, 9, 1.0), (9, 1, 1.0), (4, 9, 1.0)])
        second = session.sql(reach.formatted(source=1))
        service.drain()
        assert second.source == "executed"
        assert counts() == (1, 1, 1, 0)
        assert "1 appended, 0 built" in service.ctx.last_run.explain_analyze()
        fresh = RaSQLContext(num_workers=2)
        fresh.register_table("edge", ["Src", "Dst", "Cost"],
                             EDGES + [(4, 9, 1.0), (9, 1, 1.0)])
        expected = fresh.sql(reach.formatted(source=1))
        assert sorted(second.result().rows) == sorted(expected.rows)
        assert (9,) in second.result().rows
        assert (9,) not in first.result().rows
        third = session.sql(reach.formatted(source=2))
        service.drain()
        assert third.source == "executed" and counts() == (2, 1, 1, 0)

    def test_insert_into_an_unrelated_table_keeps_the_cached_result(self):
        """The result key holds the epochs of the tables the statement
        names: another table's insert leaves the entry reachable, the
        statement's own table's insert does not."""
        service = make_service(scheduler="fifo")
        service.ctx.register_table("audit", ["Who", "What"], [("a", "b")])
        session = service.session("alice")
        first = session.sql(SSSP)
        log = session.sql("SELECT count(*) FROM audit")
        service.drain()
        session.insert("audit", [("c", "d")])
        again = session.sql(SSSP)
        log_again = session.sql("SELECT count(*) FROM audit")
        service.drain()
        assert again.source == "result_cache"
        assert again.result() is first.result()
        assert log_again.source == "executed"
        assert (log.result().rows, log_again.result().rows) \
            == ([(1,)], [(2,)])
        session.insert("edge", [(4, 9, 1.0)])
        after = session.sql(SSSP)
        log_after = session.sql("select count(*) from AUDIT")
        service.drain()
        assert after.source == "executed"
        assert log_after.source == "executed"  # another text, same epochs
        assert session.sql("SELECT count(*) FROM audit") is not None
        service.drain()
        assert service.result_cache.hits == 2

    def test_schema_change_invalidates_plan_cache(self):
        service = make_service()
        session = service.session("alice")
        session.sql(SSSP)
        service.drain()
        service.ctx.register_table("edge", ["Src", "Dst", "Cost"],
                                   list(EDGES))
        retry = session.sql(SSSP)
        service.drain()
        assert retry.source == "executed"
        assert service.plan_cache.hits == 0
        assert service.plan_cache.misses == 2

    def test_lru_bounds_and_counters(self):
        cache = _LRUCache(capacity=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.store("c", 3)  # evicts "a"
        assert cache.lookup("a") == (False, None)
        assert cache.lookup("c") == (True, 3)
        assert cache.report() == {"entries": 2, "hits": 1, "misses": 1,
                                  "evictions": 1, "hit_rate": 0.5}


class TestTicketLifecycle:
    def governor_is_idle(self, service):
        report = service.ctx.governor.report()
        return report["active"] == 0 and report["waiting"] == 0

    def test_tickets_released_after_drain(self):
        service = make_service()
        session = service.session("alice")
        for _ in range(3):
            session.sql(SSSP)
        assert service.ctx.governor.report()["active"] > 0
        service.drain()
        assert self.governor_is_idle(service)

    def test_analysis_error_releases_ticket(self):
        service = make_service()
        future = service.session("alice").sql("SELECT X FROM nope")
        service.drain()
        assert isinstance(future.error, AnalysisError)
        with pytest.raises(AnalysisError):
            future.result()
        assert self.governor_is_idle(service)

    def test_parse_error_releases_ticket(self):
        service = make_service()
        future = service.session("alice").sql("WITH recursive (((")
        service.drain()
        assert isinstance(future.error, ParseError)
        assert self.governor_is_idle(service)

    def test_deadline_abort_releases_ticket(self):
        service = make_service()
        strict = ExecutionConfig(deadline_seconds=1e-9)
        future = service.session("alice").sql(TC, config=strict)
        ok = service.session("alice").sql(SSSP)
        service.drain()
        assert isinstance(future.error, QueryDeadlineExceededError)
        assert ok.ok
        assert self.governor_is_idle(service)

    def test_admission_rejection_fails_future_without_leaking(self):
        ctx = RaSQLContext(
            num_workers=2,
            governor=QueryGovernor(max_concurrent=1, max_queue=1))
        ctx.register_table("edge", ["Src", "Dst", "Cost"], list(EDGES))
        service = QueryService(ctx)
        session = service.session("alice")
        admitted = session.sql(SSSP)   # takes the slot
        queued = session.sql(SSSP)     # fills the queue
        rejected = session.sql(SSSP)   # beyond capacity
        # The rejection resolves at submit time, error attached.
        assert rejected.done and isinstance(rejected.error,
                                            AdmissionRejectedError)
        assert rejected.source == "rejected"
        service.drain()
        assert admitted.ok and queued.ok
        assert queued.queued
        assert self.governor_is_idle(service)
        assert session.counters.get("rejected") == 1

    def test_queued_requests_wait_for_promotion(self):
        ctx = RaSQLContext(
            num_workers=2,
            governor=QueryGovernor(max_concurrent=1, max_queue=4))
        ctx.register_table("edge", ["Src", "Dst", "Cost"], list(EDGES))
        service = QueryService(ctx, scheduler="seeded", seed=3)
        session = service.session("alice")
        futures = [session.sql(SSSP) for _ in range(4)]
        service.drain()
        # One slot: the seeded scheduler had no freedom, FIFO order holds.
        assert service.execution_order == [f.request_id for f in futures]
        assert all(f.ok for f in futures)


class TestSessions:
    def test_per_session_counters(self):
        service = make_service()
        alice, bob = service.session("alice"), service.session("bob")
        alice.sql(SSSP)
        alice.sql(SSSP)
        bob.sql(TC)
        service.drain()
        assert alice.report()["submitted"] == 2
        assert alice.report()["completed"] == 2
        assert alice.report()["sql_queries"] == 2
        assert alice.report()["result_cache_hits"] == 1
        assert bob.report()["submitted"] == 1
        assert alice.report()["latency_s"] > 0
        # Scoped counters live in the shared registry under the prefix.
        assert service.ctx.metrics.get("session.bob.submitted") == 1

    def test_session_identity_is_stable(self):
        service = make_service()
        assert service.session("alice") is service.session("alice")

    def test_explain_analyze_reports_admission_and_session(self):
        service = make_service()
        service.session("alice").sql(SSSP)
        service.drain()
        report = service.ctx.last_run.explain_analyze()
        assert "admission: immediate" in report
        assert "session: alice" in report


class TestServedViews:
    def make_served(self, **kwargs):
        service = make_service(**kwargs)
        service.create_view("dist", SSSP)
        return service

    def test_concurrent_readers_share_one_snapshot(self):
        service = self.make_served()
        futures = [service.session(f"c{i}").read_view("dist")
                   for i in range(4)]
        service.drain()
        relations = [f.result() for f in futures]
        assert all(r is relations[0] for r in relations)
        # First read evaluated; the rest were snapshot hits.
        assert [f.source for f in futures].count("view_snapshot") == 3
        assert service.view("dist").snapshot_hits == 3

    def test_insert_through_service_maintains_view(self):
        service = self.make_served(scheduler="fifo")
        before = service.session("w").read_view("dist")
        service.session("w").insert("edge", [(4, 5, 1.0)])
        after = service.session("w").read_view("dist")
        service.drain()
        assert before.result().to_dict() == serial.sssp(EDGES, 1)
        assert after.result().to_dict() == serial.sssp(
            EDGES + [(4, 5, 1.0)], 1)
        assert after.result() is not before.result()
        assert service.report()["views"]["dist"]["repairs"] == 1

    def test_duplicate_insert_keeps_view_adhoc_sql_and_fresh_context_equal(
            self):
        """Re-inserting a present edge is not a new fact: the served sum
        view, the service's own ad-hoc SQL and a fresh context over the
        concatenated table all count paths the same."""
        query = get_query("count_paths").formatted(source=1)
        service = make_service(scheduler="fifo")
        service.create_view("paths", query)
        writer = service.session("w")
        writer.insert("edge", [(3, 4, 1.0)])              # already present
        writer.insert("edge", [(4, 5, 1.0), (4, 5, 1.0)])  # repeated in-batch
        read, adhoc = writer.read_view("paths"), writer.sql(query)
        service.drain()
        fresh = RaSQLContext(num_workers=2)
        fresh.register_table(
            "edge", ["Src", "Dst", "Cost"],
            EDGES + [(3, 4, 1.0), (4, 5, 1.0), (4, 5, 1.0)])
        assert (read.result().to_dict() == adhoc.result().to_dict()
                == fresh.sql(query).to_dict())
        assert read.result().to_dict()[5] == 2  # 1-2-3-4-5 and 1-3-4-5

    def test_an_insert_is_one_catalog_append_and_views_catch_up_on_read(
            self):
        """No fan-out: an insert request touches no served view; each view
        absorbs what was appended — any number of inserts — at its next
        read, exactly as a fresh context over the grown table answers."""
        service = self.make_served(scheduler="fifo")
        service.create_view("paths", get_query("count_paths").formatted(
            source=1))
        writer = service.session("w")
        batches = [[(4, 5, 1.0)], [(5, 6, 1.0), (3, 5, 1.0)], [(4, 5, 1.0)]]
        for batch in batches:
            writer.insert("edge", batch)
        service.drain()
        views = [service.view(name).view for name in ("dist", "paths")]
        assert [view.repairs for view in views] == [0, 0]
        reads = [writer.read_view(name) for name in ("dist", "paths")]
        service.drain()
        fresh = RaSQLContext(num_workers=2)
        fresh.register_table("edge", ["Src", "Dst", "Cost"],
                             EDGES + [row for batch in batches
                                      for row in batch])
        assert reads[0].result().to_dict() == serial.sssp(
            fresh.catalog.get("edge").rows, 1)
        assert reads[1].result().to_dict() == fresh.sql(
            get_query("count_paths").formatted(source=1)).to_dict()
        assert [view.repairs for view in views] == [1, 1]

    def test_unknown_view_rejected_at_submit(self):
        service = self.make_served()
        with pytest.raises(AnalysisError, match="no served view"):
            service.session("alice").read_view("nope")

    def test_duplicate_view_name_rejected(self):
        service = self.make_served()
        with pytest.raises(AnalysisError, match="already served"):
            service.create_view("dist", SSSP)

    def test_view_report(self):
        service = self.make_served()
        service.session("a").read_view("dist")
        service.session("b").read_view("dist")
        service.drain()
        report = service.report()
        assert report["views"]["dist"]["reads"] == 2
        assert report["views"]["dist"]["snapshot_hits"] == 1
        assert report["views"]["dist"]["tables"] == ["edge"]


class TestValidation:
    def test_bad_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            make_service(scheduler="preemptive")

    def test_catalog_append_rows_validates_schema(self):
        service = make_service()
        future = service.session("a").insert("edge", [(1, 2)])
        service.drain()
        assert isinstance(future.error, AnalysisError)
        report = service.ctx.governor.report()
        assert report["active"] == 0 and report["waiting"] == 0
