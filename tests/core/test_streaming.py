"""Tests for incremental view maintenance under insertions."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, RaSQLContext
from repro.baselines import serial
from repro.core.streaming import IncrementalView
from repro.errors import AnalysisError, PlanningError
from repro.queries import get_query


def make_view(query, tables, config=None):
    ctx = RaSQLContext(num_workers=2, config=config)
    for name, (columns, rows) in tables.items():
        ctx.register_table(name, columns, rows)
    return IncrementalView(ctx, query)


class TestSSSPIncremental:
    EDGES = [(1, 2, 4.0), (2, 3, 2.0), (1, 3, 9.0)]

    def view(self):
        return make_view(get_query("sssp").formatted(source=1),
                         {"edge": (["Src", "Dst", "Cost"], list(self.EDGES))})

    def test_initial_state_matches_batch(self):
        view = self.view()
        assert view.result().to_dict() == serial.sssp(self.EDGES, 1)

    def test_insert_improves_distances(self):
        view = self.view()
        iterations = view.insert("edge", [(1, 3, 1.0), (3, 4, 1.0)])
        assert iterations > 0
        expected = serial.sssp(self.EDGES + [(1, 3, 1.0), (3, 4, 1.0)], 1)
        assert view.result().to_dict() == expected

    def test_disconnected_insert_is_noop(self):
        view = self.view()
        before = view.result().to_dict()
        assert view.insert("edge", [(50, 51, 1.0)]) == 0
        assert view.result().to_dict() == before

    def test_empty_insert(self):
        view = self.view()
        assert view.insert("edge", []) == 0

    def test_repeated_inserts_accumulate(self):
        view = self.view()
        edges = list(self.EDGES)
        for batch in ([(3, 4, 1.0)], [(4, 5, 1.0)], [(5, 3, 0.5)]):
            view.insert("edge", batch)
            edges += batch
            assert view.result().to_dict() == serial.sssp(edges, 1)

    def test_schema_validated(self):
        view = self.view()
        with pytest.raises(AnalysisError, match="schema"):
            view.insert("edge", [(1, 2)])

    def test_unknown_table_rejected(self):
        view = self.view()
        with pytest.raises(AnalysisError, match="not read"):
            view.insert("nodes", [(1,)])


class TestOtherSemantics:
    def test_count_paths_sum_increments(self):
        dag = [(1, 2), (2, 4)]
        view = make_view(get_query("count_paths").formatted(source=1),
                         {"edge": (["Src", "Dst"], list(dag))})
        view.insert("edge", [(1, 3), (3, 4)])
        expected = serial.count_paths(dag + [(1, 3), (3, 4)], 1)
        assert view.result().to_dict() == {k: v for k, v in expected.items()
                                           if v}

    def test_reinserted_fact_does_not_inflate_count_paths(self):
        """A fact is a fact once: re-inserting a present edge — or
        repeating one inside a batch — leaves a sum head where a fresh
        context over the concatenated table puts it."""
        query = get_query("count_paths").formatted(source=0)
        dag = [(0, 1), (1, 2), (0, 2), (2, 3)]
        view = make_view(query, {"edge": (["Src", "Dst"], list(dag))})
        view.insert("edge", [(2, 3)])
        assert view.result().to_dict()[3] == 2  # not 4
        view.insert("edge", [(3, 4), (3, 4), (0, 1)])
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst"],
                           dag + [(2, 3), (3, 4), (3, 4), (0, 1)])
        assert view.result().to_dict() == ctx.sql(query).to_dict()
        # The session's table keeps every submitted row (bag semantics
        # for a final stratum that scans it).
        assert len(view.ctx.catalog.get("edge").rows) == len(dag) + 4

    def test_tc_set_semantics(self):
        view = make_view(get_query("tc").sql,
                         {"edge": (["Src", "Dst"], [(1, 2)])})
        view.insert("edge", [(2, 3), (3, 4)])
        assert set(view.result().rows) == serial.transitive_closure(
            [(1, 2), (2, 3), (3, 4)])

    def test_company_control_threshold_crossing(self):
        # The insert pushes a's holdings of c over 50, creating new
        # control and new inherited shares — the mutual-recursion path.
        shares = [("a", "b", 60), ("b", "c", 30)]
        view = make_view(get_query("company_control").sql,
                         {"shares": (["By", "Of", "Percent"], list(shares))})
        view.insert("shares", [("a", "c", 30), ("c", "d", 51)])
        expected = serial.company_control(
            shares + [("a", "c", 30), ("c", "d", 51)])
        got = {(a, b): t for a, b, t in view.result().rows}
        assert set(got) == set(expected)
        for pair in expected:
            assert got[pair] == pytest.approx(expected[pair])

    def test_bom_max_updates(self):
        view = make_view(get_query("bom").sql, {
            "assbl": (["Part", "SPart"], [("car", "wheel")]),
            "basic": (["Part", "Days"], [("wheel", 2)])})
        view.insert("assbl", [("car", "engine"), ("engine", "piston")])
        view.insert("basic", [("piston", 9)])
        assert view.result().to_dict()["car"] == 9

    def test_same_generation_self_join_inserts(self):
        # SG's base rule self-joins rel: the delta x delta pair (new
        # siblings) must be derived, which requires updating the cached
        # join sides before evaluating maintenance terms.
        view = make_view(get_query("same_generation").sql,
                         {"rel": (["Parent", "Child"], [(1, 2)])})
        view.insert("rel", [(1, 3)])
        assert {(2, 3), (3, 2)} <= set(view.result().rows)


class TestTheSessionsTables:
    """A view reads the session's own tables: one insert path, and the
    view catches up with whatever moved at its next read."""

    EDGES = [(1, 2, 4.0), (2, 3, 2.0), (1, 3, 9.0)]
    SSSP = get_query("sssp").formatted(source=1)

    def test_a_catalog_append_reaches_the_view_at_its_next_read(self):
        view = make_view(self.SSSP,
                         {"edge": (["Src", "Dst", "Cost"], list(self.EDGES))})
        view.ctx.catalog.append_rows("edge", [(3, 4, 1.0)])
        assert view.repairs == 0  # nothing happens at append time
        assert view.result().to_dict() == serial.sssp(
            self.EDGES + [(3, 4, 1.0)], 1)
        assert view.repairs == 1 and view.repair_iterations > 0

    @pytest.mark.parametrize("how", ["register", "note_mutation"])
    def test_a_replaced_or_mutated_table_rematerializes(self, how):
        view = make_view(self.SSSP,
                         {"edge": (["Src", "Dst", "Cost"], list(self.EDGES))})
        ctx = view.ctx
        first = view.result()
        changed = [(1, 2, 1.0), (2, 4, 1.0)]
        if how == "register":
            ctx.register_table("edge", ["Src", "Dst", "Cost"], changed)
        else:  # rows changed in place, and the catalog told so
            ctx.catalog.get("edge").rows[:] = changed
            ctx.catalog.note_mutation("edge")
        assert view.result().to_dict() == serial.sssp(changed, 1)
        assert view.result() is not first
        assert ctx.metrics.get("view_rematerialized") == 1
        # ... and it is maintained again from there.
        view.insert("edge", [(4, 5, 1.0)])
        assert view.result().to_dict() == serial.sssp(
            changed + [(4, 5, 1.0)], 1)
        assert ctx.metrics.get("view_rematerialized") == 1

    def test_a_table_only_the_final_select_scans_drops_the_memo(self):
        query = """
        WITH recursive reach(Dst) AS
          (SELECT 1) UNION
          (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src)
        SELECT reach.Dst, label.Name FROM reach, label
        WHERE reach.Dst = label.Node
        """
        view = make_view(query, {"edge": (["Src", "Dst"], [(1, 2)]),
                                 "label": (["Node", "Name"], [(1, "a")])})
        assert view.result().rows == [(1, "a")]
        view.ctx.catalog.append_rows("label", [(2, "b")])
        assert sorted(view.result().rows) == [(1, "a"), (2, "b")]
        assert view.repair_iterations == 0  # the recursion never moved

    def test_two_grown_tables_under_a_count_head_rematerialize(self):
        """Both tables absorbed by another query before the view reads:
        maintaining them one at a time would count a friend who is new
        *and* newly attending twice; the view re-materializes."""
        # party_attendance, with the tables renamed so the organizers'
        # (``host``) would be caught up with first.
        query = (get_query("party_attendance").sql
                 .replace("OrgName FROM organizer", "Name FROM host")
                 .replace("friend", "pal"))
        view = make_view(query, {
            "host": (["Name"], [("a",)]),
            "pal": (["Pname", "Fname"], [("a", "x"), ("b", "x"), ("c", "x")])})
        ctx = view.ctx
        ctx.catalog.append_rows("host", [("b",), ("c",)])
        ctx.catalog.append_rows("pal", [("b", "z"), ("c", "z")])
        ctx.sql(query)  # absorbs both into the shared sides
        fresh = RaSQLContext(num_workers=2)
        fresh.register_table("host", ["Name"], [("a",), ("b",), ("c",)])
        fresh.register_table("pal", ["Pname", "Fname"],
                             [("a", "x"), ("b", "x"), ("c", "x"),
                              ("b", "z"), ("c", "z")])
        assert sorted(view.result().rows) == sorted(fresh.sql(query).rows)
        assert ("z",) not in view.result().rows  # two friends, not four
        assert ctx.metrics.get("view_rematerialized") == 1

    def test_two_grown_tables_under_a_max_head_are_maintained(self):
        query = get_query("bom").sql
        view = make_view(query, {
            "assbl": (["Part", "SPart"], [("car", "wheel")]),
            "basic": (["Part", "Days"], [("wheel", 2)])})
        ctx = view.ctx
        ctx.catalog.append_rows("assbl", [("car", "engine")])
        ctx.catalog.append_rows("basic", [("engine", 9)])
        ctx.sql(query)
        assert view.result().to_dict() == {"car": 9, "wheel": 2, "engine": 9}
        assert ctx.metrics.get("view_rematerialized") == 0
        assert view.repairs == 1


class TestResultMemoization:
    """result() runs the final SELECT once per view state, not per call."""

    def view(self):
        return make_view(get_query("sssp").formatted(source=1),
                         {"edge": (["Src", "Dst", "Cost"],
                                   [(1, 2, 4.0), (2, 3, 2.0)])})

    def test_repeated_reads_do_no_executor_work(self):
        view = self.view()
        first = view.result()
        second = view.result()
        assert view.result_evaluations == 1
        # Same snapshot object: concurrent readers between inserts all
        # observe one consistent relation.
        assert second is first

    def test_insert_invalidates_the_snapshot(self):
        view = self.view()
        view.result()
        view.insert("edge", [(1, 3, 1.0)])
        updated = view.result()
        assert view.result_evaluations == 2
        assert updated.to_dict() == serial.sssp(
            [(1, 2, 4.0), (2, 3, 2.0), (1, 3, 1.0)], 1)

    def test_noop_repair_still_invalidates(self):
        # The repair derives nothing (disconnected edge, 0 iterations)
        # but the base table changed, so the memo must still drop: the
        # final stratum could in principle scan the base table directly.
        view = self.view()
        view.result()
        assert view.insert("edge", [(50, 51, 1.0)]) == 0
        view.result()
        assert view.result_evaluations == 2

    def test_rejected_insert_keeps_the_snapshot(self):
        view = self.view()
        first = view.result()
        with pytest.raises(AnalysisError):
            view.insert("edge", [(1, 2)])  # schema mismatch
        with pytest.raises(AnalysisError):
            view.insert("nodes", [(1,)])   # not read by the view
        assert view.insert("edge", []) == 0
        assert view.result() is first
        assert view.result_evaluations == 1


class TestRestrictions:
    def test_requires_single_clique(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("inter", ["S", "E"], [(1, 2)])
        with pytest.raises(AnalysisError, match="one recursive clique"):
            IncrementalView(ctx, get_query("interval_coalesce").sql)

    def test_requires_shuffle_hash(self):
        ctx = RaSQLContext(num_workers=2,
                           config=ExecutionConfig(join_strategy="sort_merge"))
        ctx.register_table("edge", ["Src", "Dst"], [(1, 2)])
        with pytest.raises(PlanningError, match="shuffle_hash"):
            IncrementalView(ctx, get_query("tc").sql)

    def test_view_relation_accessor(self):
        view = make_view(get_query("tc").sql,
                         {"edge": (["Src", "Dst"], [(1, 2)])})
        assert view.view_relation("tc").rows == [(1, 2)]
        with pytest.raises(KeyError):
            view.view_relation("nope")


class TestPlansWhatRuns:
    FILTERED = """
    WITH recursive r(X, Y) AS
      (SELECT Src, Dst FROM edge) UNION
      (SELECT r.X, e.Dst FROM r, edge e WHERE r.Y = e.Src AND e.Dst > 3)
    SELECT X, Y FROM r
    """
    EDGES = [(1, 2), (2, 5), (5, 6)]
    #: Two batches; (6, 2) and (7, 3) are rejected by the scan filter as
    #: recursive-rule inputs but still enter through the base rule.
    INSERTS = [[(6, 7), (6, 2)], [(7, 3), (7, 9), (0, 1)]]

    def test_filtered_non_first_scan_maintenance_term_is_fused(self):
        """The term driven by ``edge e`` (input 1, carrying the pushed-down
        ``e.Dst > 3``) compiles its prefilter from the driving scan, not
        from whatever input comes first."""
        view = make_view(self.FILTERED,
                         {"edge": (["Src", "Dst"], list(self.EDGES))})
        driven_by_e = [t for t in view.planned.maintenance_terms["edge"]
                       if t.delta_prefilter is not None]
        assert len(driven_by_e) == 1
        (term,) = driven_by_e
        assert term.delta_offset == 2 and term.delta_arity == 2
        assert term.prefilter_expr.to_sql() == "(e.Dst > 3)"
        assert term.codegen_fn is not None
        assert "if not (d[1] > 3):" in term.codegen_fn._generated_source

    def test_filtered_maintenance_codegen_on_off_and_batch_agree(self):
        views = {
            codegen: make_view(self.FILTERED,
                               {"edge": (["Src", "Dst"], list(self.EDGES))},
                               config=ExecutionConfig(codegen=codegen))
            for codegen in (True, False)}
        edges = list(self.EDGES)
        for batch in self.INSERTS:
            edges += batch
            iterations = {codegen: view.insert("edge", batch)
                          for codegen, view in views.items()}
            assert iterations[True] == iterations[False]
            ctx = RaSQLContext(num_workers=2)
            ctx.register_table("edge", ["Src", "Dst"], edges)
            scratch = sorted(ctx.sql(self.FILTERED).rows)
            assert sorted(views[True].result().rows) == scratch
            assert sorted(views[False].result().rows) == scratch
        # The filter really bit: 2 is reachable from 6 only via a
        # rejected recursive-rule edge, so (1, 2) exists but (5, 2) not.
        assert (6, 2) in scratch and (5, 2) not in scratch

    def test_magic_filters_off_is_honoured(self):
        """The view analyzes through ``ctx.analyze_query`` — under the
        view's config, not the optimizer's defaults."""
        query = get_query("tc").sql.rstrip() + " WHERE Src = 1\n"
        tables = {"edge": (["Src", "Dst"], [(1, 2), (2, 3)])}

        def base_scan_filter(config):
            view = make_view(query, tables, config=config)
            (base_rule,) = view.clique.views[0].base_rules
            return base_rule.join.inputs[0].filter

        assert base_scan_filter(ExecutionConfig()) is not None
        assert base_scan_filter(ExecutionConfig(magic_filters=False)) is None


class TestBatchEquivalenceProperty:
    """Incremental == from-scratch, for any split of the edge stream."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                              st.integers(1, 9)), min_size=1, max_size=24),
           st.data())
    def test_sssp_any_split(self, raw_edges, data):
        edges = [(a, b, float(w)) for a, b, w in raw_edges if a != b]
        if not edges:
            return
        cut = data.draw(st.integers(min_value=1, max_value=len(edges)))
        initial, stream = edges[:cut], edges[cut:]

        view = make_view(get_query("sssp").formatted(source=0),
                         {"edge": (["Src", "Dst", "Cost"], initial)})
        for row in stream:
            view.insert("edge", [row])

        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst", "Cost"], edges)
        batch = ctx.sql(get_query("sssp").formatted(source=0))
        assert view.result().to_dict() == batch.to_dict()

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["count_paths", "management"]),
           st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
               lambda pair: pair[0] != pair[1]),
               min_size=1, max_size=16, unique=True),
           st.data())
    def test_sum_and_count_heads_any_split_with_reinserts(self, name, pairs,
                                                          data):
        """... including a stream that re-inserts rows already present."""
        if name == "count_paths":  # sum head, over a DAG
            table, columns = "edge", ["Src", "Dst"]
            rows = sorted({(min(p), max(p)) for p in pairs})
            query = get_query(name).formatted(source=0)
        else:  # count head, over a forest: one manager per employee
            table, columns = "report", ["Emp", "Mgr"]
            rows = list({max(p): (max(p), min(p)) for p in pairs}.values())
            query = get_query(name).sql
        cut = data.draw(st.integers(min_value=1, max_value=len(rows)))
        stream = data.draw(st.permutations(rows[cut:] + data.draw(
            st.lists(st.sampled_from(rows), max_size=6))))
        view = make_view(query, {table: (columns, rows[:cut])})
        for row in stream:
            view.insert(table, [row])

        ctx = RaSQLContext(num_workers=2)
        ctx.register_table(table, columns, rows[:cut] + list(stream))
        assert view.result().to_dict() == ctx.sql(query).to_dict()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["sssp", "count_paths"]),
           st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
               lambda pair: pair[0] < pair[1]), min_size=2, max_size=14),
           st.data())
    def test_any_writer_any_reader(self, name, pairs, data):
        """Rows appended through the view or the catalog, ad-hoc queries
        absorbing them into the shared sides first or not: every view
        read equals a fresh context over the rows so far."""
        if name == "sssp":
            columns, rows = ["Src", "Dst", "Cost"], [p + (1.0,) for p in pairs]
        else:  # a DAG, so the path counts are finite
            columns, rows = ["Src", "Dst"], list(pairs)
        query = get_query(name).formatted(source=0)
        cut = data.draw(st.integers(min_value=1, max_value=len(rows)))
        view = make_view(query, {"edge": (columns, rows[:cut])})
        ctx, table = view.ctx, list(rows[:cut])
        stream = rows[cut:] + data.draw(st.lists(st.sampled_from(rows),
                                                 max_size=4))
        for row in stream:
            how = data.draw(st.sampled_from(["view", "catalog", "sql"]))
            if how == "view":
                view.insert("edge", [row])
            else:
                ctx.catalog.append_rows("edge", [row])
                if how == "sql":
                    ctx.sql(query)
            table.append(row)
            if data.draw(st.booleans()):
                fresh = RaSQLContext(num_workers=2)
                fresh.register_table("edge", columns, table)
                assert view.result().to_dict() == fresh.sql(query).to_dict()
        fresh = RaSQLContext(num_workers=2)
        fresh.register_table("edge", columns, table)
        assert view.result().to_dict() == fresh.sql(query).to_dict()
