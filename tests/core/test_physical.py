"""Unit tests for the physical step primitives."""

from repro.core.physical import (
    FilterStep,
    HashJoinStep,
    NestedLoopStep,
    TermRuntime,
    TotalizeStep,
    make_placer,
    make_projector,
    make_slots_key,
)
from repro.engine.aggregates import COUNT, MIN
from repro.engine.joins import build_hash_table


def working_row(row, offset, arity):
    """A stored row placed over an all-unbound working row."""
    return make_placer(offset, len(row))((None,) * arity, row)


class TestPaddedRows:
    def test_pad_places_segment(self):
        assert working_row((1, 2), 3, 7) == (None, None, None, 1, 2, None, None)

    def test_merge_coalesces_disjoint_segments(self):
        left = working_row((1, 2), 0, 5)
        assert make_placer(2, 2)(left, (8, 9)) == (1, 2, 8, 9, None)
        assert make_placer(0, 2)(working_row((8, 9), 2, 5), (1, 2)) == (
            1, 2, 8, 9, None)

    def test_slots_key_scalar_and_tuple(self):
        row = (10, 20, 30)
        assert make_slots_key((1,))(row) == 20
        assert make_slots_key((2, 0))(row) == (30, 10)


class TestSteps:
    def test_hash_join_broadcast(self):
        step = HashJoinStep(0, "broadcast", probe_slots=(0,), build_slots=(2,),
                            build_segment=(2, 2))
        runtime = TermRuntime()
        stored = (1, "a")
        runtime.broadcast_tables[0] = build_hash_table(
            [stored], make_slots_key((0,)))
        rows = [working_row((1, "x"), 0, 4)]
        out = step.apply(rows, 0, runtime)
        assert out == [(1, "x", 1, "a")]
        assert runtime.broadcast_tables[0][1][0] is stored  # never copied

    def test_hash_join_state_gather(self):
        step = HashJoinStep(0, "state", probe_slots=(0,), build_slots=(2,),
                            build_segment=(2, 2), state_view="v",
                            gather=True)
        runtime = TermRuntime()
        calls = []

        def state_rows(view, partition):
            calls.append((view, partition))
            return [(1, "s")]

        runtime.state_rows = state_rows
        out = step.apply([working_row((1, "x"), 0, 4)], 3, runtime)
        assert calls == [("v", -1)]  # gather reads all partitions
        assert out == [(1, "x", 1, "s")]

    def test_nested_loop_with_predicate(self):
        step = NestedLoopStep(0, predicate=lambda row: row[0] <= row[2],
                              segment=(2, 2))
        runtime = TermRuntime()
        runtime.broadcast_tables[0] = [(5, 6), (0, 1)]
        out = step.apply([working_row((3, 4), 0, 4)], 0, runtime)
        assert out == [(3, 4, 5, 6)]

    def test_filter_step(self):
        step = FilterStep(lambda row: row[0] > 1, "x > 1")
        assert step.apply([(1,), (2,)], 0, TermRuntime()) == [(2,)]

    def test_totalize_replaces_increments(self):
        step = TotalizeStep("v", segment=(0, 2), group_slots=(0,))
        runtime = TermRuntime()
        stored = ("a", 100)
        runtime.state_total = lambda view, p, key: stored if key == "a" else None
        out = step.apply([("a", 5), ("b", 7)], 0, runtime)
        assert out == [("a", 100)]  # total substituted; unknown group dropped

    def test_totalize_places_the_stored_row_at_the_delta_segment(self):
        """Mid-layout delta segment, aggregate column *before* the group
        columns: the stored row lands whole at its slots, the rest of the
        working row is untouched."""
        step = TotalizeStep("v", segment=(1, 3), group_slots=(2, 3))
        runtime = TermRuntime()
        stored = (42, "x", "y")
        calls = []

        def state_total(view, partition, key):
            calls.append((view, partition, key))
            return stored

        runtime.state_total = state_total
        out = step.apply([(None, 2, "x", "y", None)], 5, runtime)
        assert calls == [("v", 5, ("x", "y"))]
        assert out == [(None, 42, "x", "y", None)]


class TestProjector:
    def test_plain_projection(self):
        project = make_projector([lambda r: r[0] + 1, lambda r: r[1]],
                                 (None, None))
        assert project((1, "x")) == (2, "x")

    def test_count_normalization(self):
        project = make_projector([lambda r: r[0], lambda r: r[1]],
                                 (None, COUNT))
        assert project(("k", "alice")) == ("k", 1)
        assert project(("k", 7)) == ("k", 7)

    def test_min_no_normalization(self):
        project = make_projector([lambda r: r[0], lambda r: r[1]],
                                 (None, MIN))
        assert project(("k", 3)) == ("k", 3)
