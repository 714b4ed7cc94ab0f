"""Snapshot epochs under racing inserts: pre- or post-, never torn.

Every insert bumps ``catalog.data_version``, so a drained workload
defines a ladder of *epochs*: epoch ``e`` is the catalog with the first
``e`` inserts (in ``execution_order``) applied.  The consistency claim
for the serving tier is that every read — ad-hoc SQL, a ResultCache
hit, a ServedView read — answers from exactly the epoch at which the
scheduler ran it.  A "torn" answer (some rows pre-insert, some post-)
would match *no* rung of the ladder, so the positional differential
below also proves snapshot isolation, not just eventual agreement.
"""

import pytest

from repro import QueryGovernor, RaSQLContext
from repro.chaos import future_answer, serial_replay
from repro.serving import QueryService
from repro.serving.workload import submit_op

pytestmark = [pytest.mark.serving, pytest.mark.resilience]

EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]
#: Each insert extends reachability, so every epoch's answer differs.
INSERTS = [[(4, 6)], [(6, 7), (7, 8)], [(5, 9)]]

TC = """
WITH recursive tc(Src, Dst) AS
  (SELECT Src, Dst FROM edge) UNION
  (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
SELECT Src, Dst FROM tc
"""


def fresh_context():
    ctx = RaSQLContext(num_workers=2)
    ctx.register_table("edge", ["Src", "Dst"], list(EDGES))
    return ctx


def make_service(seed):
    ctx = fresh_context()
    ctx.governor = QueryGovernor(max_concurrent=16, max_queue=16,
                                 metrics=ctx.metrics)
    service = QueryService(ctx, scheduler="seeded", seed=seed)
    service.create_view("reach", TC)
    return service


def run_workload(seed):
    """Interleave reads with the insert ladder under a seeded scheduler;
    returns the finished futures and their serial witness — the scheduler
    may have run the inserts in any order, so the ladder is walked along
    the *recorded* ``execution_order`` (:func:`repro.chaos.serial_replay`):
    per request, the answer at the epoch it ran in."""
    service = make_service(seed)
    ops = []
    deck = list(INSERTS)
    for i in range(9):
        if i % 3 == 2 and deck:
            kind, payload = "insert", ("edge", deck.pop(0))
        elif i % 2 == 0:
            kind, payload = "view_read", "reach"
        else:
            kind, payload = "sql", TC
        ops.append((f"s{i % 2}", kind, payload))
    futures = [submit_op(service, op) for op in ops]
    service.drain()
    assert all(f.ok for f in futures), [f.error for f in futures]
    expected = serial_replay(
        fresh_context(), {f.request_id: op for op, f in zip(ops, futures)},
        service.execution_order, {"reach": TC})
    return futures, expected


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_every_read_lands_on_exactly_its_epoch(seed):
    futures, expected = run_workload(seed)
    for future in futures:
        assert future_answer(future) == expected[future.request_id], (
            f"request #{future.request_id} ({future.kind}, source="
            f"{future.source}) answered from the wrong epoch — or from "
            f"a torn mix matching no epoch at all")


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_no_answer_is_torn(seed):
    """Weaker but direct: every observed answer is *some* rung."""
    futures, expected = run_workload(seed)
    rungs = [answer for answer in expected.values()
             if isinstance(answer, list)]
    for future in futures:
        if future.kind != "insert":
            assert future_answer(future) in rungs


def test_result_cache_is_epoch_keyed():
    """A hit serves its own epoch; an insert forces a fresh computation."""
    service = make_service(seed=0)
    session = service.session("a")

    first = session.sql(TC)
    service.drain()
    again = session.sql(TC)
    service.drain()
    assert first.source == "executed" and again.source == "result_cache"
    assert sorted(again.result().rows) == sorted(first.result().rows)

    session.insert("edge", INSERTS[0])
    service.drain()
    after = session.sql(TC)
    service.drain()
    # data_version moved: the stale entry is unreachable by key.
    assert after.source == "executed"
    assert sorted(after.result().rows) != sorted(first.result().rows)

    ctx = fresh_context()
    ctx.catalog.append_rows("edge", INSERTS[0])
    assert sorted(after.result().rows) == sorted(ctx.sql(TC).rows)


def test_served_view_reads_straddle_an_insert_cleanly():
    service = make_service(seed=0)
    session = service.session("a")
    before = session.read_view("reach")
    service.drain()
    session.insert("edge", INSERTS[0])
    service.drain()
    after = session.read_view("reach")
    service.drain()

    pre = fresh_context()
    post = fresh_context()
    post.catalog.append_rows("edge", INSERTS[0])
    assert sorted(before.result().rows) == sorted(pre.sql(TC).rows)
    assert sorted(after.result().rows) == sorted(post.sql(TC).rows)
