"""Interleaving differentials: concurrent sessions vs serial replay.

The serving driver is cooperative and its interleaving is chosen by a
seeded scheduler, so every concurrent run has a *serial witness*:
:func:`repro.chaos.serial_replay` re-runs the recorded ``execution_order``
one request at a time on a fresh context (plain ``ctx.sql`` for
statements *and* for view reads, ``catalog.append_rows`` for inserts —
no service, no incremental view) and every answer must be bit-exact with
what the service handed its clients — caches, snapshots, view maintenance
and admission queueing must be semantically invisible.  The error-path
tests interleave admission rejections and deadline aborts into the mix
and check the governor ends idle, i.e. no completion path leaks its
ticket.
"""

import pytest

from repro import ExecutionConfig, QueryGovernor, RaSQLContext
from repro.chaos import future_answer, serial_replay
from repro.errors import AdmissionRejectedError, QueryDeadlineExceededError
from repro.queries import get_query
from repro.serving import QueryService
from repro.serving.workload import submit_op

pytestmark = pytest.mark.serving

EDGES = [(1, 2, 4.0), (2, 3, 2.0), (1, 3, 9.0), (3, 4, 1.0), (4, 6, 5.0)]
SSSP = get_query("sssp").formatted(source=1)
TC = get_query("tc").sql
REACH = get_query("reach").formatted(source=1)
VIEWS = {"dist": SSSP}

#: A mixed workload (``repro.serving.workload`` op tuples): view reads
#: racing inserts — one of them re-submitting a row already there —
#: racing ad-hoc SQL, spread round-robin over three sessions.
OPS = [(f"s{i % 3}", kind, payload) for i, (kind, payload) in enumerate([
    ("view_read", "dist"),
    ("sql", SSSP),
    ("sql", TC),
    ("insert", ("edge", [(4, 5, 1.0)])),
    ("view_read", "dist"),
    ("sql", SSSP),
    ("insert", ("edge", [(5, 6, 2.0), (6, 7, 3.0), (4, 5, 1.0)])),
    ("view_read", "dist"),
    ("sql", REACH),
    ("sql", TC),
])]


def fresh_context(**kwargs):
    ctx = RaSQLContext(num_workers=2, **kwargs)
    ctx.register_table("edge", ["Src", "Dst", "Cost"], list(EDGES))
    return ctx


def make_service(scheduler="seeded", seed=0):
    # Roomy governor: every ticket holds a slot at submit, so the seeded
    # scheduler has full freedom to permute the backlog.
    ctx = fresh_context(governor=QueryGovernor(max_concurrent=16,
                                               max_queue=16))
    service = QueryService(ctx, scheduler=scheduler, seed=seed)
    service.create_view("dist", SSSP)
    return service


def assert_matches_serial_replay(futures, execution_order):
    """Every finished future of ``OPS`` answers what the serial replay of
    ``execution_order`` answers."""
    expected = serial_replay(
        fresh_context(), {f.request_id: op for op, f in zip(OPS, futures)},
        execution_order, VIEWS)
    for future in futures:
        assert future_answer(future) == expected[future.request_id], (
            f"request #{future.request_id} {future.label!r} "
            f"(source={future.source}) diverged from serial replay")


class TestSerialReplayDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 7, 13])
    def test_seeded_interleaving_matches_serial_replay(self, seed):
        service = make_service(seed=seed)
        futures = [submit_op(service, op) for op in OPS]
        service.drain()
        assert all(f.ok for f in futures)
        assert len(service.execution_order) == len(OPS)
        assert_matches_serial_replay(futures, service.execution_order)

    def test_fifo_matches_serial_replay_too(self):
        service = make_service(scheduler="fifo")
        futures = [submit_op(service, op) for op in OPS]
        service.drain()
        assert_matches_serial_replay(futures, service.execution_order)


class TestSchedulerDeterminism:
    def run_once(self, scheduler, seed):
        service = make_service(scheduler=scheduler, seed=seed)
        futures = [submit_op(service, op) for op in OPS]
        service.drain()
        return service, futures

    def test_same_seed_reproduces_execution_order_and_sources(self):
        first, first_futures = self.run_once("seeded", 7)
        second, second_futures = self.run_once("seeded", 7)
        assert first.execution_order == second.execution_order
        assert ([f.source for f in first_futures]
                == [f.source for f in second_futures])
        assert (list(map(future_answer, first_futures))
                == list(map(future_answer, second_futures)))

    def test_seeds_actually_permute_the_backlog(self):
        orders = {tuple(self.run_once("seeded", seed)[0].execution_order)
                  for seed in (0, 1, 7, 13)}
        assert len(orders) > 1, "seeded scheduler never deviated from FIFO"

    def test_fifo_order_is_submission_order(self):
        service, futures = self.run_once("fifo", 0)
        assert service.execution_order == [f.request_id for f in futures]


class TestErrorPathsUnderInterleaving:
    def governor_is_idle(self, service):
        report = service.ctx.governor.report()
        return report["active"] == 0 and report["waiting"] == 0

    def test_rejections_and_deadlines_release_every_ticket(self):
        ctx = fresh_context(
            governor=QueryGovernor(max_concurrent=2, max_queue=2))
        service = QueryService(ctx, scheduler="seeded", seed=5)
        session = service.session("a")
        strict = ExecutionConfig(deadline_seconds=1e-9)

        admitted = [session.sql(SSSP),
                    session.sql(TC, config=strict),  # will abort on deadline
                    session.sql(SSSP),               # queued
                    session.sql(REACH)]              # queued
        rejected = [session.sql(SSSP) for _ in range(2)]  # beyond capacity

        for future in rejected:
            assert future.done and future.source == "rejected"
            assert isinstance(future.error, AdmissionRejectedError)

        service.drain()
        assert isinstance(admitted[1].error, QueryDeadlineExceededError)
        for future in (admitted[0], admitted[2], admitted[3]):
            assert future.ok
        # Queued tickets were promoted (FIFO) and ran despite the failure
        # ahead of them, and nothing leaked a slot or reserved memory.
        assert admitted[2].queued and admitted[3].queued
        assert self.governor_is_idle(service)
        assert service.ctx.governor.report()["reserved_bytes"] == 0
        assert session.counters.get("rejected") == 2
        # "failed" counts every errored completion: both rejections plus
        # the deadline abort.
        assert session.counters.get("failed") == 3
        assert session.counters.get("completed") == 3

    def test_failed_requests_do_not_poison_the_replay(self):
        """Ops that error mutate nothing: survivors still replay exactly."""
        ctx = fresh_context(
            governor=QueryGovernor(max_concurrent=8, max_queue=8))
        service = QueryService(ctx, scheduler="seeded", seed=3)
        service.create_view("dist", SSSP)
        futures = [submit_op(service, op) for op in OPS]
        strict = ExecutionConfig(deadline_seconds=1e-9)
        doomed = service.session("s0").sql(TC, config=strict)
        service.drain()

        assert isinstance(doomed.error, QueryDeadlineExceededError)
        survivors = [rid for rid in service.execution_order
                     if rid != doomed.request_id]
        assert_matches_serial_replay(futures, survivors)
        assert self.governor_is_idle(service)
