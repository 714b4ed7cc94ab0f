"""Kill-and-resume differentials: every library query, bit-exact.

The durability claim mirrors Section 6.1's recovery claim one level up:
where worker-loss recovery replays a *stage* from cached state, durable
checkpoints replay a *driver* from persisted state.  For every query of
the library, a run killed mid-fixpoint by a :class:`DriverKillInjector`
and resumed in a fresh context must reproduce the uninterrupted run's
result rows, total iteration count, and convergence verdict exactly.

Seeds come from ``RASQL_SEEDS`` (``tests/conftest.py``), so a failing
``(query, seed)`` pair reproduces locally::

    RASQL_SEEDS=3 pytest tests/integration/test_checkpoint_resume.py -k sssp
"""

import pytest

from repro import RaSQLContext
from repro.chaos import (
    checkpoint_sides,
    driver_kill,
    run_differential,
    sorted_rows,
)
from repro.core.checkpoint import make_query_id
from repro.engine.faults import DriverKillInjector
from repro.errors import (
    CheckpointError,
    CheckpointNotFoundError,
    DriverCrashError,
    QueryDeadlineExceededError,
)
from tests.conftest import seeds
from tests.integration.test_chaos import (
    QUERY_SETUPS,
    base_sides,
    differential,
)

pytestmark = pytest.mark.resilience

SEEDS = seeds("3")

TC = """
WITH recursive tc(Src, Dst) AS
  (SELECT Src, Dst FROM edge) UNION
  (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
SELECT Src, Dst FROM tc
"""


def _edge_context(rows=None, **side):
    ctx = RaSQLContext(num_workers=4, **side)
    ctx.register_table("edge", ["Src", "Dst"],
                       rows or [(i, i + 1) for i in range(24)] + [(5, 2)])
    return ctx


@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_kill_resume_bit_exact(query_name, seed, tmp_path):
    report = differential(query_name, **checkpoint_sides(str(tmp_path)),
                          faults=driver_kill(seed), resume=True)
    assert report.exact, f"{query_name}: {report.summary()}"


@pytest.mark.timeout(120)
@pytest.mark.parametrize("query_name", ["sssp", "tc", "count_paths"])
def test_warm_base_side_cache_survives_kill_resume(query_name, tmp_path):
    """Composition: the victim dies over sides an earlier query built, and
    the restarted driver (warm too) resumes over its own."""
    report = differential(
        query_name, warm=True, **checkpoint_sides(str(tmp_path), interval=1),
        faults=[DriverKillInjector("fixpoint", skip_matches=3)],
        resume=True)
    assert report.exact and report.killed, report.summary()
    reused, built = base_sides(report)
    assert reused and not built


@pytest.mark.timeout(60)
def test_resume_from_mid_run_checkpoint(tmp_path):
    """A kill that lands after several checkpoints restores, not reruns."""
    report = run_differential(
        TC, _edge_context,
        **checkpoint_sides(str(tmp_path), interval=4),
        faults=[DriverKillInjector("fixpoint", skip_matches=18)],
        resume=True)
    assert report.exact and report.killed, report.summary()
    assert report.subject_run.resumed_from > 0
    assert report.counters["checkpoint_restores"] == 1
    # Completion garbage-collects: a second resume has nothing to do.
    with pytest.raises(CheckpointNotFoundError):
        _edge_context().resume(make_query_id(TC),
                               checkpoint_dir=str(tmp_path / "subject"))


@pytest.mark.timeout(60)
def test_deadline_killed_query_resumes_with_fresh_window(tmp_path):
    """A deadline abort is just another crash: resume finishes the job."""
    ctx = _edge_context()
    cfg = ctx.config.but(checkpoint_interval=2,
                         checkpoint_dir=str(tmp_path),
                         deadline_seconds=0.15)
    with pytest.raises(QueryDeadlineExceededError):
        ctx.sql(TC, config=cfg)
    qid = ctx.last_run.query_id
    assert qid is not None

    clean_ctx = _edge_context()
    clean = clean_ctx.sql(TC)

    resumer = _edge_context()
    # The manifest replays deadline_seconds=0.15 too — override it.
    resumed = resumer.resume(qid, checkpoint_dir=str(tmp_path),
                             config=cfg.but(deadline_seconds=None))
    assert resumer.last_run.resumed_from > 0
    assert sorted_rows(resumed) == sorted_rows(clean)


@pytest.mark.timeout(60)
def test_crash_before_first_checkpoint_resumes_from_scratch(tmp_path):
    report = run_differential(
        TC, _edge_context,
        **checkpoint_sides(str(tmp_path), interval=1000),  # never due
        faults=[DriverKillInjector("fixpoint", skip_matches=3)],
        resume=True)
    assert report.exact and report.killed, report.summary()
    assert report.subject_run.resumed_from == 0


@pytest.mark.timeout(60)
def test_resume_refuses_a_changed_catalog(tmp_path):
    ctx = _edge_context()
    cfg = ctx.config.but(checkpoint_interval=2, checkpoint_dir=str(tmp_path))
    ctx.inject_faults(DriverKillInjector("fixpoint", skip_matches=12))
    with pytest.raises(DriverCrashError):
        ctx.sql(TC, config=cfg)

    drifted = _edge_context(rows=[(i, i + 1) for i in range(10)])
    with pytest.raises(CheckpointError, match="catalog"):
        drifted.resume(make_query_id(TC), checkpoint_dir=str(tmp_path))


@pytest.mark.timeout(60)
def test_completed_run_leaves_no_resumable_state(tmp_path):
    ctx = _edge_context()
    cfg = ctx.config.but(checkpoint_interval=2, checkpoint_dir=str(tmp_path))
    ctx.sql(TC, config=cfg)
    with pytest.raises(CheckpointNotFoundError):
        _edge_context().resume(make_query_id(TC),
                               checkpoint_dir=str(tmp_path))


@pytest.mark.timeout(60)
def test_checkpointing_off_means_no_counters_and_no_files(tmp_path):
    ctx = _edge_context()
    ctx.sql(TC)
    assert ctx.last_run.query_id is None
    summary = ctx.last_run.checkpoint_summary()
    assert all(v == 0 for v in summary.values())
    assert not list(tmp_path.iterdir())


SSSP = """
WITH recursive path(Dst, min() AS Cost) AS
  (SELECT 0, 0) UNION
  (SELECT edge.Dst, path.Cost + edge.Cost
   FROM path, edge WHERE path.Dst = edge.Src)
SELECT Dst, Cost FROM path
"""


@pytest.mark.timeout(60)
def test_resume_refuses_the_retired_keyed_fragment_layout(tmp_path):
    """Keyed state is checkpointed as the view's own rows (``kind:
    "keyed-rows"``).  A blob in the earlier ``"keyed"`` layout — ``{key:
    value tuple}`` fragments, hand-built here from a real blob — must be
    refused, not installed where rows are expected (payloads carry no
    format version)."""
    from repro.core.checkpoint import CheckpointStore
    from repro.engine.serialization import dump_blob, load_blob

    def context():
        ctx = RaSQLContext(num_workers=4)
        ctx.register_table("edge", ["Src", "Dst", "Cost"],
                           [(i, i + 1, 1) for i in range(24)])
        return ctx

    victim = context()
    cfg = victim.config.but(checkpoint_interval=2,
                            checkpoint_dir=str(tmp_path))
    victim.inject_faults(DriverKillInjector("fixpoint", skip_matches=12))
    with pytest.raises(DriverCrashError):
        victim.sql(SSSP, config=cfg)

    qid = make_query_id(SSSP)
    store = CheckpointStore(str(tmp_path))
    path = store.blob_path(qid, store.load_manifest(qid)["in_flight"]["file"])
    payload = load_blob(path)
    (dumped,) = payload["states"].values()
    assert dumped["kind"] == "keyed-rows"
    assert any(dumped["partitions"])
    assert all(len(row) == 2 for rows in dumped["partitions"] for row in rows)
    good = {"kind": dumped["kind"], "partitions": dumped["partitions"]}
    dumped["kind"] = "keyed"
    dumped["partitions"] = [{row[0]: row[1:] for row in rows}
                            for rows in dumped["partitions"]]
    dump_blob(path, payload)
    with pytest.raises(CheckpointError, match="retired"):
        context().resume(qid, checkpoint_dir=str(tmp_path))

    # The same blob with its row layout back resumes bit-exactly.
    dumped.update(good)
    dump_blob(path, payload)
    resumer = context()
    resumed = resumer.resume(qid, checkpoint_dir=str(tmp_path))
    assert resumer.last_run.resumed_from > 0
    assert sorted_rows(resumed) == sorted_rows(context().sql(SSSP))
