"""Every public error in ``repro.errors``, raised through a user path.

Errors are part of the API surface: each test here drives a *user-visible*
entry point (``RaSQLContext.sql``, the CLI, ``check_prem``, a cluster
stage) into the failure and asserts that the resulting exception carries
actionable context — the attributes and message fragments an operator
would need to fix the problem without reading engine source.
"""

import inspect
import pickle

import pytest

from repro import errors
from repro import ExecutionConfig, MemoryConfig, QueryGovernor, RaSQLContext
from repro.__main__ import main as cli_main
from repro.baselines.sql_loop import SQLLoopEngine
from repro.core.prem import check_prem
from repro.engine.cluster import Cluster, StageTask
from repro.engine.faults import MAX_TASK_RETRIES, FailureInjector
from repro.errors import (
    AdmissionRejectedError,
    AnalysisError,
    ExecutionError,
    FaultInjectionError,
    FixpointNotReachedError,
    MemoryBudgetExceededError,
    NoHealthyWorkersError,
    ParseError,
    PlanningError,
    PreMViolationError,
    QueryDeadlineExceededError,
    RaSQLError,
    TaskRetryExhaustedError,
)
from repro.queries.library import get_query
from repro.relation import Relation

EDGES = [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 5.0), (3, 4, 1.0), (4, 2, 1.0)]

NON_PREM = """
WITH recursive path(Dst, min() AS Cost) AS
  (SELECT 1, 0) UNION
  (SELECT edge.Dst, 10 - path.Cost
   FROM path, edge WHERE path.Dst = edge.Src)
SELECT Dst, Cost FROM path
"""


def sssp_ctx(**kwargs):
    ctx = RaSQLContext(num_workers=4, **kwargs)
    ctx.register_table("edge", ["Src", "Dst", "Cost"], EDGES)
    return ctx


def sssp_query():
    return get_query("sssp").formatted(source=1)


class TestHierarchy:
    """One base class to catch them all; execution faults share a branch."""

    @pytest.mark.parametrize("error_class", [
        ParseError, AnalysisError, PlanningError, ExecutionError,
        FixpointNotReachedError, MemoryBudgetExceededError,
        QueryDeadlineExceededError, AdmissionRejectedError,
        FaultInjectionError, TaskRetryExhaustedError,
        NoHealthyWorkersError, PreMViolationError,
    ])
    def test_everything_is_a_rasql_error(self, error_class):
        assert issubclass(error_class, RaSQLError)

    @pytest.mark.parametrize("error_class", [
        FixpointNotReachedError, MemoryBudgetExceededError,
        QueryDeadlineExceededError, TaskRetryExhaustedError,
        NoHealthyWorkersError,
    ])
    def test_runtime_faults_are_execution_errors(self, error_class):
        assert issubclass(error_class, ExecutionError)

    def test_except_rasqlerror_catches_a_query_failure(self):
        ctx = sssp_ctx()
        with pytest.raises(RaSQLError):
            ctx.sql("SELEKT * FROM edge")


class TestParseError:
    def test_carries_position_of_the_offending_token(self):
        ctx = sssp_ctx()
        with pytest.raises(ParseError) as info:
            ctx.sql("SELECT Src FROM edge WHERE WHERE")
        error = info.value
        assert error.line is not None and error.column is not None
        assert f"line {error.line}" in str(error)


class TestAnalysisError:
    def test_unknown_table_lists_registered_names(self):
        ctx = sssp_ctx()
        with pytest.raises(AnalysisError) as info:
            ctx.sql("SELECT * FROM nosuch")
        message = str(info.value)
        assert "nosuch" in message
        assert "edge" in message  # tells the user what *is* available


class TestPlanningError:
    def test_naive_mode_rejects_sum_views_with_reason(self):
        ctx = RaSQLContext(num_workers=2,
                           config=ExecutionConfig(evaluation="naive"))
        ctx.register_table("edge", ["Src", "Dst"],
                           [(src, dst) for src, dst, _ in EDGES])
        with pytest.raises(PlanningError, match="naive"):
            ctx.sql(get_query("count_paths").formatted(source=1))


class TestFixpointNotReachedError:
    def test_message_names_budget_and_last_delta(self):
        ctx = sssp_ctx(config=ExecutionConfig(max_iterations=2))
        with pytest.raises(FixpointNotReachedError) as info:
            ctx.sql(sssp_query())
        error = info.value
        assert error.iterations == 2
        assert "2 iterations" in str(error)
        assert "delta" in str(error)
        assert error.partial_result is not None

    def test_sql_loop_honours_execution_config_budget(self):
        """Satellite: the Figure 10 baselines read the same
        ``ExecutionConfig.max_iterations`` knob as the fixpoint operator."""
        cluster = Cluster(num_workers=2)
        engine = SQLLoopEngine(
            cluster, "sn", config=ExecutionConfig(max_iterations=2))
        tables = {"edge": Relation("edge", ["Src", "Dst", "Cost"], EDGES)}
        with pytest.raises(FixpointNotReachedError) as info:
            engine.run(sssp_query(), tables)
        message = str(info.value)
        assert "iteration budget of 2" in message
        assert "delta" in message
        assert "max_iterations" in message  # points at the fix


class TestMemoryBudgetExceededError:
    def test_impossible_budget_reports_shortfall(self):
        ctx = sssp_ctx(memory_config=MemoryConfig(worker_budget_bytes=8))
        with pytest.raises(MemoryBudgetExceededError) as info:
            ctx.sql(sssp_query())
        error = info.value
        assert error.budget_bytes == 8
        assert error.requested_bytes > error.budget_bytes
        assert error.worker >= 0
        assert "budget" in str(error)


class TestQueryDeadlineExceededError:
    def test_carries_deadline_stage_and_partial_trace(self):
        ctx = sssp_ctx()
        with pytest.raises(QueryDeadlineExceededError) as info:
            ctx.sql(sssp_query(),
                    config=ExecutionConfig(deadline_seconds=1e-6))
        error = info.value
        assert error.sim_time > error.deadline_seconds
        assert error.stage
        assert error.partial_trace is not None
        assert "deadline" in str(error)

    def test_cli_exit_code_3(self, tmp_path, capsys):
        table = tmp_path / "edge.csv"
        table.write_text("Src,Dst,Cost\n" + "\n".join(
            f"{src},{dst},{cost}" for src, dst, cost in EDGES))
        code = cli_main(["--table", f"edge={table}",
                         "-q", sssp_query(), "--timeout", "1e-6"])
        assert code == 3
        assert "deadline" in capsys.readouterr().err


class TestAdmissionRejectedError:
    def test_memory_rejection_names_reason_and_label(self):
        ctx = sssp_ctx(governor=QueryGovernor(max_reserved_bytes=1))
        with pytest.raises(AdmissionRejectedError) as info:
            ctx.sql(sssp_query())
        error = info.value
        assert error.reason == "memory"
        assert error.label
        assert "max_reserved_bytes" in str(error)


class TestTaskRetryExhaustedError:
    def test_persistent_failure_reports_stage_and_attempts(self):
        ctx = sssp_ctx()
        ctx.inject_faults(FailureInjector(
            "shufflemap", point="before", times=100, persistent=True))
        with pytest.raises(TaskRetryExhaustedError) as info:
            ctx.sql(sssp_query())
        error = info.value
        assert error.stage == "fixpoint-shufflemap"
        assert error.attempts == MAX_TASK_RETRIES + 1
        assert "MAX_TASK_RETRIES" in str(error)


class TestNoHealthyWorkersError:
    def test_losing_the_last_worker(self):
        cluster = Cluster(num_workers=1)
        with pytest.raises(NoHealthyWorkersError):
            cluster.lose_worker(0)


class TestFaultInjectionError:
    def test_replaying_a_mutating_task_without_hooks(self):
        cluster = Cluster(num_workers=2)
        cluster.inject_failures(FailureInjector("work", point="after"))
        state = {"value": 0}
        task = StageTask(
            0, [], lambda: state.__setitem__("value", state["value"] + 1),
            mutating=True)  # declared mutating, but no snapshot/restore
        with pytest.raises(FaultInjectionError):
            cluster.run_stage("work", [task])


class TestPreMViolationError:
    def test_non_prem_query_reports_the_failing_iteration(self):
        with pytest.raises(PreMViolationError) as info:
            check_prem(NON_PREM,
                       {"edge": (["Src", "Dst", "Cost"], EDGES)},
                       raise_on_violation=True)
        assert info.value.iteration >= 0


def _error_classes():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, BaseException)
            and cls.__module__ == errors.__name__]


def _instance(cls):
    """``cls`` built with a value for every parameter, required or not:
    the message first, then distinct ints."""
    try:
        params = inspect.signature(cls).parameters
    except ValueError:  # the builtin ``__init__``: the message alone
        params = {"message": None}
    return cls(f"{cls.__name__} failed", *range(3, 2 + len(params)))


class TestPickling:
    """A worker-raised error crosses the process backend's pipe pickled;
    it must come back as the same type with the same fields."""

    @pytest.mark.parametrize("error_class", _error_classes(),
                             ids=lambda cls: cls.__name__)
    def test_round_trip(self, error_class):
        error = _instance(error_class)
        error.partial_trace = {"kind": "query"}  # attached after raising
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is error_class
        assert copy.args == error.args and str(copy) == str(error)
        assert vars(copy) == vars(error)


class TestContextValidation:
    """Satellite: constructor misuse fails fast with a clear message,
    not deep inside partitioning arithmetic."""

    @pytest.mark.parametrize("num_workers", [0, -1, 2.5, "4"])
    def test_bad_num_workers(self, num_workers):
        with pytest.raises(ValueError, match="num_workers"):
            RaSQLContext(num_workers=num_workers)

    @pytest.mark.parametrize("num_partitions", [0, -3, 1.5])
    def test_bad_num_partitions(self, num_partitions):
        with pytest.raises(ValueError, match="num_partitions"):
            RaSQLContext(num_workers=2, num_partitions=num_partitions)

    def test_valid_arguments_still_accepted(self):
        ctx = RaSQLContext(num_workers=2, num_partitions=8)
        assert ctx.cluster.num_workers == 2

    @pytest.mark.parametrize("kwargs", [
        {"max_iterations": 0},
        {"deadline_seconds": 0},
        {"deadline_seconds": -1.0},
    ])
    def test_execution_config_rejects_nonpositive_limits(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionConfig(**kwargs)
