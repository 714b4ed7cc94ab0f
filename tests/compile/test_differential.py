"""Cross-engine differential oracle over the whole query library.

Every library query is compiled to standard ``WITH RECURSIVE`` SQL and
executed on sqlite3 (and DuckDB when installed), then diffed row-for-row
against the engine under each interesting config — an independent oracle
that knows nothing about the engine's fixpoint machinery, kernels, or
join strategies.  A query is either *expressible* (and must agree
exactly, with the twin fixpoint converged and PreM admissibility not
violated) or *inexpressible* with a documented diagnostic; the partition
itself is pinned so a new library query must be classified on arrival.
"""

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.compile import (
    DuckDBBackend,
    diff_query,
    duckdb_available,
)
from repro.errors import InexpressibleQueryError
from repro.queries.library import ALL_QUERIES, get_query
from tests.integration.test_chaos import QUERY_SETUPS, make_context_factory

pytestmark = pytest.mark.differential

#: Queries single-assignment WITH RECURSIVE cannot express, with the
#: diagnostic reason the compiler must raise.  Everything else in the
#: library MUST be expressible — a new library query fails the partition
#: test until classified.
INEXPRESSIBLE = {
    "party_attendance": "mutual-recursion",
    "company_control": "mutual-recursion",
}

EXPRESSIBLE = sorted(set(QUERY_SETUPS) - set(INEXPRESSIBLE))

#: The config axes the oracle sweeps: each one swaps a different layer of
#: the engine (kernel fast paths, plan decomposition, join algorithm)
#: whose bugs an internal-only test could inherit on both sides of its
#: own comparison.  ``evaluation="naive"`` is deliberately absent: the
#: engine rejects it for sum/count aggregates (it would double-count),
#: so it cannot sweep the library.
CONFIGS = {
    "default": ExecutionConfig(),
    "kernels_off": ExecutionConfig(kernels=False),
    "decomposed_off": ExecutionConfig(decomposed_plans=False),
    "sort_merge": ExecutionConfig(join_strategy="sort_merge"),
}


def setup_for(query_name):
    _, make_query = QUERY_SETUPS[query_name]
    return make_context_factory(query_name)(), make_query()


def test_library_partition_is_total():
    covered = set(EXPRESSIBLE) | set(INEXPRESSIBLE)
    library = {spec.name for spec in ALL_QUERIES}
    assert covered == library, (
        "library queries missing a differential classification: "
        f"{sorted(library ^ covered)}")
    assert not set(EXPRESSIBLE) & set(INEXPRESSIBLE)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("query_name", EXPRESSIBLE)
def test_sqlite_oracle_agrees(query_name, config_name):
    ctx, sql = setup_for(query_name)
    report = diff_query(ctx, sql, config=CONFIGS[config_name],
                        label=query_name)
    assert report.equal, report.summary()
    assert report.converged is not False, (
        f"{query_name}: twin fixpoint not converged at depth bound "
        f"{report.depth_bound}")
    assert not report.prem.startswith("violated"), report.prem


@pytest.mark.parametrize("query_name", sorted(INEXPRESSIBLE))
def test_inexpressible_queries_diagnose(query_name):
    spec = get_query(query_name)
    ctx = RaSQLContext(num_workers=2)
    for table, columns in spec.tables.items():
        ctx.register_table(table, list(columns), [])
    with pytest.raises(InexpressibleQueryError) as exc_info:
        diff_query(ctx, spec.sql, label=query_name)
    assert exc_info.value.reason == INEXPRESSIBLE[query_name]


@pytest.mark.skipif(not duckdb_available(),
                    reason="optional duckdb package not installed")
@pytest.mark.parametrize("query_name", EXPRESSIBLE)
def test_duckdb_oracle_agrees(query_name):
    from repro.compile import DUCKDB
    ctx, sql = setup_for(query_name)
    report = diff_query(ctx, sql, backend=DuckDBBackend(),
                        dialect=DUCKDB, label=query_name)
    assert report.equal, report.summary()
    assert report.converged is not False


def test_divergence_report_is_actionable():
    ctx, sql = setup_for("tc")
    report = diff_query(ctx, sql, label="tc")
    assert report.equal
    assert "tc" in report.summary()
    assert "WITH RECURSIVE" in report.sql
    assert report.columns
    assert report.first_divergence is None
