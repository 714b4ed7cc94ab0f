"""Plan/codegen snapshot: the planner's output is a contract.

Sweeps the query library over the planning-relevant config axes and pins,
for every recursive, base-rule and maintenance term, the step
``describe()`` text and the generated source (or that the term is not
fused), plus each clique's ``explain()``.  The golden
(``fixtures/plan_snapshot.json``, one digest per entry) was first cut at
the commit *before* the three rule compilers were merged into one
(ISSUE 17), and re-cut when stored rows stopped being padded (ISSUE 18):
against the parent's full texts every ``explain()`` / ``describe()`` /
``base_plans`` entry, exception type and fused-ness was byte-identical,
and the generated sources differed only in the ``r<k>[i]`` index tokens
(now relative to the binding's own row), ``GroupedDedupSpec.build_index``
likewise, and the dropped ``pad`` argument of ``runtime.state_table``.
Re-cut again when keyed state became the view's own head rows (ISSUE 19):
same comparison, ``source`` differing only for the 20 terms whose
``describe()`` contains ``Totalize[`` (``company_control``,
``party_attendance``) — ``d = runtime.state_total(...)`` instead of
patching a copy of ``d`` slot by slot.
Re-cut when the generated term became the whole Map side and base sides
were pruned to the columns read (ISSUE 21): against the parent's texts
every ``explain()`` / ``describe()`` / exception type / fused-ness entry
byte-identical; ``base_plans`` differing only by the ``read_positions``
element appended to the recorded tuple (149 of the 216 base plans are
pruned, in 109 of the 174 plan entries); ``source`` differing for 173 of
the 514 terms — the 84 that fold into their view's accumulator instead of
appending to ``_out``, and the 139 that index a pruned side (``r1`` /
``r1[k]`` within the stored columns; 50 do both); ``dedup`` for the 12
set-runner variants over a pruned side and
``GroupedDedupSpec.build_index`` (now ``None``: the side stores the bare
column) for 6.  No term under ``kernels_off`` moved.
Re-cut when base rules started folding like recursive terms: against the
parent's texts only ``source`` moved, for 60 of the 694 entries — every
one a scan-driven base rule of a ``min``/``max``/``sum``/``count`` view
(``apsp``, ``bom``, ``cc``, ``cc_labels``, ``company_control``,
``interval_coalesce``, ``management``, ``mlm_bonus``) under the
``default``, ``stacked``, ``sort_merge`` and ``broadcast_bases`` axes,
now the fold variant; every ``explain()`` / ``describe()`` /
``base_plans`` / exception / ``dedup`` / ``grouped`` entry byte-identical,
no recursive or maintenance term and nothing under ``kernels_off`` or
``stratified`` moved.
Re-cut when the kernels-off reference path was deleted: the 116
``kernels_off`` entries went; of the other 578, only ``source`` moved,
for the 90 terms with a state-side join (20 recursive, 70 maintenance,
in 14 of the 15 queries) — ``runtime.state_table(...)`` without the
``if runtime.state_table is not None else _build_state_table(...)``
fallback; everything else byte-identical.
Re-cut when the fused set runner and its dedup codegen variant were
deleted: the ``dedup`` part left every term entry; against the parent's
golden every ``explain`` / ``describe`` / ``source`` / ``base_plans`` /
``grouped`` / exception entry is byte-identical, and the key set (578
entries) is unchanged.

Regenerate (only for an intended plan change)::

    PYTHONPATH=src python tests/core/test_plan_snapshot.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.analyzer import analyze
from repro.core.catalog import Catalog
from repro.core.config import ExecutionConfig
from repro.core.optimizer import optimize
from repro.core.parser import parse
from repro.core.planner import plan_clique
from repro.queries.library import ALL_QUERIES

GOLDEN = Path(__file__).parent / "fixtures" / "plan_snapshot.json"

CONFIGS = {
    "default": ExecutionConfig(),
    "stacked": ExecutionConfig(decomposed_plans=False),
    "sort_merge": ExecutionConfig(join_strategy="sort_merge"),
    "broadcast_bases": ExecutionConfig(broadcast_bases=True),
    "stratified": ExecutionConfig(evaluation="stratified"),
}

UNFUSED = "unfused"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _source(fn) -> str | None:
    return None if fn is None else fn._generated_source


def collect() -> tuple[dict[str, dict], dict[str, dict]]:
    """``(digests, texts)`` keyed ``query/config/m<0|1>/c<clique>/<kind>/<index>``.

    ``texts`` holds the full strings behind every digest so a mismatch
    can print what the planner produced.
    """
    digests: dict[str, dict] = {}
    texts: dict[str, dict] = {}

    def record(key: str, **parts: str | None) -> None:
        texts[key] = parts
        digests[key] = {
            name: (value if value is None or name in ("raises", "grouped")
                   or value == UNFUSED else _digest(value))
            for name, value in parts.items()}

    def record_term(key: str, term) -> None:
        record(key,
               describe=term.describe(),
               source=_source(term.codegen_fn) or UNFUSED,
               grouped=(None if term.grouped_spec is None
                        else repr(term.grouped_spec)))

    for spec in ALL_QUERIES:
        catalog = Catalog()
        for table, columns in spec.tables.items():
            catalog.register(table, columns)
        script = optimize(analyze(parse(spec.formatted(source=1)), catalog))
        for config_name, config in CONFIGS.items():
            for maintenance in (False, True):
                for c, clique in enumerate(script.cliques()):
                    prefix = (f"{spec.name}/{config_name}/"
                              f"m{int(maintenance)}/c{c}")
                    try:
                        plan = plan_clique(clique, config,
                                           maintenance=maintenance)
                    except Exception as exc:  # the type is the snapshot
                        record(f"{prefix}/plan", raises=type(exc).__name__)
                        continue
                    record(f"{prefix}/plan", explain=plan.explain(),
                           base_plans="\n".join(
                               repr((b.step_id, b.relation, b.binding, b.mode,
                                     b.offset, b.arity, b.build_slots,
                                     b.filter_sql, b.equi, b.read_positions))
                               for b in plan.base_plans))
                    for i, term in enumerate(plan.terms):
                        record_term(f"{prefix}/rec/{i}", term)
                    for i, base_rule in enumerate(plan.base_rules):
                        if base_rule.term is not None:
                            record_term(f"{prefix}/base/{i}", base_rule.term)
                    for table, terms in plan.maintenance_terms.items():
                        for i, term in enumerate(terms):
                            record_term(f"{prefix}/maint/{table}/{i}", term)
    return digests, texts


def _is_term(key: str) -> bool:
    return not key.endswith("/plan")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def snapshot():
    return collect()


def test_sweep_shape(golden):
    """The numbers the golden was cut with: 428 terms, the only unfused
    ones being sort-merge pipelines (never fused by design)."""
    terms = {k: v for k, v in golden.items() if _is_term(k)}
    unfused = [k for k, v in terms.items() if v["source"] == UNFUSED]
    assert len(terms) == 428
    assert len(unfused) == 18
    assert all("/sort_merge/" in k for k in unfused)


def test_plans_and_generated_code_match_golden(golden, snapshot):
    digests, texts = snapshot
    assert sorted(digests) == sorted(golden)

    problems = []
    for key, want in golden.items():
        got = digests[key]
        for part in ("raises", "explain", "base_plans", "describe", "source"):
            if want.get(part) != got.get(part):
                problems.append(
                    f"{key} [{part}] golden {want.get(part)!r}, now "
                    f"{got.get(part)!r}:\n{texts[key].get(part)}")
        # The grouped spec is recognized only where the decomposed runner
        # can consume it (see test_dedup_variants_only_where_consumable);
        # wherever it is, it must be the golden one.
        if got.get("grouped") is not None \
                and want.get("grouped") != got["grouped"]:
            problems.append(
                f"{key} [grouped] golden {want.get('grouped')!r}, now "
                f"{got['grouped']!r}")
    assert not problems, "\n\n".join(problems)


def test_dedup_variants_only_where_consumable(golden, snapshot):
    """``grouped_spec`` exists only on the recursive terms of a
    decomposable, aggregate-free clique planned under DSN — the only
    place ``decomposed_runner`` reads it — and there it is what the
    golden has.  Under the default config only ``tc`` consumes it."""
    digests, texts = snapshot
    for key, got in digests.items():
        if not _is_term(key):
            continue
        query, config_name, maintenance, clique, kind = key.split("/")[:5]
        plan_text = texts[f"{query}/{config_name}/{maintenance}/{clique}/plan"]
        config = CONFIGS[config_name]
        consumable = (kind == "rec" and config.evaluation == "dsn"
                      and "(decomposable:" in plan_text["explain"])
        if consumable:
            assert got["grouped"] == golden[key]["grouped"], key
        else:
            assert got["grouped"] is None, key
    consumed = {k.split("/")[0] for k, v in digests.items()
                if _is_term(k) and "/default/" in k and v["grouped"]}
    assert consumed == {"tc"}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(collect()[0].items())) + "\n}\n")
    print(f"wrote {GOLDEN}")
