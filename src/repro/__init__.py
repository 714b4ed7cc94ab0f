"""repro — a standalone reproduction of RaSQL (SIGMOD 2019).

RaSQL extends SQL's recursive common table expressions with min/max/sum/
count aggregates *inside* the recursion, justified by the PreM property,
and evaluates them with one distributed semi-naive fixpoint operator.

Public API:

- :class:`RaSQLContext` — register tables, run RaSQL queries.
- :class:`ExecutionConfig` — the optimization knobs of Sections 6–7.
- :class:`Relation` — schema'd rows at the API boundary.
- :mod:`repro.queries` — the paper's query library (SSSP, CC, BOM, ...).
- :mod:`repro.datagen` — RMAT / synthetic / real-world-proxy generators.
- :mod:`repro.baselines` — Giraph/GraphX/BigDatalog/Myria/serial analogs.
"""

from repro.core.config import DEFAULT_CONFIG, ExecutionConfig
from repro.core.context import RaSQLContext
from repro.core.governor import QueryGovernor
from repro.core.streaming import IncrementalView
from repro.engine.memory import MemoryConfig
from repro.relation import Relation

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIG",
    "ExecutionConfig",
    "IncrementalView",
    "MemoryConfig",
    "QueryGovernor",
    "RaSQLContext",
    "Relation",
    "__version__",
]
