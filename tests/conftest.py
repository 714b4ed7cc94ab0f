"""Shared fixtures.

The kernel layer sits behind a size gate (``repro.core.planner.
KERNEL_MIN_ROWS``): cliques over fewer base rows run the reference loops.
Test graphs are tiny, so a suite that claims to exercise kernels must
lift the gate or it silently compares reference with reference.
"""

import os

import pytest

from repro.core import planner


def seeds(default: str) -> list[int]:
    """A seeded suite's seeds: ``RASQL_SEEDS`` (comma-separated; the one
    knob, CI's ``marker-suites`` rows set it) or the suite's ``default``."""
    return [int(s) for s in os.environ.get("RASQL_SEEDS", default).split(",")]


#: Marker suites whose tests all run with the gate lifted.
UNGATED_MARKERS = ("kernels", "process_backend")


@pytest.fixture
def ungated_kernels(monkeypatch):
    """Lift the kernel size gate for one test.

    The gate is evaluated driver-side, where a clique is planned, so this
    covers process-backend runs too (workers never consult it).
    """
    monkeypatch.setattr(planner, "KERNEL_MIN_ROWS", 0)


@pytest.fixture(autouse=True)
def _ungate_kernel_suites(request):
    if any(request.node.get_closest_marker(name) for name in UNGATED_MARKERS):
        request.getfixturevalue("ungated_kernels")
