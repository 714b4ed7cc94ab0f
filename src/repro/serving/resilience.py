"""Overload and failure hygiene for the serving tier.

Two standard service patterns, adapted to the simulated clock:

- :class:`RetryPolicy` — transient infrastructure failures (a task that
  exhausted its attempt budget, a cluster momentarily out of healthy
  workers) are retried a bounded number of times with exponential
  backoff plus jitter.  The jitter draws from a **seeded** RNG handed in
  by the service — never wall-clock entropy — so a replay of the same
  workload backs off by the same simulated amounts and stays bit-exact.
- :class:`CircuitBreaker` — a query *shape* (whitespace-normalized
  statement text) that keeps failing gets its traffic shed at the
  service door with :class:`repro.errors.CircuitOpenError` instead of
  burning cluster time on a query that will fail again.  Classic
  closed → open → half-open: after ``BREAKER_THRESHOLD`` consecutive
  failures the shape opens for ``BREAKER_COOLDOWN_S`` simulated seconds;
  the first request after cooldown is the half-open probe — success
  closes the breaker, failure re-opens it for a fresh cooldown.

Typed errors that represent the *caller's* problem (analysis errors,
deadline overruns, memory overflows) are neither retried nor counted —
retrying them wastes cluster time and shedding them hides the
actionable error payload the client needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import (
    CircuitOpenError,
    NoHealthyWorkersError,
    TaskRetryExhaustedError,
)

__all__ = ["CircuitBreaker", "RetryPolicy"]

#: Errors worth retrying: infrastructure gave out mid-query, and a
#: re-execution against the same inputs can legitimately succeed.
RETRYABLE_ERRORS = (TaskRetryExhaustedError, NoHealthyWorkersError)

#: Re-executions of one request after a retryable error.
RETRY_MAX = 2

#: Backoff before re-attempt ``n`` is ``RETRY_BASE_BACKOFF_S * 2**n``,
#: stretched by ``1 + RETRY_JITTER * U[0, 1)``.
RETRY_BASE_BACKOFF_S = 0.05
RETRY_JITTER = 0.5


@dataclass
class RetryPolicy:
    """Bounded seeded-jitter exponential backoff for transient failures.

    ``rng`` is the service's seeded random source, the only draw behind
    the jitter (determinism contract).
    """

    rng: random.Random

    @staticmethod
    def should_retry(error: Exception, attempt: int) -> bool:
        """Retry *attempt* (0-based count of failures so far)?"""
        return attempt < RETRY_MAX and isinstance(error, RETRYABLE_ERRORS)

    def backoff_s(self, attempt: int) -> float:
        """Simulated seconds to back off before re-attempt *attempt*."""
        return (RETRY_BASE_BACKOFF_S * (2.0 ** attempt)
                * (1.0 + RETRY_JITTER * self.rng.random()))


@dataclass
class _Shape:
    failures: int = 0
    state: str = "closed"  # closed | open | half_open
    open_until: float = 0.0


#: Consecutive failures of one query shape that open its circuit.
BREAKER_THRESHOLD = 5

#: Simulated seconds an open circuit sheds its shape before the
#: half-open probe.
BREAKER_COOLDOWN_S = 60.0


class CircuitBreaker:
    """Per-query-shape failure tracker with open/half-open shedding."""

    def __init__(self):
        self._shapes: dict[str, _Shape] = {}

    def check(self, key: str, now: float) -> None:
        """Gate one request; raises :class:`CircuitOpenError` when shedding.

        Called with the simulated clock.  An open shape whose cooldown
        has elapsed transitions to half-open and lets this request
        through as the probe.  A shape is tracked only while it has
        failures or is not closed, so a healthy statement costs a lookup
        and leaves nothing behind.
        """
        shape = self._shapes.get(key)
        if shape is None or shape.state != "open":
            return
        if now >= shape.open_until:
            shape.state = "half_open"
            return
        raise CircuitOpenError(
            f"circuit open for query shape {key[:60]!r}: "
            f"{shape.failures} consecutive failures; next probe in "
            f"{shape.open_until - now:.2f}s (simulated)",
            shape=key, failures=shape.failures,
            retry_after_s=shape.open_until - now)

    def record_success(self, key: str) -> None:
        self._shapes.pop(key, None)  # closed, no failures: nothing to keep

    def record_failure(self, key: str, now: float) -> None:
        shape = self._shapes.setdefault(key, _Shape())
        shape.failures += 1
        if (shape.state == "half_open"
                or shape.failures >= BREAKER_THRESHOLD):
            shape.state = "open"
            shape.open_until = now + BREAKER_COOLDOWN_S

    def state(self, key: str) -> str:
        return self._shapes.get(key, _Shape()).state

    def report(self) -> dict:
        return {key: {"state": shape.state, "failures": shape.failures}
                for key, shape in sorted(self._shapes.items())}
