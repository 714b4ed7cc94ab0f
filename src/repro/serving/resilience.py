"""Overload and failure hygiene for the serving tier.

Two standard service patterns, adapted to the simulated clock:

- :class:`RetryPolicy` — transient infrastructure failures (a task that
  exhausted its attempt budget, a cluster momentarily out of healthy
  workers) are retried a bounded number of times with exponential
  backoff plus jitter.  The jitter draws from a **seeded** RNG handed in
  by the service — never wall-clock entropy — so a replay of the same
  workload backs off by the same simulated amounts and stays bit-exact
  (the same discipline as ``RecoveryManager.backoff_seconds``).
- :class:`CircuitBreaker` — a query *shape* (whitespace-normalized
  statement text) that keeps failing gets its traffic shed at the
  service door with :class:`repro.errors.CircuitOpenError` instead of
  burning cluster time on a query that will fail again.  Classic
  closed → open → half-open: after ``failure_threshold`` consecutive
  failures the shape opens for ``cooldown_s`` simulated seconds; the
  first request after cooldown is the half-open probe — success closes
  the breaker, failure re-opens it for a fresh cooldown.

Typed errors that represent the *caller's* problem (analysis errors,
deadline overruns, memory overflows) are neither retried nor counted by
default — retrying them wastes cluster time and shedding them hides the
actionable error payload the client needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpenError,
    NoHealthyWorkersError,
    TaskRetryExhaustedError,
)

__all__ = ["CircuitBreaker", "RetryPolicy"]

#: Errors worth retrying: infrastructure gave out mid-query, and a
#: re-execution against the same inputs can legitimately succeed.
RETRYABLE_ERRORS = (TaskRetryExhaustedError, NoHealthyWorkersError)


@dataclass
class RetryPolicy:
    """Bounded seeded-jitter exponential backoff for transient failures."""

    max_retries: int = 2
    base_backoff_s: float = 0.05
    #: Jitter fraction: each backoff is scaled by ``1 + jitter * U[0,1)``
    #: drawn from ``rng`` (seeded by the service — determinism contract).
    jitter: float = 0.5
    retryable: tuple = RETRYABLE_ERRORS
    rng: random.Random | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_backoff_s < 0 or self.jitter < 0:
            raise ValueError("base_backoff_s and jitter must be >= 0")

    def should_retry(self, error: Exception, attempt: int) -> bool:
        """Retry *attempt* (0-based count of failures so far)?"""
        return (attempt < self.max_retries
                and isinstance(error, self.retryable))

    def backoff_s(self, attempt: int) -> float:
        """Simulated seconds to back off before re-attempt *attempt*."""
        backoff = self.base_backoff_s * (2.0 ** attempt)
        if self.jitter and self.rng is not None:
            backoff *= 1.0 + self.jitter * self.rng.random()
        return backoff


@dataclass
class _Shape:
    failures: int = 0
    state: str = "closed"  # closed | open | half_open
    open_until: float = 0.0


@dataclass
class CircuitBreaker:
    """Per-query-shape failure tracker with open/half-open shedding."""

    failure_threshold: int = 5
    cooldown_s: float = 60.0
    _shapes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got "
                f"{self.failure_threshold}")
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got "
                             f"{self.cooldown_s}")

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
                or shape.failures >= self.failure_threshold):
            shape.state = "open"
            shape.open_until = now + self.cooldown_s

    def state(self, key: str) -> str:
        return self._shapes.get(key, _Shape()).state

    def report(self) -> dict:
        return {key: {"state": shape.state, "failures": shape.failures}
                for key, shape in sorted(self._shapes.items())}
