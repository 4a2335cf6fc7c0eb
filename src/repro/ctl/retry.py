"""Retry policy: exponential backoff feeding the dead-letter queue.

A failed attempt either retries (after a deterministic exponential
backoff in *simulated* seconds) or, once ``max_attempts`` executions
have been spent, is exhausted into the dead-letter queue.  There is no
jitter by design: the control plane is co-simulated on the DES kernel
and every run must be bit-reproducible, so randomness belongs in the
seeded trace generators, never in the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ControlError


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently a crashed job is retried.

    ``max_attempts`` counts *executions*, not retries: the default of 3
    means one initial run plus up to two retries before the job is
    dead-lettered.  The backoff before retry ``n`` (after the n-th
    failed attempt) is ``backoff_base * backoff_factor ** (n - 1)``
    simulated seconds, capped at ``backoff_cap``.
    """

    max_attempts: int = 3
    backoff_base: float = 60.0
    backoff_factor: float = 2.0
    backoff_cap: float = 3600.0

    def __post_init__(self):
        if isinstance(self.max_attempts, bool) \
                or not isinstance(self.max_attempts, int) \
                or not self.max_attempts >= 1:
            raise ControlError(
                f"retry.max_attempts must be a positive integer, "
                f"got {self.max_attempts!r}")
        if not self.backoff_base >= 0:
            raise ControlError(
                f"retry.backoff_base must be >= 0, "
                f"got {self.backoff_base!r}")
        if not self.backoff_factor >= 1.0:
            raise ControlError(
                f"retry.backoff_factor must be >= 1, "
                f"got {self.backoff_factor!r}")
        if not self.backoff_cap >= self.backoff_base:
            raise ControlError(
                f"retry.backoff_cap ({self.backoff_cap!r}) must be >= "
                f"backoff_base ({self.backoff_base!r})")

    def should_retry(self, attempt: int) -> bool:
        """Whether another execution is allowed after ``attempt`` failed."""
        return attempt < self.max_attempts

    def backoff(self, attempt: int) -> float:
        """Simulated seconds to wait before re-running after ``attempt``."""
        if attempt < 1:
            raise ControlError(f"attempt numbers are 1-based, got {attempt}")
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        return min(delay, self.backoff_cap)

    def describe(self) -> str:
        return (f"max {self.max_attempts} attempt(s), backoff "
                f"{self.backoff_base:g}s x{self.backoff_factor:g} "
                f"(cap {self.backoff_cap:g}s)")
