"""Declarative RPC call policies: timeout, bounded retries, failover.

"Core services are replicated to ensure an adequate level of performance
and reliability" (Section 2).  A :class:`CallPolicy` makes the whole
reliability envelope of an RPC declarative:

* ``timeout`` — simulated seconds a caller waits for the reply before the
  :data:`~repro.grid.agent._TIMEOUT` sentinel fires (None = wait forever);
* ``retries`` — extra attempts against the *same* provider after a
  failure or timeout;
* ``backoff`` / ``backoff_factor`` — deterministic exponential pause
  before retry *k*: ``backoff * backoff_factor**(k-1)`` simulated seconds
  (no jitter: simulation runs must stay exactly reproducible);
* ``size`` — request payload size for network-delay modelling.

Failover across *providers* composes on top: ``Agent.call_any`` walks a
provider list applying the policy per provider, which is exactly what the
planning service's Figure-3 flow needs to survive a crashed brokerage
replica.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GridError

__all__ = ["CallPolicy", "DEFAULT_POLICY"]


@dataclass(frozen=True)
class CallPolicy:
    """Reliability envelope for one RPC (or one RPC per provider)."""

    timeout: float | None = None
    retries: int = 0
    backoff: float = 0.0
    backoff_factor: float = 2.0
    size: float = 1_000.0

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise GridError(f"call timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise GridError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise GridError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor <= 0:
            raise GridError(
                f"backoff_factor must be positive, got {self.backoff_factor}"
            )
        if self.size < 0:
            raise GridError(f"message size must be >= 0, got {self.size}")

    @property
    def attempts(self) -> int:
        return self.retries + 1

    def backoff_before(self, attempt: int) -> float:
        """Pause before 1-based retry *attempt* (attempt 0 is the first
        try and never pauses)."""
        if attempt <= 0 or self.backoff == 0.0:
            return 0.0
        return self.backoff * self.backoff_factor ** (attempt - 1)

    def with_timeout(self, timeout: float | None) -> "CallPolicy":
        from dataclasses import replace

        return replace(self, timeout=timeout)


#: The zero-cost default: single attempt, no timeout — byte-for-byte the
#: behaviour of the pre-bus substrate.  ``Agent.call`` shares this one
#: instance whenever the caller names no policy.
DEFAULT_POLICY = CallPolicy()
