"""Execution backends for strategy profiling.

All backends expose the same contract (:class:`repro.backends.base.Backend`):
given a :class:`~repro.pipelines.base.SplitPlan` and a
:class:`~repro.backends.base.RunConfig`, produce a
:class:`~repro.backends.base.StrategyRunResult` with the paper's three key
metrics -- preprocessing time, storage consumption, throughput -- plus
dstat-style counters.

* :class:`~repro.backends.simulated.SimulatedBackend` -- deterministic
  discrete-event execution at full dataset scale (regenerates the paper).
* :class:`~repro.backends.analytic.AnalyticModel` -- closed-form
  bottleneck estimates (fast pre-screening; cross-validated vs the DES).
* :class:`~repro.backends.inprocess.InProcessBackend` -- really runs the
  NumPy ops on real bytes through the threaded pipeline runtime.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.backends.base": ("Environment", "EpochResult", "OfflineResult",
                            "RunConfig", "StrategyRunResult"),
    "repro.backends.simulated": ("SimulatedBackend",),
    "repro.backends.analytic": ("AnalyticModel",),
    "repro.backends.inprocess": ("InProcessBackend",),
})

__all__ = [
    "Environment",
    "EpochResult",
    "OfflineResult",
    "RunConfig",
    "StrategyRunResult",
    "SimulatedBackend",
    "AnalyticModel",
    "InProcessBackend",
]
