"""PRESTO core: strategies, profiling, analysis and tuning.

This package is the paper's primary contribution -- the Preprocessing
Strategy Optimizer.  The central objects are:

* :class:`repro.core.strategy.Strategy` -- a concrete offline/online split
  of a pipeline plus execution knobs (threads, caching, compression,
  sharding).
* :class:`repro.core.profiler.StrategyProfiler` -- runs strategies on a
  backend and collects the three key metrics (preprocessing time, storage
  consumption, throughput) plus dstat counters.  Execution is delegated
  to the parallel, memoizing :class:`repro.exec.engine.SweepEngine`.
* :class:`repro.core.analysis.StrategyAnalysis` -- normalizes the metrics
  and ranks strategies with the user-weighted objective function of
  paper Sec. 3.1.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.frame": ("Frame",),
    "repro.core.strategy": ("Strategy", "enumerate_strategies"),
    "repro.core.profiler": ("StrategyProfiler", "StrategyProfile"),
    "repro.core.analysis": ("ObjectiveWeights", "StrategyAnalysis"),
})

#: Extension modules (paper Sec. 3.1 / Sec. 7 discussion items):
#: repro.core.economics     - cloud-cost objective
#: repro.core.growth        - dataset-growth extrapolation
#: repro.core.amortization  - offline-time break-even analysis
#: repro.core.distributed   - multi-worker offline + trainer fan-out
#: repro.core.shuffling     - Sec. 4.5 shuffle placement
#: repro.core.training      - Fig. 3 stall model

__all__ = [
    "Frame",
    "Strategy",
    "enumerate_strategies",
    "StrategyProfiler",
    "StrategyProfile",
    "ObjectiveWeights",
    "StrategyAnalysis",
]
