"""Objective weights change the answer (paper Sec. 3.1 scenario).

Hyperparameter tuning before a deadline wants low preprocessing time AND
high throughput -- weights (w_p, w_s, w_t) = (1, 0, 1).  A throughput-
only objective (0, 0, 1) is the paper's recommended default.  This
example profiles the CV pipeline once and ranks it under both
objectives, plus a storage-constrained one.

Run:  python examples/deadline_tuning.py
"""

from repro import (ObjectiveWeights, RunConfig, SimulatedBackend,
                   StrategyAnalysis, SweepEngine, get_pipeline)

SCENARIOS = [
    ("throughput only (default)", ObjectiveWeights(0, 0, 1)),
    ("deadline: tune a model by tomorrow", ObjectiveWeights(1, 0, 1)),
    ("storage-constrained cluster", ObjectiveWeights(0, 1, 1)),
]


def main() -> None:
    engine = SweepEngine(SimulatedBackend())
    profiles = engine.profile_pipeline(get_pipeline("CV"),
                                       config=RunConfig())
    analysis = StrategyAnalysis(profiles)

    for label, weights in SCENARIOS:
        best = analysis.best(weights)
        print(f"{label}:")
        print(f"  weights (w_p, w_s, w_t) = ({weights.preprocessing:g}, "
              f"{weights.storage:g}, {weights.throughput:g})")
        print(f"  -> materialise {best.strategy.split_name!r}: "
              f"{best.throughput:,.0f} SPS, "
              f"{best.storage_bytes / 1e9:,.0f} GB, "
              f"{best.preprocessing_seconds / 3600:.1f} h preprocessing\n")

    print("full ranking under the deadline objective:")
    ranked = analysis.ranked(ObjectiveWeights(1, 0, 1)).select(
        ["strategy", "throughput_sps", "preprocessing_s", "score"])
    print(ranked.to_markdown())


if __name__ == "__main__":
    main()
