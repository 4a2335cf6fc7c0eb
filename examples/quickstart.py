"""Quickstart: profile a pipeline and pick the best strategy.

Profiles all five strategies of the paper's CV pipeline (ImageNet-style
preprocessing) on the simulated cluster, prints the trade-off table and
lets PRESTO recommend a strategy -- reproducing the paper's headline
result that materialising the ``resized`` representation beats both
extremes by a wide margin.

Run:  python examples/quickstart.py
"""

from repro import (RunConfig, SimulatedBackend, StrategyAnalysis,
                   SweepEngine, get_pipeline)
from repro.core.report import tradeoff_table


def main() -> None:
    pipeline = get_pipeline("CV")
    print(f"pipeline: {pipeline}")
    print(f"dataset:  {pipeline.sample_count:,} samples, "
          f"{pipeline.source.total_bytes(pipeline.sample_count) / 1e9:.1f} GB\n")

    engine = SweepEngine(SimulatedBackend())
    profiles = engine.profile_pipeline(pipeline, config=RunConfig())

    print("Table 1 style trade-offs:")
    print(tradeoff_table(profiles).to_markdown())
    print()

    analysis = StrategyAnalysis(profiles)
    print(analysis.summary())


if __name__ == "__main__":
    main()
