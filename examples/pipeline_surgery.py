"""Inserting a new step into a profiled pipeline (paper Sec. 4.6).

Adds a greyscale conversion to the CV pipeline in two positions --
before and after pixel-centering -- and re-profiles.  Placing the
size-reducing step early lifts the pipeline's peak throughput ~2.8x
(Fig. 14), the paper's demonstration that step *order* shifts every
downstream trade-off.

Run:  python examples/pipeline_surgery.py
"""

from repro import RunConfig, SimulatedBackend, SweepEngine, get_pipeline
from repro.core.report import storage_vs_throughput


def main() -> None:
    engine = SweepEngine(SimulatedBackend())
    config = RunConfig()

    variants = [
        ("baseline CV", "CV"),
        ("greyscale BEFORE pixel-center (Fig. 14a)",
         "CV+greyscale-before"),
        ("greyscale AFTER pixel-center (Fig. 14b)", "CV+greyscale-after"),
    ]
    peaks = {}
    for label, name in variants:
        profiles = engine.profile_pipeline(get_pipeline(name),
                                           config=config)
        frame = storage_vs_throughput(profiles)
        print(f"\n{label}:")
        print(frame.select(["strategy", "storage",
                            "throughput_sps"]).to_markdown())
        best = max(profiles, key=lambda p: p.throughput)
        peaks[label] = best

    baseline = peaks["baseline CV"]
    improved = peaks["greyscale BEFORE pixel-center (Fig. 14a)"]
    print(f"\npeak throughput: {baseline.throughput:,.0f} SPS "
          f"({baseline.strategy.split_name}) -> "
          f"{improved.throughput:,.0f} SPS "
          f"({improved.strategy.split_name}), "
          f"a {improved.throughput / baseline.throughput:.1f}x gain from "
          "one well-placed step")


if __name__ == "__main__":
    main()
