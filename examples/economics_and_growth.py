"""Beyond the paper: dollars, deadlines and growing datasets.

Three extensions the paper sketches in its discussion sections, built on
the same profiles:

1. **Cloud cost** (Sec. 3.1): price each CV strategy for a 10-epoch
   training project -- stalled GPUs turn "free" unprocessed pipelines
   into the most expensive option.
2. **Amortisation** (Sec. 2): how many epochs until offline
   preprocessing pays for itself.
3. **Dataset growth** (Sec. 7): at what growth factor each CV2-JPG
   representation stops fitting in RAM and caching dies.

Run:  python examples/economics_and_growth.py
"""

from repro import (Environment, RunConfig, SimulatedBackend, SweepEngine,
                   get_pipeline)
from repro.core.amortization import amortization_frame, break_even_epochs
from repro.core.economics import PriceSheet, cost_frame
from repro.core.growth import find_threshold_crossings


def main() -> None:
    engine = SweepEngine(SimulatedBackend())

    print("1) Cloud cost of the CV strategies "
          "(10 epochs on a V100, 1 month of storage):")
    cv_profiles = engine.profile_pipeline(get_pipeline("CV"))
    print(cost_frame(cv_profiles, PriceSheet(), epochs=10).to_markdown())

    print("\n2) When does offline preprocessing amortise? (CV2-JPG)")
    cv2_profiles = engine.profile_pipeline(get_pipeline("CV2-JPG"))
    by_name = {p.strategy.split_name: p for p in cv2_profiles}
    epochs = break_even_epochs(by_name["unprocessed"], by_name["resized"])
    print(f"   resized beats unprocessed end-to-end after {epochs} "
          "epoch(s)")
    print(amortization_frame(cv2_profiles,
                             horizons=(1, 5, 100)).to_markdown())

    print("\n3) Dataset growth: when does caching die? (CV2-JPG, 80 GB RAM)")
    print(find_threshold_crossings(get_pipeline("CV2-JPG"),
                                   Environment()).to_markdown())
    print("\nA representation whose ram_crossing_factor is small will "
          "lose its cached-epoch\nadvantage first as the dataset grows -- "
          "re-profile before that happens.")


if __name__ == "__main__":
    main()
