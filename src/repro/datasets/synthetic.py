"""Seeded synthetic sample generators for the in-process backend.

Each generator produces *encoded source payloads* (bytes in the dataset's
raw format) at a configurable miniature scale, so the in-process backend
can run the full decode -> transform chain on real data without the
multi-gigabyte originals.  Payload structure matches the real formats'
character: smooth images (JPG compresses them), speech-like waveforms,
mains-frequency electrical windows, and HTML-wrapped prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import PipelineError
from repro.formats import codecs
from repro.ops import audio as audio_ops
from repro.ops import nilm as nilm_ops

#: Miniature geometry used by tests and the in-process backend.
SMALL_IMAGE_HW = (96, 128)
SMALL_AUDIO_SECONDS = 0.5
SMALL_AUDIO_RATE = 16_000
SMALL_NILM_SAMPLES = 2_560  # divisible by the 128-sample period


def smooth_image(rng: np.random.Generator,
                 height: int = SMALL_IMAGE_HW[0],
                 width: int = SMALL_IMAGE_HW[1],
                 channels: int = 3,
                 dtype=np.uint8) -> np.ndarray:
    """A natural-image stand-in: low-frequency noise upsampled.

    Smoothness matters: it gives the synthetic JPG/PNG codecs realistic
    compression ratios instead of incompressible white noise.
    """
    coarse_h, coarse_w = max(2, height // 8), max(2, width // 8)
    coarse = rng.uniform(0.0, 1.0, size=(coarse_h, coarse_w, channels))
    rows = np.linspace(0, coarse_h - 1, height)
    cols = np.linspace(0, coarse_w - 1, width)
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    r1 = np.minimum(r0 + 1, coarse_h - 1)
    c1 = np.minimum(c0 + 1, coarse_w - 1)
    fr = (rows - r0)[:, None, None]
    fc = (cols - c0)[None, :, None]
    blended = (coarse[r0][:, c0] * (1 - fr) * (1 - fc)
               + coarse[r0][:, c1] * (1 - fr) * fc
               + coarse[r1][:, c0] * fr * (1 - fc)
               + coarse[r1][:, c1] * fr * fc)
    # Sensor-noise floor of ~1 grey level: visible texture without
    # destroying the compressibility that natural images exhibit.
    blended += rng.normal(0.0, 0.004, size=blended.shape)
    info = np.iinfo(dtype)
    return np.clip(blended * info.max, 0, info.max).astype(dtype)


_WORDS = (
    "data pipeline training throughput storage bottleneck epoch tensor "
    "model preprocessing cache compress decode resize shuffle batch "
    "network cluster reader thread sample gradient feature window signal"
).split()


def prose(rng: np.random.Generator, n_words: int = 200) -> str:
    """Deterministic pseudo-prose for the NLP source documents."""
    picks = rng.integers(0, len(_WORDS), size=n_words)
    return " ".join(_WORDS[int(index)] for index in picks)


# -- per-pipeline source payload generators ---------------------------------


def cv_sample(rng: np.random.Generator) -> bytes:
    return codecs.encode_jpg(smooth_image(rng))


def cv2_jpg_sample(rng: np.random.Generator) -> bytes:
    height, width = SMALL_IMAGE_HW
    return codecs.encode_jpg(smooth_image(rng, height * 2, width * 2))


def cv2_png_sample(rng: np.random.Generator) -> bytes:
    height, width = SMALL_IMAGE_HW
    return codecs.encode_png(
        smooth_image(rng, height * 2, width * 2, dtype=np.uint16))


def nlp_sample(rng: np.random.Generator) -> bytes:
    return codecs.encode_html(prose(rng), title=f"doc-{rng.integers(1e6)}")


def nilm_sample(rng: np.random.Generator) -> bytes:
    window = nilm_ops.synth_mains_window(rng, n_samples=SMALL_NILM_SAMPLES)
    return codecs.encode_hdf5(window)


def mp3_sample(rng: np.random.Generator) -> bytes:
    waveform = audio_ops.synth_waveform(SMALL_AUDIO_SECONDS,
                                        SMALL_AUDIO_RATE, rng)
    return codecs.encode_mp3(waveform)


def flac_sample(rng: np.random.Generator) -> bytes:
    waveform = audio_ops.synth_waveform(SMALL_AUDIO_SECONDS,
                                        SMALL_AUDIO_RATE, rng)
    return codecs.encode_flac(waveform)


_GENERATORS: dict[str, Callable[[np.random.Generator], bytes]] = {
    "CV": cv_sample,
    "CV+greyscale-before": cv_sample,
    "CV+greyscale-after": cv_sample,
    "CV2-JPG": cv2_jpg_sample,
    "CV2-PNG": cv2_png_sample,
    "NLP": nlp_sample,
    "NILM": nilm_sample,
    "MP3": mp3_sample,
    "FLAC": flac_sample,
}


@dataclass(frozen=True)
class SyntheticSource:
    """A seeded, repeatable source of encoded samples for one pipeline."""

    pipeline: str
    sample_count: int
    seed: int = 0

    def __post_init__(self):
        if self.pipeline not in _GENERATORS:
            raise PipelineError(
                f"no synthetic generator for pipeline {self.pipeline!r}; "
                f"known: {sorted(_GENERATORS)}")
        if self.sample_count < 1:
            raise PipelineError("sample count must be positive")

    def generate(self):
        """Yield ``sample_count`` encoded payloads, deterministically."""
        make = _GENERATORS[self.pipeline]
        for index in range(self.sample_count):
            rng = np.random.default_rng((self.seed, index))
            yield make(rng)


def supported_pipelines() -> list[str]:
    return sorted(_GENERATORS)
