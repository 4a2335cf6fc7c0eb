"""The CV pipelines (paper Fig. 2): ILSVRC2012, Cube++ JPG, Cube++ PNG.

Chain: read -> concatenate -> decode -> resize -> pixel-center ->
random-crop, where random-crop is the single non-deterministic step that
must always run online (paper Sec. 1 footnote).

Representation sizes are the paper's measured storage consumptions
(Fig. 6a-c); per-sample figures divide by the Table 2 sample counts.
Compressibility fractions are the paper's Fig. 10 space savings -- note
how the PNG-sourced pipeline compresses far better downstream than the
JPG-sourced one because lossy-decode artifacts poison DEFLATE (Sec. 4.3
obs. 1).
"""

from __future__ import annotations

from repro import calibration as cal
from repro.datasets.catalog import CUBE_JPG, CUBE_PNG, ILSVRC2012
from repro.formats.record import RECORD_FRAMING_BYTES
from repro.pipelines.base import (EXTERNAL, NATIVE, PipelineSpec,
                                  Representation, StepSpec)
from repro.units import GB

#: Model-input geometry: resize target and crop window (299x299 matches
#: the paper's measured 0.267 MB resized samples: 299*299*3 bytes).
RESIZE_HW = (299, 299)
CROP_HW = (280, 280)


# Step bodies import their transforms (and numpy): only the in-process
# backend calls them, so a simulated run never loads the array layer.


def _decode_jpg(sample, rng):
    from repro.formats import codecs
    return codecs.decode_jpg(sample)


def _decode_png(sample, rng):
    from repro.formats import codecs
    return codecs.decode_png(sample)


def _to_uint8(sample):
    import numpy as np
    if sample.dtype == np.uint16:
        return (sample >> 8).astype(np.uint8)
    return sample


def _resize(sample, rng):
    from repro.ops import image as image_ops
    return image_ops.resize_bilinear(_to_uint8(sample), *RESIZE_HW)


def _pixel_center(sample, rng):
    from repro.ops import image as image_ops
    return image_ops.pixel_center(sample)


def _random_crop(sample, rng):
    from repro.ops import image as image_ops
    # Adaptive window: the in-process backend runs on miniature images,
    # so the crop clamps to the actual dimensions (the simulator charges
    # the calibrated full-scale cost regardless).
    height = min(CROP_HW[0], sample.shape[0])
    width = min(CROP_HW[1], sample.shape[1])
    return image_ops.random_crop(sample, height, width, rng=rng)


def _greyscale(sample, rng):
    from repro.ops import image as image_ops
    return image_ops.greyscale(sample)


def _cv_steps(decode_cost: float, decode_fn, resize_cost: float,
              center_cost: float, crop_cost: float) -> list[StepSpec]:
    """The shared CV step chain with per-pipeline calibrated costs."""
    return [
        StepSpec("concatenate", cpu_seconds=0.0, impl=NATIVE,
                 fn=lambda sample, rng: sample),
        StepSpec("decode", cpu_seconds=decode_cost, impl=NATIVE,
                 fn=decode_fn),
        StepSpec("resize", cpu_seconds=resize_cost, impl=NATIVE, fn=_resize),
        StepSpec("pixel-center", cpu_seconds=center_cost, impl=NATIVE,
                 fn=_pixel_center),
        StepSpec("random-crop", cpu_seconds=crop_cost, impl=NATIVE,
                 deterministic=False, fn=_random_crop),
    ]


def build_cv() -> PipelineSpec:
    """CV on ILSVRC2012: 1.3 M low-res JPGs, 146.9 GB (Fig. 6a)."""
    count = ILSVRC2012.sample_count
    source_bytes = ILSVRC2012.total_bytes / count       # 0.113 MB
    representations = [
        Representation("unprocessed", source_bytes, dtype="uint8",
                       n_files=ILSVRC2012.n_files, record_format=False),
        Representation("concatenated", source_bytes + RECORD_FRAMING_BYTES,
                       dtype="uint8",
                       # Fig. 10a: 147 GB -> 146 GB under GZIP/ZLIB.
                       compressibility={"GZIP": 0.007, "ZLIB": 0.007}),
        Representation("decoded", 842.5 * GB / count, dtype="uint8",
                       # Fig. 10a: 842.5 GB -> 598 GB.
                       compressibility={"GZIP": 0.290, "ZLIB": 0.290}),
        Representation("resized", 347.3 * GB / count, dtype="uint8",
                       # Fig. 10a: 347.3 GB -> 267 GB.
                       compressibility={"GZIP": 0.231, "ZLIB": 0.231}),
        Representation("pixel-centered", 1_390 * GB / count, dtype="float32",
                       # Fig. 10a: 1.39 TB -> 379 GB.
                       compressibility={"GZIP": 0.727, "ZLIB": 0.727}),
        Representation("random-cropped",
                       CROP_HW[0] * CROP_HW[1] * 3 * 4, dtype="float32"),
    ]
    steps = _cv_steps(cal.CV_DECODE_JPEG, _decode_jpg, cal.CV_RESIZE,
                      cal.CV_PIXEL_CENTER, cal.CV_RANDOM_CROP)
    return PipelineSpec("CV", representations, steps, count,
                        description="ResNet-style ImageNet preprocessing")


def build_cv2_jpg() -> PipelineSpec:
    """CV2-JPG on Cube++ JPGs: 4890 high-res images, 2.54 GB (Fig. 6b)."""
    count = CUBE_JPG.sample_count
    source_bytes = CUBE_JPG.total_bytes / count          # 0.52 MB
    representations = [
        Representation("unprocessed", source_bytes, dtype="uint8",
                       n_files=CUBE_JPG.n_files, record_format=False),
        Representation("concatenated", source_bytes + RECORD_FRAMING_BYTES,
                       dtype="uint8",
                       compressibility={"GZIP": 0.0, "ZLIB": 0.0}),
        Representation("decoded", 65.7 * GB / count, dtype="uint8",
                       # Fig. 10c: 65.7 GB -> 38.6 GB (artifact-limited).
                       compressibility={"GZIP": 0.4125, "ZLIB": 0.4125}),
        Representation("resized", 1.4 * GB / count, dtype="uint8",
                       # Fig. 10c: 1.4 GB -> 1.1 GB.
                       compressibility={"GZIP": 0.214, "ZLIB": 0.214}),
        Representation("pixel-centered", 5.8 * GB / count, dtype="float32",
                       # Fig. 10c: 5.8 GB -> 1.5 GB.
                       compressibility={"GZIP": 0.741, "ZLIB": 0.741}),
        Representation("random-cropped",
                       CROP_HW[0] * CROP_HW[1] * 3 * 4, dtype="float32"),
    ]
    steps = _cv_steps(cal.CV2_DECODE_JPEG, _decode_jpg, cal.CV2_RESIZE,
                      cal.CV2_PIXEL_CENTER, cal.CV2_RANDOM_CROP)
    return PipelineSpec("CV2-JPG", representations, steps, count,
                        description="high-resolution Cube++ JPG flavour")


def build_cv2_png() -> PipelineSpec:
    """CV2-PNG on Cube++ 16-bit PNGs: 4890 images, 85.17 GB (Fig. 6c)."""
    count = CUBE_PNG.sample_count
    source_bytes = CUBE_PNG.total_bytes / count          # 17.4 MB
    representations = [
        Representation("unprocessed", source_bytes, dtype="uint16",
                       n_files=CUBE_PNG.n_files, record_format=False),
        # The paper measures 87.2 GB after concatenation (record framing
        # plus shard padding on multi-MB samples).
        Representation("concatenated", 87.2 * GB / count, dtype="uint16",
                       # Fig. 10e: 87.2 GB -> 87.0 GB.
                       compressibility={"GZIP": 0.0023, "ZLIB": 0.0023}),
        Representation("decoded", 65.7 * GB / count, dtype="uint8",
                       # Fig. 10e: 65.7 GB -> 11.1 GB -- lossless source
                       # keeps decoded pixels highly compressible.
                       compressibility={"GZIP": 0.831, "ZLIB": 0.831}),
        Representation("resized", 1.4 * GB / count, dtype="uint8",
                       # Fig. 10e: 1.4 GB -> 280 MB.
                       compressibility={"GZIP": 0.800, "ZLIB": 0.800}),
        Representation("pixel-centered", 5.8 * GB / count, dtype="float32",
                       # Fig. 10e: 5.8 GB -> 402 MB.
                       compressibility={"GZIP": 0.931, "ZLIB": 0.931}),
        Representation("random-cropped",
                       CROP_HW[0] * CROP_HW[1] * 3 * 4, dtype="float32"),
    ]
    steps = _cv_steps(cal.CV2_DECODE_PNG, _decode_png, cal.CV2_RESIZE,
                      cal.CV2_PIXEL_CENTER, cal.CV2_RANDOM_CROP)
    return PipelineSpec("CV2-PNG", representations, steps, count,
                        description="16-bit PNG Cube++ flavour")


# ---------------------------------------------------------------------------
# Sec. 4.6 case study: inserting a greyscale step
# ---------------------------------------------------------------------------


def build_cv_greyscale_before_center() -> PipelineSpec:
    """Fig. 14a: greyscale between resize and pixel-center.

    Greyscale drops 3 channels to 1, so everything downstream shrinks by
    3x: 347.3 GB resized -> 115.8 GB greyscale -> 463 GB float32.
    """
    base = build_cv()
    count = base.sample_count
    grey_step = StepSpec("greyscale", cpu_seconds=cal.CV_GREYSCALE,
                         impl=NATIVE, fn=_greyscale)
    grey_rep = Representation(
        "applied-greyscale", 115.8 * GB / count, dtype="uint8",
        compressibility={"GZIP": 0.30, "ZLIB": 0.30})
    # Insert after resize (step index 3), then shrink pixel-centered 3x.
    modified = base.with_step_inserted(3, grey_step, grey_rep)
    modified = modified.with_representation(
        "pixel-centered", bytes_per_sample=463 * GB / count)
    modified = modified.with_representation(
        "random-cropped",
        bytes_per_sample=CROP_HW[0] * CROP_HW[1] * 1 * 4)
    return modified.renamed("CV+greyscale-before")


def build_cv_greyscale_after_center() -> PipelineSpec:
    """Fig. 14b: greyscale after pixel-center (1.39 TB still materialised)."""
    base = build_cv()
    count = base.sample_count
    grey_step = StepSpec("greyscale", cpu_seconds=cal.CV_GREYSCALE,
                         impl=NATIVE, fn=_greyscale)
    grey_rep = Representation(
        "applied-greyscale", 463 * GB / count, dtype="float32",
        compressibility={"GZIP": 0.72, "ZLIB": 0.72})
    modified = base.with_step_inserted(4, grey_step, grey_rep)
    modified = modified.with_representation(
        "random-cropped",
        bytes_per_sample=CROP_HW[0] * CROP_HW[1] * 1 * 4)
    return modified.renamed("CV+greyscale-after")
