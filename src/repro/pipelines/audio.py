"""The audio pipelines (paper Fig. 5b): Deep-Speech-style front ends.

Chain: read compressed clip -> decode to int16 waveform -> STFT (20 ms
window, 10 ms stride) + 80-bin mel filter bank -> ``frames x 80`` float32
spectrogram.  Concatenation was "technically not feasible" for audio in
the paper, so the strategy list is unprocessed / decoded /
spectrogram-encoded.

Clip durations are derived from the paper's own storage figures and are
internally consistent: Commonvoice decodes to 0.23 MB at 48 kHz int16 =>
~2.4 s clips, whose 10 ms-stride spectrograms are 240 x 80 x 4 B =
0.077 MB (the measured 995 MB / 13 K); Librispeech decodes to 0.40 MB at
16 kHz => 12.5 s utterances with 0.4 MB spectrograms (11.6 GB / 29 K).

Per-second CPU costs are consistent across both datasets (decode
~17 ms/s, STFT+mel ~14 ms/s) -- a strong internal check on the paper's
numbers that we preserve in the calibration.
"""

from __future__ import annotations

from repro import calibration as cal
from repro.datasets.catalog import COMMONVOICE_MP3, LIBRISPEECH_FLAC
from repro.pipelines.base import (NATIVE, PipelineSpec, Representation,
                                  StepSpec)
from repro.units import GB, MB

#: Average clip lengths and sampling rates (derived above).
MP3_CLIP_SECONDS = 2.4
MP3_SAMPLE_RATE = 48_000
FLAC_CLIP_SECONDS = 12.5
FLAC_SAMPLE_RATE = 16_000


# Step bodies import their transforms (and numpy): only the in-process
# backend calls them, so a simulated run never loads the array layer.


def _decode_mp3(sample, rng):
    from repro.formats import codecs
    return codecs.decode_mp3(sample)


def _decode_flac(sample, rng):
    from repro.formats import codecs
    return codecs.decode_flac(sample)


def _make_spectrogram(rate: int):
    def spectrogram(sample, rng):
        from repro.ops import audio as audio_ops
        return audio_ops.spectrogram_encode(sample, rate)
    return spectrogram


def build_mp3() -> PipelineSpec:
    """MP3 on Commonvoice (en): 13 K clips, 250 MB (Fig. 6f)."""
    count = COMMONVOICE_MP3.sample_count
    source_bytes = COMMONVOICE_MP3.total_bytes / count    # 0.0197 MB
    representations = [
        Representation("unprocessed", source_bytes, dtype="uint8",
                       n_files=COMMONVOICE_MP3.n_files, record_format=False,
                       # ~0.02 MB files pay container parsing + codec init
                       # on every open (fitted to the measured 37 SPS).
                       open_latency_factor=2.2),
        Representation("decoded", 3.0 * GB / count, dtype="int16",
                       # Fig. 10k: 3.0 GB -> 2.9 GB (PCM barely deflates).
                       compressibility={"GZIP": 0.033, "ZLIB": 0.033}),
        Representation("spectrogram-encoded", 995 * MB / count,
                       dtype="float32",
                       # Fig. 10k: 996 MB -> 854/855 MB.
                       compressibility={"GZIP": 0.142, "ZLIB": 0.141}),
    ]
    steps = [
        StepSpec("decode",
                 cpu_seconds=cal.AUDIO_DECODE_PER_SECOND * MP3_CLIP_SECONDS,
                 impl=NATIVE, fn=_decode_mp3),
        StepSpec("spectrogram-encode",
                 cpu_seconds=cal.AUDIO_STFT_PER_SECOND * MP3_CLIP_SECONDS,
                 impl=NATIVE, fn=_make_spectrogram(MP3_SAMPLE_RATE)),
    ]
    return PipelineSpec("MP3", representations, steps, count,
                        description="Deep-Speech front end on Commonvoice")


def build_flac() -> PipelineSpec:
    """FLAC on Librispeech: 29 K utterances, 6.61 GB (Fig. 6g)."""
    count = LIBRISPEECH_FLAC.sample_count
    source_bytes = LIBRISPEECH_FLAC.total_bytes / count   # 0.23 MB
    representations = [
        Representation("unprocessed", source_bytes, dtype="uint8",
                       n_files=LIBRISPEECH_FLAC.n_files, record_format=False),
        Representation("decoded", 11.6 * GB / count, dtype="int16",
                       # Fig. 10m: 11.6 GB -> 9.4 GB.
                       compressibility={"GZIP": 0.190, "ZLIB": 0.190}),
        Representation("spectrogram-encoded", 11.6 * GB / count,
                       dtype="float32",
                       # Fig. 10m: 11.6 GB -> 10.5 GB.
                       compressibility={"GZIP": 0.095, "ZLIB": 0.095}),
    ]
    steps = [
        StepSpec("decode",
                 cpu_seconds=cal.AUDIO_DECODE_PER_SECOND * FLAC_CLIP_SECONDS,
                 impl=NATIVE, fn=_decode_flac),
        StepSpec("spectrogram-encode",
                 cpu_seconds=cal.AUDIO_STFT_PER_SECOND * FLAC_CLIP_SECONDS,
                 impl=NATIVE, fn=_make_spectrogram(FLAC_SAMPLE_RATE)),
    ]
    return PipelineSpec("FLAC", representations, steps, count,
                        description="Deep-Speech front end on Librispeech")
