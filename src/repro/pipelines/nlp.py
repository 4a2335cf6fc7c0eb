"""The NLP pipeline (paper Fig. 5a): GPT-2-style OpenWebText processing.

Chain: read text files -> concatenate -> decode (HTML extraction via the
``newspaper`` library, wrapped in ``tf.py_function`` and hence GIL-bound)
-> byte-pair encode each word to int32 -> look up a 768-dim word2vec
embedding, stacking to an ``n x 768`` float32 tensor.

This pipeline carries two of the paper's headline effects:

* the 6 SPS CPU wall on ``unprocessed``/``concatenated`` that neither
  concatenation, SSDs, nor caching can move (decode holds the GIL);
* the 64x storage blow-up of ``embedded`` (647 MB -> 490.7 GB) that makes
  the *fully preprocessed* strategy 13x slower than stopping at
  ``bpe-encoded`` -- the paper's strongest argument that "preprocess
  everything once" is a trap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import calibration as cal
from repro.datasets.catalog import OPENWEBTEXT
from repro.formats.record import RECORD_FRAMING_BYTES
from repro.pipelines.base import (EXTERNAL, NATIVE, PipelineSpec,
                                  Representation, StepSpec)
from repro.units import GB, MB

if TYPE_CHECKING:   # pragma: no cover - annotations only
    from repro.ops.text import BPEVocab, EmbeddingTable

# Step bodies import their transforms (and numpy): only the in-process
# backend calls them, so a simulated run never loads the array layer.

#: Shared embedding table for the in-process step (deterministic),
#: built on first in-process use.
_EMBEDDING_CACHE: dict[str, EmbeddingTable] = {}

#: Small default vocabulary trained lazily on first in-process use.
_VOCAB_CACHE: dict[str, BPEVocab] = {}


def _get_embedding() -> EmbeddingTable:
    table = _EMBEDDING_CACHE.get("default")
    if table is None:
        from repro.ops import text as text_ops
        table = text_ops.EmbeddingTable(dim=text_ops.EMBEDDING_DIM, seed=7)
        _EMBEDDING_CACHE["default"] = table
    return table


def _get_vocab() -> BPEVocab:
    vocab = _VOCAB_CACHE.get("default")
    if vocab is None:
        from repro.ops import text as text_ops
        corpus = [
            "the quick brown fox jumps over the lazy dog",
            "deep learning pipelines need fast preprocessing",
            "storage consumption and throughput trade off constantly",
            "reading the dataset from disk every epoch is expensive",
        ]
        vocab = text_ops.train_bpe(corpus, n_merges=120)
        _VOCAB_CACHE["default"] = vocab
    return vocab


def _decode(sample, rng):
    from repro.formats import codecs
    return codecs.decode_html(sample)


def _bpe_encode(sample, rng):
    from repro.ops import text as text_ops
    return text_ops.bpe_encode(sample, _get_vocab())


def _embed(sample, rng):
    return _get_embedding().embed(sample)


def build_nlp() -> PipelineSpec:
    """NLP on OpenWebText: 181 K scraped pages, 7.71 GB (Fig. 6d)."""
    count = OPENWEBTEXT.sample_count
    source_bytes = OPENWEBTEXT.total_bytes / count       # 0.043 MB
    representations = [
        Representation("unprocessed", source_bytes, dtype="uint8",
                       n_files=OPENWEBTEXT.n_files, record_format=False),
        Representation("concatenated", source_bytes + RECORD_FRAMING_BYTES,
                       dtype="uint8",
                       # Fig. 10g: 7.7 GB -> 1.6 GB (text deflates well).
                       compressibility={"GZIP": 0.792, "ZLIB": 0.792}),
        Representation("decoded", 594 * MB / count, dtype="uint8",
                       # Fig. 10g: 594 MB -> 233 MB.
                       compressibility={"GZIP": 0.608, "ZLIB": 0.608}),
        Representation("bpe-encoded", 647 * MB / count, dtype="int32",
                       # Fig. 10g: 647 MB -> 223 MB; the paper notes ZLIB
                       # was slightly *slower* than GZIP only here.
                       compressibility={"GZIP": 0.655, "ZLIB": 0.655}),
        Representation("embedded", 490.7 * GB / count, dtype="float32",
                       # Fig. 10g: 490.7 GB -> 354 GB.
                       compressibility={"GZIP": 0.279, "ZLIB": 0.279},
                       # 2.7 MB protobuf messages of repeated floats parse
                       # ~4x slower than the byte-blob baseline (fitted to
                       # the measured 131 SPS / 315 MB/s reads).
                       deser_penalty=4.0),
    ]
    steps = [
        StepSpec("concatenate", cpu_seconds=0.0, impl=NATIVE,
                 fn=lambda sample, rng: sample),
        StepSpec("decode", cpu_seconds=cal.NLP_DECODE_HTML, impl=EXTERNAL,
                 fn=_decode),
        StepSpec("bpe-encode", cpu_seconds=cal.NLP_BPE_ENCODE, impl=EXTERNAL,
                 fn=_bpe_encode),
        StepSpec("embed", cpu_seconds=cal.NLP_EMBED, impl=NATIVE, fn=_embed),
    ]
    return PipelineSpec("NLP", representations, steps, count,
                        description="GPT-2-style OpenWebText preprocessing")
