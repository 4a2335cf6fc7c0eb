"""On-disk formats: record framing, tensor serialization, codecs.

* :mod:`repro.formats.record` -- TFRecord-like framing: length-prefixed,
  CRC-checked records that concatenate into sequential-friendly shards.
* :mod:`repro.formats.tensor` -- the protobuf stand-in: a compact tensor
  wire format (dtype, shape, payload).
* :mod:`repro.formats.compression` -- GZIP/ZLIB codecs (real zlib under
  the hood) plus the cost/ratio models used by the simulator.
* :mod:`repro.formats.codecs` -- source-file codecs (synthetic JPG, PNG,
  MP3, FLAC, HDF5, HTML/TXT) with realistic size ratios.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.formats.record": ("RecordCorruptionError", "read_records",
                             "record_overhead", "write_records"),
    "repro.formats.tensor": ("deserialize_tensor", "serialize_tensor"),
})

__all__ = [
    "read_records",
    "write_records",
    "record_overhead",
    "RecordCorruptionError",
    "serialize_tensor",
    "deserialize_tensor",
]
