"""An LRU page cache.

Models the operating-system page cache on the training VM.  Entries are
(key, size) pairs at whatever granularity the caller reads -- the simulated
backend reads job-sized chunks, so partial caching of large files behaves
like real page-level caching.

The classic behaviours the paper relies on emerge from plain LRU:

* dataset fits in RAM -> second epoch hits entirely (Sec. 4.2 obs. 1);
* dataset slightly exceeds RAM -> sequential re-reads evict the pages just
  before they would be needed (scan thrashing), so the second epoch gets
  ~zero hits, matching the paper's binary fits/doesn't-fit observation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from repro.errors import StorageError


class PageCache:
    """Byte-budgeted LRU cache over opaque keys."""

    def __init__(self, capacity_bytes: float, name: str = "page-cache"):
        if isinstance(capacity_bytes, bool) or not capacity_bytes >= 0:
            raise StorageError(
                f"cache capacity must be non-negative, got "
                f"{capacity_bytes!r}")
        self.capacity_bytes = float(capacity_bytes)
        self.name = name
        self._entries: OrderedDict[Hashable, float] = OrderedDict()
        self._used = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- queries -------------------------------------------------------------

    @property
    def used_bytes(self) -> float:
        """Bytes currently cached."""
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit, 0.0 if never queried."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- operations ----------------------------------------------------------

    def lookup(self, key: Hashable) -> bool:
        """Check for ``key``; counts a hit/miss and refreshes recency."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key: Hashable, nbytes: float) -> None:
        """Cache ``nbytes`` under ``key``, evicting LRU entries as needed.

        Objects larger than the whole cache are not admitted (the kernel
        would never keep a single streaming read that exceeds RAM).
        """
        if nbytes < 0:
            raise StorageError(f"negative object size: {nbytes}")
        if nbytes > self.capacity_bytes:
            return
        if key in self._entries:
            self._used -= self._entries.pop(key)
        while self._used + nbytes > self.capacity_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._used -= evicted
            self.evictions += 1
        self._entries[key] = float(nbytes)
        self._used += float(nbytes)

    def drop(self) -> None:
        """Drop all cached pages (the paper's ``echo 3 > drop_caches``)."""
        self._entries.clear()
        self._used = 0.0

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters, keeping contents."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
