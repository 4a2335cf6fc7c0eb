"""Memory guard: a stream run's heap grows by a few columns per request.

Each request lives in its tenant's :class:`~repro.stream.report.RequestLog`
as one slot of a handful of typed columns, not as per-request Python
objects.  The guard measures the *marginal* traced peak per request --
the slope between a small and a large run of the same population -- so
imports, per-tenant set-up and the kernel's fixed state cancel out.
"""

import tracemalloc

from repro.stream import StreamingService, generate_stream

TENANTS = 16
SMALL, LARGE = 200, 1000

#: Marginal traced peak bytes per request.  Typed columns need about
#: 100 B a request; a per-request dataclass and boxed floats need 400+.
MAX_BYTES_PER_REQUEST = 300


def traced_peak(requests: int) -> int:
    """Peak traced bytes of one run, its report aggregates included."""
    streams = generate_stream(TENANTS, seed=0, arrival="poisson",
                              rate=0.04, requests=requests)
    tracemalloc.start()
    try:
        report = StreamingService().run(streams, seed=0)
        assert report.total_requests == TENANTS * requests
        assert report.miss_fraction >= 0.0   # builds every tally
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_marginal_peak_bytes_per_request():
    # Warm every import and memoised plan first, so neither measured
    # run pays a one-off cost the other does not.
    StreamingService().run(generate_stream(TENANTS, seed=0, requests=2))
    small = traced_peak(SMALL)
    large = traced_peak(LARGE)
    per_request = (large - small) / (TENANTS * (LARGE - SMALL))
    assert per_request <= MAX_BYTES_PER_REQUEST, (
        f"{per_request:.0f} B of traced peak per request")
