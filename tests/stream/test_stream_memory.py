"""Memory guards: a stream run's heap grows by a few columns per request.

Each request lives in its tenant's :class:`~repro.stream.report.RequestLog`
as one slot of a handful of typed columns, not as per-request Python
objects.  The guards measure *marginal* bytes per request -- the slope
between a small and a large run of the same population -- so imports,
per-tenant set-up and the kernel's fixed state cancel out:

* the traced peak of the run, its report aggregates included;
* the traced peak above the post-run heap while the report summary
  renders, which a render that boxes one float per request exceeds.
"""

import tracemalloc

import pytest

from repro.core.report import stream_summary
from repro.stream import StreamingService, generate_stream

TENANTS = 16
SMALL, LARGE = 200, 1000

#: Marginal traced peak bytes per request.  Narrow typed columns need
#: about 135 B a request; an ``array('q')`` for every int column needs
#: about 170 B, a per-request dataclass and boxed floats 400+.
MAX_BYTES_PER_REQUEST = 150

#: Marginal render transient bytes per request.  Selecting percentiles
#: from ``array('d')`` tallies needs under 1 B a request; a list of
#: boxed latencies and a sorted copy of it need about 44 B.
MAX_RENDER_BYTES_PER_REQUEST = 8


def traced_peaks(requests: int) -> tuple:
    """``(run peak, render peak)`` traced bytes: the peak of one run,
    its report aggregates included, and the peak above the heap it
    leaves while ``stream_summary`` renders."""
    streams = generate_stream(TENANTS, seed=0, arrival="poisson",
                              rate=0.04, requests=requests)
    tracemalloc.start()
    try:
        report = StreamingService().run(streams, seed=0)
        assert report.total_requests == TENANTS * requests
        assert report.miss_fraction >= 0.0   # builds every tally
        run_peak = tracemalloc.get_traced_memory()[1]
        heap = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert stream_summary(report)
        return run_peak, tracemalloc.get_traced_memory()[1] - heap
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def slopes() -> tuple:
    """Marginal ``(run, render)`` bytes per request, SMALL -> LARGE."""
    # Warm every import and memoised plan first, so neither measured
    # run pays a one-off cost the other does not.
    StreamingService().run(generate_stream(TENANTS, seed=0, requests=2))
    small = traced_peaks(SMALL)
    large = traced_peaks(LARGE)
    requests = TENANTS * (LARGE - SMALL)
    return tuple((big - little) / requests
                 for little, big in zip(small, large))


def test_marginal_peak_bytes_per_request(slopes):
    run = slopes[0]
    assert run <= MAX_BYTES_PER_REQUEST, (
        f"{run:.0f} B of traced peak per request")


def test_marginal_render_bytes_per_request(slopes):
    render = slopes[1]
    assert render <= MAX_RENDER_BYTES_PER_REQUEST, (
        f"{render:.1f} B of render transient per request")
