"""Property test: record views and report aggregates read the columns.

A tenant's requests live in a :class:`~repro.stream.report.RequestLog`
of typed columns; :class:`~repro.stream.report.RequestRecord` is a
read-only view built on demand.  Over small random streams (every
arrival kind, admission bounds and shedding on and off, straggler and
brownout windows) this checks that

* every ``tenant.records[i]`` view carries exactly the column values at
  row ``i``, with unset fields reading ``None`` and never NaN;
* ``tally``, ``miss_fraction``, ``out_of_order``, ``makespan`` and
  ``shed_count`` equal the per-record ``latency``/``missed`` arithmetic;
* ``RequestLog.from_records`` rebuilds the same log from the views.
"""

from math import isnan

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import generate_fault_plan
from repro.stream import (RequestLog, RequestPlan, StreamTenantSpec,
                          StreamingService)

PIPELINE_SPLITS = (("MP3", "decoded"), ("FLAC", "spectrogram-encoded"),
                   ("CV2-JPG", "resized"))
ARRIVALS = ("poisson", "burst", "diurnal")
RATES = (2.0, 10.0, 50.0)
STRETCHES = (None, 0.5, 3.0)

#: Optional float fields of a view: column NaN <-> view None.
TIMES = ("deadline", "enqueued", "started", "completed")


def check_views(tenant) -> None:
    log = tenant.log
    records = tenant.records
    assert len(records) == len(log)
    for row, record in enumerate(records):
        assert record.index == log.index[row]
        assert record.arrival == log.arrival[row]
        assert record.batch == log.batch[row]
        assert record.chunk == log.chunk[row]
        assert record.worker == log.worker[row]
        if log.pinned is None:
            assert record.pinned is None
        else:
            pinned = log.pinned[row]
            assert record.pinned == (None if pinned < 0 else pinned)
        assert record.shed is bool(log.shed[row])
        for name in TIMES:
            value = getattr(record, name)
            column = getattr(log, name)[row]
            if isnan(column):
                assert value is None
            else:
                assert value == column and not isnan(value)
    with pytest.raises(AttributeError):
        records[0].completed = 0.0          # views are read-only

    completions = tenant.completions
    assert [record.index for record in completions] \
        == [log.index[row] for row in log.order]

    done = [record for record in records if record.completed is not None]
    assert [log.record(row) for row in tenant.tally.completed] == done
    assert tenant.completed == done
    assert list(tenant.latencies) == [record.latency for record in done]
    missed = sum(record.missed for record in records)
    assert tenant.tally.missed == missed
    assert tenant.miss_fraction == missed / len(records)
    assert tenant.shed_count == sum(record.shed for record in records)
    assert tenant.makespan == max(
        (record.completed for record in done), default=0.0)
    overtaken, frontier = 0, -1
    for record in completions:
        if record.index < frontier:
            overtaken += 1
        else:
            frontier = record.index
    assert tenant.out_of_order == overtaken

    rebuilt = RequestLog.from_records(records, completions)
    assert [rebuilt.record(row) for row in range(len(rebuilt))] == records
    assert rebuilt.order == log.order


tenant_strategy = st.tuples(
    st.integers(0, len(PIPELINE_SPLITS) - 1),
    st.sampled_from(ARRIVALS),
    st.sampled_from(RATES),
    st.integers(1, 10),                      # requests
    st.integers(1, 8),                       # batch
    st.integers(1, 3),                       # workers
    st.integers(0, 3),                       # queue bound
    st.booleans(),                           # shed on overflow?
    st.sampled_from(STRETCHES))

scenario_strategy = st.tuples(
    st.integers(0, 5),                       # schedule seed
    st.lists(tenant_strategy, min_size=1, max_size=3),
    st.integers(0, 2),                       # straggler windows
    st.integers(0, 2))                       # brownout windows


@given(scenario_strategy)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_views_and_aggregates_read_the_columns(scenario):
    seed, tenants, stragglers, brownouts = scenario
    streams = []
    for index, (pipeline_index, arrival, rate, requests, batch, workers,
                queue_bound, shed, stretch) in enumerate(tenants):
        pipeline, split = PIPELINE_SPLITS[pipeline_index]
        streams.append(StreamTenantSpec(
            tenant=f"t{index}", pipeline=pipeline, split=split,
            arrival=arrival, rate=rate, requests=requests, batch=batch,
            workers=workers, queue_bound=queue_bound, shed=shed,
            slo_stretch=stretch))
    plan = generate_fault_plan(seed, horizon=5.0, stragglers=stragglers,
                               brownouts=brownouts)
    report = StreamingService(faults=plan).run(streams, seed=seed)
    for tenant in report.tenants:
        check_views(tenant)
    assert report.total_completed == sum(
        len(tenant.completed) for tenant in report.tenants)
    assert report.makespan == max(tenant.makespan
                                  for tenant in report.tenants)


plan_strategy = st.lists(
    st.tuples(st.sampled_from((0.0, 0.01, 0.5)),   # arrival
              st.sampled_from((1, 2, 64)),         # batch
              st.integers(0, 2)),                  # chunk (re-reads hit)
    min_size=1, max_size=12)


@given(plan_strategy, st.integers(1, 3), st.integers(0, 3), st.booleans())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_views_read_the_columns_of_explicit_plans(requests, workers,
                                                  queue_bound, shed):
    """Uneven batches over shared chunks: out-of-order completions,
    cache hits and ties in arrival order (rows sort by arrival, index)."""
    spec = StreamTenantSpec(tenant="t0", pipeline="MP3", split="decoded",
                            requests=len(requests), workers=workers,
                            queue_bound=queue_bound, shed=shed)
    plans = {"t0": tuple(
        RequestPlan(index=index, arrival=arrival, batch=batch, chunk=chunk)
        for index, (arrival, batch, chunk) in enumerate(requests))}
    tenant = StreamingService().run([spec], plans=plans).tenant("t0")
    check_views(tenant)
    arrivals = list(tenant.log.arrival)
    assert arrivals == sorted(arrivals)
