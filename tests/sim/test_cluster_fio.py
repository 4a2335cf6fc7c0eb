"""Tests for the storage cluster, fio probe (Table 3) and sysbench probe."""

import pytest

from repro.sim.cluster import StorageCluster
from repro.sim.events import Simulation
from repro.sim.fio import TABLE3_WORKLOADS, FioWorkload, run_fio, run_workload
from repro.sim.storage import HDD_CEPH, SSD_CEPH
from repro.sim.sysbench import run_memory_probe
from repro.units import GB, MB


def test_sequential_read_single_stream():
    sim = Simulation()
    cluster = StorageCluster(sim, HDD_CEPH)

    def proc():
        yield from cluster.read(219 * MB)

    sim.run_process(proc())
    assert sim.now == pytest.approx(1.0)
    assert cluster.files_opened == 0
    assert cluster.bytes_read_from_storage == pytest.approx(219 * MB)


def test_file_open_goes_through_metadata_service():
    sim = Simulation()
    cluster = StorageCluster(sim, HDD_CEPH)

    def proc():
        yield from cluster.read(0.2 * MB, open_file=True)

    sim.run_process(proc())
    assert cluster.files_opened == 1
    expected = HDD_CEPH.open_latency + 0.2 * MB / HDD_CEPH.stream_bw
    assert sim.now == pytest.approx(expected)


# -- Table 3 reproduction ----------------------------------------------------

#: Paper Table 3 bandwidths (MB/s): seq x1, seq x8, rand x1, rand x8.
_PAPER_TABLE3 = (219.0, 910.0, 6.6, 40.4)


@pytest.mark.parametrize("workload, paper_mb_s",
                         list(zip(TABLE3_WORKLOADS, _PAPER_TABLE3)))
def test_fio_matches_paper_table3(workload, paper_mb_s):
    result = run_workload(HDD_CEPH, workload)
    assert result.bandwidth / MB == pytest.approx(paper_mb_s, rel=0.10)


def test_fio_iops_match_paper_order_of_magnitude():
    results = run_fio(HDD_CEPH)
    paper_iops = (53_400, 222_000, 1_629, 9_853)
    for result, expected in zip(results, paper_iops):
        assert result.iops == pytest.approx(expected, rel=0.12)


def test_fio_sequential_beats_random_by_paper_factor():
    """Sec 4.1: sequential is ~33x (1 thread) and ~22x (8 threads) faster."""
    results = {(w.threads, w.is_sequential): r.bandwidth
               for w, r in zip(TABLE3_WORKLOADS, run_fio(HDD_CEPH))}
    single = results[(1, True)] / results[(1, False)]
    multi = results[(8, True)] / results[(8, False)]
    assert single == pytest.approx(33, rel=0.15)
    assert multi == pytest.approx(22.5, rel=0.15)


def test_fio_ssd_random_access_much_faster_than_hdd():
    workload = FioWorkload(threads=8, files_per_thread=500,
                           file_bytes=0.2 * MB)
    hdd = run_workload(HDD_CEPH, workload)
    ssd = run_workload(SSD_CEPH, workload)
    assert ssd.bandwidth > 5 * hdd.bandwidth


def test_sysbench_memory_bandwidth_near_150_gb_s():
    result = run_memory_probe(threads=8, block_bytes=16 * GB)
    assert result.bandwidth == pytest.approx(150 * GB, rel=0.05)


def test_sysbench_single_thread_limited_by_stream_bw():
    result = run_memory_probe(threads=1, block_bytes=16 * GB)
    assert result.bandwidth == pytest.approx(20 * GB, rel=0.05)
