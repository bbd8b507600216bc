"""Indexed bulk RMA: segment substrate, conduit contract (fast path and
generic per-element fallback), stats accounting, and tracing."""

import numpy as np
import pytest

import repro
from repro.errors import BadPointer
from repro.gasnet.conduit import Conduit
from repro.gasnet.segment import Segment
from repro.gasnet.smp import SmpConduit
from repro.gasnet.stats import CommStats
from repro.gasnet.trace import Trace
from tests.conftest import run_spmd


# -- segment primitives -------------------------------------------------

def test_segment_indexed_read_write():
    seg = Segment(1024)
    base = seg.alloc(40 * 8, align=8)
    view = seg.view(base, np.int64, 40)
    view[:] = np.arange(40)
    idx = np.array([3, 0, 39, 17])
    assert list(seg.typed_read_indexed(base, np.int64, idx)) == [3, 0, 39, 17]
    seg.typed_write_indexed(base, idx, np.array([-1, -2, -3, -4]))
    assert view[3] == -1 and view[0] == -2 and view[39] == -3


def test_segment_indexed_bounds_and_alignment():
    seg = Segment(256)
    base = seg.alloc(8 * 8, align=8)
    with pytest.raises(BadPointer):
        seg.typed_read_indexed(base, np.int64, [8_000])
    with pytest.raises(BadPointer):
        seg.typed_read_indexed(base, np.int64, [-1])
    with pytest.raises(BadPointer):
        seg.typed_read_indexed(base + 1, np.int64, [0])


def test_segment_atomic_batch_duplicates_are_applied():
    """ufunc.at path: duplicate indices apply once each, unlike plain
    fancy assignment."""
    seg = Segment(256)
    base = seg.alloc(4 * 8, align=8)
    seg.view(base, np.int64, 4)[:] = 0
    seg.atomic_batch_update(base, np.int64, [2, 2, 2, 1], "add",
                            [10, 10, 10, 5])
    assert list(seg.view(base, np.int64, 4)) == [0, 5, 30, 0]


def test_segment_atomic_batch_swap_and_old_values():
    seg = Segment(256)
    base = seg.alloc(4 * 8, align=8)
    seg.view(base, np.int64, 4)[:] = [1, 2, 3, 4]
    old = seg.atomic_batch_update(base, np.int64, [0, 3], "swap",
                                  [9, 9], return_old=True)
    assert list(old) == [1, 4]
    assert list(seg.view(base, np.int64, 4)) == [9, 2, 3, 9]
    # duplicate swap: sequential semantics, last write wins
    old = seg.atomic_batch_update(base, np.int64, [1, 1], "swap",
                                  [7, 8], return_old=True)
    assert list(old) == [2, 7]
    assert seg.view(base, np.int64, 4)[1] == 8


# -- conduit fallback vs SMP fast path ----------------------------------

class _FallbackConduit(SmpConduit):
    """SMP transport but *without* the indexed overrides: resolves the
    indexed primitives through the base-class per-element fallback."""

    rma_put_indexed = Conduit.rma_put_indexed
    rma_get_indexed = Conduit.rma_get_indexed
    rma_atomic_batch = Conduit.rma_atomic_batch


def test_generic_fallback_matches_fast_path():
    def body():
        sa = repro.SharedArray(np.int64, size=40, block=3)
        mine = sa.local_indices()
        sa.local_view()[: len(mine)] = mine
        repro.barrier()
        if repro.myrank() == 0:
            idx = np.array([1, 5, 11, 38, 5])
            assert np.array_equal(sa.gather(idx), idx)
            sa.scatter([7, 19], [70, 190])
            assert sa[7] == 70 and sa[19] == 190
            old = sa.atomic_batch([7, 7], "add", [1, 1], return_old=True)
            assert list(old) == [70, 71]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3, conduit=_FallbackConduit()))


def test_fallback_counts_per_element_ops():
    """The fallback issues one scalar conduit op per element — visible in
    stats as zero batched ops (an honest no-coalescing signal)."""
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=16, block=1)
        repro.barrier()
        stats = repro.current_world().ranks[me].stats
        if me == 0:
            s0 = stats.snapshot()
            sa.gather([1, 2, 3])  # ranks 1, 2, 3 at block=1
            s1 = stats.snapshot()
            assert s1["gets"] - s0["gets"] == 3
            assert s1["gets_indexed"] == s0["gets_indexed"]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4, conduit=_FallbackConduit()))


def test_smp_batches_count_once_per_target():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=16, block=1)
        repro.barrier()
        stats = repro.current_world().ranks[me].stats
        if me == 0:
            s0 = stats.snapshot()
            sa.gather([1, 5, 9, 13])        # all rank 1
            sa.scatter([2, 6], [1, 1])      # all rank 2
            sa.atomic_batch([3, 7, 11], "add", 1)  # all rank 3
            s1 = stats.snapshot()
            assert s1["gets_indexed"] - s0["gets_indexed"] == 1
            assert s1["puts_indexed"] - s0["puts_indexed"] == 1
            assert s1["atomic_batches"] - s0["atomic_batches"] == 1
            assert s1["batched_elements"] - s0["batched_elements"] == 9
            assert stats.coalescing_ratio == pytest.approx(
                stats.snapshot()["batched_elements"] / stats.batched_ops
            )
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_stats_batched_counters_reset_and_aggregate():
    s = CommStats()
    s.add(gets_indexed=1, get_bytes=80, batched_elements=10,
          remote_accesses=10)
    s.add(puts_indexed=1, put_bytes=32, batched_elements=4,
          remote_accesses=4)
    s.add(atomic_batches=1, batched_elements=6, remote_accesses=6)
    assert s.batched_ops == 3
    assert s.snapshot()["batched_elements"] == 20
    assert s.coalescing_ratio == pytest.approx(20 / 3)
    assert s.messages == 3
    assert s.snapshot()["remote_accesses"] == 20
    snap = s.snapshot()
    assert snap["gets_indexed"] == 1 and snap["batched_elements"] == 20
    s.reset()
    assert s.batched_ops == 0 and s.coalescing_ratio == 0.0


def test_trace_records_indexed_ops():
    def body():
        sa = repro.SharedArray(np.int64, size=16, block=1)
        repro.barrier()
        trace = None
        if repro.myrank() == 0:
            trace = Trace(repro.current_world())
            with trace:
                sa.gather([1, 5])
                sa.scatter([2, 6], [0, 0])
                sa.atomic_batch([3, 7], "xor", 1)
        repro.barrier()
        if trace is not None:
            assert trace.count(kind="get_indexed") == 1
            assert trace.count(kind="put_indexed") == 1
            assert trace.count(kind="atomic_batch") == 1
            assert trace.bytes(kind="get_indexed") == 2 * 8
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))
