"""SMP conduit: one-sided RMA semantics, stats, fault injection."""

import numpy as np
import pytest

import repro
from repro.errors import PgasError
from repro.gasnet.conduit import Layer
from tests.conftest import run_spmd


def test_rma_put_get_roundtrip_between_ranks():
    def body():
        me = repro.myrank()
        ptr = None
        if me == 0:
            ptr = repro.allocate(0, 16, np.int32)
        ptr = repro.collectives.bcast(ptr, root=0)
        if me == 1:
            ptr.put(np.arange(16, dtype=np.int32))
        repro.barrier()
        got = ptr.get(16)
        assert np.array_equal(got, np.arange(16, dtype=np.int32))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_rma_is_one_sided_no_target_handler():
    """A put to a rank that never calls advance() still completes —
    the RDMA contract."""
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=4, block=1)
        repro.barrier()
        if me == 1:
            sa[0] = 99  # element 0 lives on rank 0
            assert sa[0] == 99  # read back without rank 0's involvement
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_conduit_stats_attribution():
    """RMA ops are charged to the *initiator*, not the target."""
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=2, block=1)
        repro.barrier()
        before = repro.current_world().ranks[me].stats.snapshot()
        if me == 1:
            sa[0] = 5        # remote put
            _ = sa[0]        # remote get
        repro.barrier()
        after = repro.current_world().ranks[me].stats.snapshot()
        return (after["puts"] - before["puts"],
                after["gets"] - before["gets"])

    res = run_spmd(body, ranks=2)
    assert res[1] == (1, 1)
    assert res[0] == (0, 0)


def test_atomic_xor_is_consistent_under_contention():
    """All ranks xor the same cell; xor of all operands must survive."""
    def body():
        me = repro.myrank()
        n = repro.ranks()
        sa = repro.SharedArray(np.uint64, size=1, block=1)
        repro.barrier()
        for i in range(50):
            sa.atomic(0, "xor", np.uint64((me + 1) * 1000 + i))
        repro.barrier()
        return int(sa[0])

    res = run_spmd(body, ranks=4)
    expect = 0
    for me in range(4):
        for i in range(50):
            expect ^= (me + 1) * 1000 + i
    assert res[0] == expect


class _FailingSend(Layer):
    def send_am(self, src, dst, am):
        raise RuntimeError("injected NIC failure")


def test_fault_injection_fails_the_world():
    def body():
        me = repro.myrank()
        repro.barrier()
        if me == 0:
            world = repro.current_world()
            world.conduit = _FailingSend(world.conduit)
            repro.async_(1)(int, 1)  # send_am raises on rank 0
        repro.barrier()

    with pytest.raises(RuntimeError, match="injected NIC failure"):
        run_spmd(body, ranks=2)


def test_bad_rank_rejected():
    def body():
        ctx = repro.current_world().ranks[repro.myrank()]
        with pytest.raises(PgasError):
            ctx.world.conduit.rma_get(ctx.rank, 99, 0, np.uint8, 1)
        return True

    assert all(run_spmd(body, ranks=2))
