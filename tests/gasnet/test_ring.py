"""The SPSC ring transport: unit contract and end-to-end behaviour.

Unit tests drive :class:`~repro.gasnet.ring.RingProducer` /
:class:`~repro.gasnet.ring.RingConsumer` over a plain ``bytearray`` —
the classes are buffer-agnostic, so the full slot/spill/backpressure
contract is checkable without processes.  A stress test then runs one
ring across two processes over a real shared-memory block, where the
cursors are read while the other side writes them.  The SPMD tests run the
same machinery for real (``conduit="proc+ring"``): OOB spill under a
deliberately tiny slot size, shutdown hygiene after a rank crash, and
the ``wire_ring_*`` telemetry flowing through snapshot / reset /
aggregate / ``metrics_reduce``.
"""

import glob
import multiprocessing
import os
import struct
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro
from repro.core.collectives import barrier
from repro.errors import RankDead
from repro.gasnet.ring import SLOT_HDR, RingConsumer, RingProducer, RingSpec
from repro.gasnet.stats import CommStats, aggregate
from tests.conftest import run_spmd

RING_COUNTERS = (
    "wire_ring_slots", "wire_ring_frames", "wire_ring_agg_frames",
    "wire_ring_spills", "wire_ring_full_backoffs",
    "wire_ring_doorbells", "wire_ring_wakeups",
)


def _pair(slots=4, slot_bytes=64, spill_bytes=256):
    spec = RingSpec(slots=slots, slot_bytes=slot_bytes,
                    spill_bytes=spill_bytes)
    buf = bytearray(spec.region_bytes)
    return spec, RingProducer(buf, spec), RingConsumer(buf, spec)


def _emit_all(prod, cons, data: bytes) -> bytearray:
    """Push all of ``data`` through the ring, draining as needed, and
    return the reassembled byte stream the consumer saw."""
    out = bytearray()
    off = 0
    while off < len(data):
        n = prod.try_emit(data, off)
        if n == 0:
            chunk = cons.try_recv()
            assert chunk is not None, "full ring must have pending slots"
            out += chunk
            continue
        off += n
    while True:
        chunk = cons.try_recv()
        if chunk is None:
            break
        out += chunk
    return out


# -- unit: slot/spill/backpressure contract ---------------------------------
def test_ring_roundtrip_small_message():
    _, prod, cons = _pair()
    msg = b"hello ring"
    assert not cons.pending()
    assert prod.try_emit(msg, 0) == len(msg)
    assert prod.last_spill == 0
    assert cons.pending()
    assert bytes(cons.try_recv()) == msg
    assert cons.try_recv() is None


def test_ring_stream_survives_wraparound():
    """More chunks than slots: cursors wrap, the byte stream does not."""
    spec, prod, cons = _pair(slots=4, slot_bytes=64)
    rng = np.random.default_rng(7)
    data = bytes(rng.integers(0, 256, size=40 * spec.inline_cap,
                              dtype=np.uint8))
    assert bytes(_emit_all(prod, cons, data)) == data


def test_ring_slot_exactly_full_is_inline_only():
    spec, prod, cons = _pair(slot_bytes=64)
    msg = bytes(range(48)) * (spec.inline_cap // 48 + 1)
    msg = msg[:spec.inline_cap]
    assert len(msg) == spec.slot_bytes - SLOT_HDR.size
    assert prod.try_emit(msg, 0) == spec.inline_cap
    assert prod.last_spill == 0 and prod.spill_in_use() == 0
    assert bytes(cons.try_recv()) == msg


def test_ring_spill_roundtrip_and_release():
    """A chunk bigger than one slot's inline room rides the spill
    region and the consumer's copy-out releases it byte-for-byte."""
    spec, prod, cons = _pair(slot_bytes=64, spill_bytes=1024)
    msg = bytes(i % 251 for i in range(3 * spec.inline_cap))
    assert prod.try_emit(msg, 0) == len(msg)  # one slot carries it all
    assert prod.last_spill == len(msg) - spec.inline_cap
    assert prod.spill_in_use() == prod.last_spill
    assert bytes(cons.try_recv()) == msg
    assert prod.spill_in_use() == 0


def test_ring_spill_exhausted_still_progresses():
    """With no spill room at all, a big message spans many inline-only
    slots — bounded region, unbounded stream."""
    spec, prod, cons = _pair(slots=4, slot_bytes=64, spill_bytes=0)
    msg = bytes(i % 256 for i in range(10 * spec.inline_cap))
    assert bytes(_emit_all(prod, cons, msg)) == msg


def test_ring_spill_wrap_contiguity():
    """The bump allocator never wraps a chunk: near the region end a
    slot takes only the contiguous tail, the rest lands in later
    slots — the stream still reassembles exactly."""
    spec, prod, cons = _pair(slots=8, slot_bytes=32, spill_bytes=100)
    rng = np.random.default_rng(11)
    for size in (90, 70, 85, 95, 60):  # repeatedly straddle the wrap
        msg = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
        assert bytes(_emit_all(prod, cons, msg)) == msg
    assert prod.spill_in_use() == 0


def test_ring_backpressure_full_then_recover():
    spec, prod, cons = _pair(slots=2, slot_bytes=64)
    assert prod.try_emit(b"a", 0) == 1
    assert prod.try_emit(b"b", 0) == 1
    assert prod.free_slots() == 0
    assert prod.try_emit(b"c", 0) == 0  # full: no progress, no damage
    assert bytes(cons.try_recv()) == b"a"
    assert prod.free_slots() == 1
    assert prod.try_emit(b"c", 0) == 1
    assert bytes(cons.try_recv()) == b"b"
    assert bytes(cons.try_recv()) == b"c"


def test_ring_spec_rejects_degenerate_geometry():
    with pytest.raises(ValueError):
        RingSpec(slots=1)
    with pytest.raises(ValueError):
        RingSpec(slot_bytes=SLOT_HDR.size)


# -- cross-process stress: exactly-once FIFO over real shared memory --------
_REC_HDR = struct.Struct("<II")  # sequence number, payload length
_PATTERN = bytes(range(256)) * 2
_STRESS_RECORDS = 200_000
_STRESS_DEADLINE_S = 10.0


def _stress_record(seq: int) -> bytes:
    """Record ``seq``: 8-104 bytes, so records cross the 48-byte inline
    capacity of a 64-byte slot and ride the spill region."""
    n = (seq * 7919) % 97
    off = seq % 256
    return _REC_HDR.pack(seq, n) + _PATTERN[off:off + n]


def _stress_producer(shm, spec, n_records, deadline):
    prod = RingProducer(shm.buf, spec)
    for seq in range(n_records):
        rec = _stress_record(seq)
        off = 0
        while off < len(rec):
            k = prod.try_emit(rec, off)
            if k:
                off += k
            elif time.monotonic() > deadline:
                os._exit(2)
            else:
                os.sched_yield()
    prod.release()


def test_ring_cross_process_exactly_once_fifo():
    """A forked producer streams numbered records through a tiny ring
    in a real SharedMemory block while this process consumes.  Every
    record must arrive exactly once, in order, byte for byte, within
    the deadline.  The cursors are written by one process while the
    other reads them, so this fails if a cursor read can be torn (a
    torn tail replays a stale slot; a torn head lets the producer
    overwrite a live one)."""
    spec = RingSpec(slots=4, slot_bytes=64, spill_bytes=256)
    shm = shared_memory.SharedMemory(create=True, size=spec.region_bytes)
    cons = None
    proc = None
    try:
        cons = RingConsumer(shm.buf, spec)
        deadline = time.monotonic() + _STRESS_DEADLINE_S
        proc = multiprocessing.get_context("fork").Process(
            target=_stress_producer,
            args=(shm, spec, _STRESS_RECORDS, deadline), daemon=True)
        proc.start()
        stream = bytearray()
        pos = 0
        expect = 0
        while expect < _STRESS_RECORDS:
            chunk = cons.try_recv()
            if chunk is None:
                assert time.monotonic() < deadline, (
                    f"stalled after {expect} of {_STRESS_RECORDS} records")
                os.sched_yield()
                continue
            stream += chunk
            while len(stream) - pos >= _REC_HDR.size:
                seq, n = _REC_HDR.unpack_from(stream, pos)
                if len(stream) - pos < _REC_HDR.size + n:
                    break
                end = pos + _REC_HDR.size + n
                assert stream[pos:end] == _stress_record(expect), (
                    f"record {expect}: got seq {seq}, length {n}")
                expect += 1
                pos = end
            if pos > 1 << 16:
                del stream[:pos]
                pos = 0
        assert len(stream) == pos, "bytes past the last record"
        assert cons.try_recv() is None
        proc.join(timeout=5.0)
        assert proc.exitcode == 0
    finally:
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        if cons is not None:
            cons.release()
        shm.close()
        shm.unlink()


# -- unit: wire_ring_* counter plumbing -------------------------------------
def test_ring_counters_snapshot_reset_aggregate():
    s = CommStats()
    s.add(wire_ring_slots=2, wire_ring_frames=3, wire_ring_agg_frames=3,
          wire_ring_spills=1)
    s.add(wire_ring_slots=1, wire_ring_frames=1)
    s.add(wire_ring_full_backoffs=1)
    s.add(wire_ring_doorbells=1)
    s.add(wire_ring_wakeups=1)
    snap = s.snapshot()
    assert snap["wire_ring_slots"] == 3
    assert snap["wire_ring_frames"] == 4
    assert snap["wire_ring_agg_frames"] == 3  # only the coalesced flush
    assert snap["wire_ring_spills"] == 1
    assert snap["wire_ring_full_backoffs"] == 1
    assert snap["wire_ring_doorbells"] == 1
    assert snap["wire_ring_wakeups"] == 1
    other = CommStats()
    other.add(wire_ring_slots=5, wire_ring_frames=5, wire_ring_agg_frames=5)
    total = aggregate([s, other])
    assert total["wire_ring_slots"] == 8
    assert total["wire_ring_frames"] == 9
    assert total["wire_ring_spills"] == 1
    s.reset()
    assert all(s.snapshot()[k] == 0 for k in RING_COUNTERS)


# -- integration: the transport for real ------------------------------------
def _sum_payload(v):
    # module-level so the function reference pickles across processes
    return int(v.sum())


def test_ring_oob_spill_end_to_end(monkeypatch):
    """Tiny slots force every payload-carrying AM through the spill
    region; the answer must still be exact and the spills observable."""
    monkeypatch.setenv("REPRO_RING_SLOT_BYTES", "128")
    work = _sum_payload

    def body():
        me = repro.myrank()
        v = np.arange(512, dtype=np.int64) + me
        got = repro.async_((me + 1) % repro.ranks())(work, v).get()
        assert got == int(v.sum())
        barrier()
        ctx = repro.current_world().ranks[me]
        snap = ctx.stats.snapshot()
        return snap["wire_ring_spills"], snap["wire_ring_frames"]

    res = run_spmd(body, ranks=2, conduit="proc+ring", timeout=60.0)
    assert all(frames > 0 for _, frames in res)
    assert sum(spills for spills, _ in res) > 0


def test_ring_crash_leaves_no_shm(monkeypatch):
    """A rank death must not leak the ring block or the per-rank
    segments (they are all /dev/shm files named repro_*)."""
    def body():
        if repro.myrank() == 1:
            repro.die()
        barrier()
        return True

    with pytest.raises(RankDead):
        run_spmd(body, ranks=2, conduit="proc+ring", timeout=60.0)
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro_*") == []


def test_ring_counters_through_metrics_reduce():
    """wire_ring_* counters ride the cluster metrics plane: every rank
    sees one merged view whose totals dominate the per-rank snapshots
    taken just before the reduce (counters only grow)."""
    bounce = _sum_payload

    def body():
        me = repro.myrank()
        n = repro.ranks()
        for i in range(5):
            repro.async_((me + 1) % n)(bounce,
                                       np.arange(8, dtype=np.int64)).get()
        barrier()
        ctx = repro.current_world().ranks[me]
        pre = {k: v for k, v in ctx.stats.snapshot().items()
               if k.startswith("wire_ring_")}
        merged = repro.current_world().metrics_reduce()
        ring = {k: v for k, v in merged["counters"].items()
                if k.startswith("wire_ring_")}
        return pre, ring

    res = run_spmd(body, ranks=3, conduit="proc+ring", telemetry="full",
                   timeout=60.0)
    merged_views = [ring for _, ring in res]
    # the collective is deterministic: all ranks see the same totals
    assert all(m == merged_views[0] for m in merged_views)
    merged = merged_views[0]
    assert set(RING_COUNTERS) <= set(merged)
    for key in ("wire_ring_slots", "wire_ring_frames"):
        assert merged[key] >= sum(pre[key] for pre, _ in res) > 0


def test_socket_transport_has_no_ring_counters():
    """The fallback transport must not touch ring telemetry — the
    counters are how a deployment verifies which transport it is on."""
    bounce = _sum_payload

    def body():
        me = repro.myrank()
        repro.async_((me + 1) % repro.ranks())(
            bounce, np.arange(8, dtype=np.int64)).get()
        barrier()
        ctx = repro.current_world().ranks[me]
        return {k: v for k, v in ctx.stats.snapshot().items()
                if k.startswith("wire_ring_")}

    for snap in run_spmd(body, ranks=2, conduit="proc+socket",
                         timeout=60.0):
        assert all(v == 0 for v in snap.values())
