"""CommStats: the declared counter table and its generic bookkeeping."""

import threading
import time

import pytest

from repro.gasnet.stats import COUNTERS, CommStats, aggregate


def test_each_counter_declared_once():
    assert len(COUNTERS) == len(set(COUNTERS))
    for name in ("wq_steals_attempted", "wq_steals_ok", "slow_ops_flagged"):
        assert name in COUNTERS


def test_snapshot_has_every_declared_name_as_int():
    snap = CommStats().snapshot()
    assert list(snap) == list(COUNTERS)
    assert all(type(v) is int and v == 0 for v in snap.values())


def test_counters_accumulate():
    s = CommStats()
    s.add(puts=1, put_bytes=100, remote_accesses=1)
    s.add(puts=1, put_bytes=50, remote_accesses=1)
    s.add(gets=1, get_bytes=8, remote_accesses=1)
    s.add(atomics=1, remote_accesses=1)
    s.add(ams_sent=1, am_bytes=40)
    s.add(ams_handled=1)
    s.add(replies_sent=1)
    s.add(barriers=1)
    s.add(collectives=1)
    s.add(local_accesses=1)
    snap = s.snapshot()
    assert snap["puts"] == 2 and snap["put_bytes"] == 150
    assert snap["gets"] == 1 and snap["get_bytes"] == 8
    assert snap["atomics"] == 1
    assert snap["ams_sent"] == 1 and snap["am_bytes"] == 40
    assert snap["local_accesses"] == 1
    assert snap["remote_accesses"] == 4  # puts + gets + atomics


def test_add_rejects_undeclared_name():
    s = CommStats()
    with pytest.raises(KeyError):
        s.add(not_a_counter=1)
    with pytest.raises(KeyError):
        s.add(record_put=1)
    assert "not_a_counter" not in s.snapshot()


def test_snapshot_is_a_copy():
    s = CommStats()
    snap = s.snapshot()
    snap["puts"] = 99
    assert s.snapshot()["puts"] == 0


def test_derived_properties():
    s = CommStats()
    s.add(puts=1, put_bytes=10)
    s.add(gets=1, get_bytes=20)
    s.add(ams_sent=1, am_bytes=30)
    assert s.messages == 3
    assert s.bytes_moved == 60


def test_reset():
    s = CommStats()
    s.add(**{name: i + 1 for i, name in enumerate(COUNTERS)})
    assert all(v > 0 for v in s.snapshot().values())
    s.reset()
    assert s.snapshot() == dict.fromkeys(COUNTERS, 0)
    assert s.messages == 0


def test_aggregate():
    a, b = CommStats(), CommStats()
    a.add(**{name: 1 for name in COUNTERS})
    b.add(**{name: i for i, name in enumerate(COUNTERS)})
    total = aggregate([a, b])
    assert list(total) == list(COUNTERS)
    assert total == {name: 1 + i for i, name in enumerate(COUNTERS)}
    assert aggregate([]) == dict.fromkeys(COUNTERS, 0)


def test_chaos_reorders_counted_snapshot_reset_aggregate():
    s = CommStats()
    s.add(chaos_reorders=1)
    s.add(chaos_reorders=1)
    s.add(chaos_drops=1)
    assert s.snapshot()["chaos_reorders"] == 2
    t = CommStats()
    t.add(chaos_reorders=1)
    assert aggregate([s, t])["chaos_reorders"] == 3
    s.reset()
    assert s.snapshot()["chaos_reorders"] == 0
    assert s.snapshot()["chaos_drops"] == 0


def test_derived_properties_consistent_under_concurrent_updates():
    """messages/bytes_moved/coalescing_ratio read several counters; they
    must come from one locked snapshot, and one add() must land all its
    counters at once — never a torn multi-counter read (e.g. a put
    counted in ``puts_indexed`` but not yet in ``put_bytes``)."""
    s = CommStats()
    stop = threading.Event()
    torn = []

    def writer():
        while not stop.is_set():
            s.add(puts_indexed=1, put_bytes=32, batched_elements=4,
                  remote_accesses=4)

    def reader():
        while not stop.is_set():
            snap = s.snapshot()
            # Invariants that hold in every consistent state:
            if snap["put_bytes"] != 8 * snap["batched_elements"]:
                torn.append(snap)
            if s.batched_ops and s.coalescing_ratio != 4.0:
                torn.append("ratio")

    threads = [threading.Thread(target=writer) for _ in range(2)] + \
              [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    time.sleep(0.2)
    stop.set()
    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive()
    assert not torn
    assert s.messages == s.batched_ops == s.snapshot()["puts_indexed"]
    assert s.coalescing_ratio == 4.0


def test_kv_counters_snapshot_reset_aggregate():
    s = CommStats()
    s.add(kv_gets=1)
    s.add(kv_gets=5)
    s.add(kv_puts=2)
    s.add(kv_deletes=1)
    s.add(kv_updates=1)
    s.add(kv_multi_ops=3, kv_batched_keys=60)
    s.add(kv_cache_hits=1)
    s.add(kv_cache_hits=1)
    s.add(kv_cache_misses=1)
    snap = s.snapshot()
    assert snap["kv_gets"] == 6
    assert snap["kv_puts"] == 2
    assert snap["kv_deletes"] == 1
    assert snap["kv_updates"] == 1
    assert snap["kv_multi_ops"] == 3 and snap["kv_batched_keys"] == 60
    assert snap["kv_cache_hits"] == 2 and snap["kv_cache_misses"] == 1
    assert s.kv_cache_hit_rate == 2 / 3
    t = CommStats()
    t.add(kv_multi_ops=1, kv_batched_keys=10)
    assert aggregate([s, t])["kv_batched_keys"] == 70
    s.reset()
    assert all(v == 0 for k, v in s.snapshot().items()
               if k.startswith("kv_"))
    assert s.kv_cache_hit_rate == 0.0


def test_coalescing_ratio_covers_kv_traffic():
    # RMA-only traffic: elements per indexed conduit op.
    s = CommStats()
    s.add(puts_indexed=1, put_bytes=160, batched_elements=20,
          remote_accesses=20)
    assert s.coalescing_ratio == 20.0
    # Container multi-ops fold into the same elements-per-batched-op.
    s.add(kv_multi_ops=3, kv_batched_keys=40)
    assert s.coalescing_ratio == (20 + 40) / (1 + 3)
    # KV-only traffic works too (no indexed RMA issued at all).
    t = CommStats()
    t.add(kv_multi_ops=2, kv_batched_keys=30)
    assert t.coalescing_ratio == 15.0
    assert CommStats().coalescing_ratio == 0.0
