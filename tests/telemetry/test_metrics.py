"""The cluster metrics plane: counters and gauges, order-independent
snapshot merging, the ``metrics_reduce`` collective, the background
sampler, and the straggler watchdog.

The load-bearing property is *bit-identical aggregation*: the merge
operates on raw integer histogram/counter state (associative and
commutative), with derived floats computed only at finalization — so a
tree reduction over any bracketing equals offline folding of the
per-rank snapshots, byte for byte.
"""

from __future__ import annotations

import functools
import time

from hypothesis import given, settings, strategies as st

import repro
from repro.core.world import current
from repro.gasnet.am import am_handler
from repro.gasnet.stats import COUNTERS, CommStats, aggregate
from repro.telemetry import (
    Gauge, LogHistogram, TelemetryConfig, finalize_snapshot,
    merge_snapshots, rank_snapshot,
)
from repro.telemetry.recorder import RankTelemetry
from tests.conftest import run_spmd


# ----------------------------------------------------------- registry

def test_counter_and_gauge_basics():
    c = CommStats()
    c.add(wq_steals_ok=1)
    c.add(wq_steals_ok=4)
    assert c.snapshot()["wq_steals_ok"] == 5
    g = Gauge("g")
    for v in (3, -1, 7):
        g.set(v)
    assert g.value == 7
    assert g.state() == {"last": 7, "min": -1, "max": 7, "sum": 9, "n": 3}


def test_registry_interns_by_name():
    """Gauges are get-or-create by name on the rank's telemetry; there
    is no get-or-create for counters — every counter is declared in
    :data:`~repro.gasnet.stats.COUNTERS`."""
    tel = RankTelemetry(0, TelemetryConfig(mode="full"))
    assert tel.gauge("y") is tel.gauge("y")
    tel.gauge("y").set(5)
    assert tel.gauges()["y"].state()["last"] == 5


# ---------------------------------------- histogram merge (hypothesis)

_samples = st.lists(st.integers(min_value=0, max_value=1 << 40),
                    min_size=0, max_size=200)


@settings(max_examples=60, deadline=None)
@given(_samples, _samples)
def test_merge_then_quantile_equals_concat_then_quantile(xs, ys):
    """``a.merge(b)`` must be indistinguishable from having recorded
    both sample sets into one histogram — same buckets, same count/sum/
    extrema, and therefore the *same* interpolated quantiles."""
    a, b, both = (LogHistogram("t") for _ in range(3))
    for v in xs:
        a.record(v)
        both.record(v)
    for v in ys:
        b.record(v)
        both.record(v)
    a.merge(b)
    assert list(a.buckets) == list(both.buckets)
    assert a.count == both.count
    assert a.total == both.total
    assert a.min_value == both.min_value
    assert a.max_value == both.max_value
    for q in (50, 90, 99):
        assert a.percentile(q) == both.percentile(q)


@settings(max_examples=40, deadline=None)
@given(_samples, _samples, _samples)
def test_snapshot_merge_is_associative_and_commutative(xs, ys, zs):
    hists = []
    for i, vals in enumerate((xs, ys, zs)):
        h = LogHistogram("lat", unit="ns")
        for v in vals:
            h.record(v)
        hists.append(h)

    def snap(h):
        s = h.snapshot()
        return {"ranks": [0], "histograms": {"lat": {
            "unit": s["unit"], "count": s["count"], "sum": s["sum"],
            "min": s["min"], "max": s["max"], "buckets": s["buckets"],
        }}, "counters": {}, "gauges": {}}

    a, b, c = (snap(h) for h in hists)
    left = merge_snapshots(merge_snapshots(a, b), c)
    right = merge_snapshots(a, merge_snapshots(b, c))
    flipped = merge_snapshots(c, merge_snapshots(b, a))
    for other in (right, flipped):
        assert left["histograms"] == other["histograms"]
        assert left["counters"] == other["counters"]


# --------------------------------------- CommStats.aggregate coverage

def test_aggregate_sums_wire_and_failover_counters():
    """The PR 6 wire counters and PR 7 failover counters must all fold
    through ``aggregate`` — a regression net for the metrics plane's
    counter source."""
    a, b = CommStats(), CommStats()
    a.add(wire_frames=1, wire_fixed=1, wire_byref=1)
    a.add(wire_frames=1, pickle_fallbacks=1)
    b.add(wire_frames=1, wire_fixed=1)
    a.add(kv_repl_records=3)
    b.add(kv_repl_records=2)
    a.add(kv_failovers=1)
    b.add(kv_promotions=1)
    b.add(kv_migrations=1)
    a.add(am_retransmits=1)
    b.add(dup_ams=1)
    total = aggregate([a, b])
    assert total["wire_frames"] == 3
    assert total["wire_fixed"] == 2
    assert total["pickle_fallbacks"] == 1
    assert total["wire_byref"] == 1
    assert total["kv_repl_records"] == 5
    assert total["kv_failovers"] == 1
    assert total["kv_promotions"] == 1
    assert total["kv_migrations"] == 1
    assert total["am_retransmits"] == 1
    assert total["dup_ams"] == 1


# ------------------------------------------------ the reduce collective

def test_metrics_reduce_bit_identical_to_offline_merge():
    """``world.metrics_reduce()`` (a tree allreduce over raw snapshots)
    must equal folding the stashed per-rank snapshots offline — the
    same dict, bit for bit, on every rank."""
    stash: dict = {}

    def body():
        me = repro.myrank()
        sa_ctx = current()
        m = repro.DistHashMap()
        repro.barrier()
        for i in range(10 + me):          # rank-skewed load
            m.put(f"mr{me}:{i}", i)
            m.get(f"mr{me}:{i}")
        sa_ctx.telemetry.gauge("my_rank").set(me)
        repro.barrier()
        # Stash the raw per-rank snapshot BEFORE the reduce; the
        # histograms keep filling with AM traffic during the collective
        # itself, so the collective must reduce over frozen snapshots.
        stash[me] = rank_snapshot(sa_ctx)
        merged = repro.current_world().metrics_reduce(
            snapshot=stash[me])
        repro.barrier()
        return merged

    results = run_spmd(body, ranks=4, telemetry="full")
    offline = finalize_snapshot(functools.reduce(
        merge_snapshots, (stash[r] for r in range(4))))
    for r, merged in enumerate(results):
        assert merged == offline, f"rank {r} diverged from offline fold"
    assert results[0]["ranks"] == [0, 1, 2, 3]
    assert results[0]["counters"]["kv_puts"] == sum(10 + r for r in range(4))
    g = results[0]["gauges"]["my_rank"]
    assert (g["min"], g["max"], g["n"]) == (0, 3, 4)
    # derived stats exist and are plain floats (JSON-ready)
    am_rtt = results[0]["histograms"].get("am_rtt")
    assert am_rtt and isinstance(am_rtt["p99"], float)
    assert am_rtt["count"] == sum(
        s["histograms"]["am_rtt"]["count"] for s in stash.values())


def test_metrics_reduce_default_snapshot_and_harness_shape():
    def body():
        repro.barrier()
        _ = repro.ranks()
        merged = repro.current_world().metrics_reduce()
        repro.barrier()
        assert set(merged) == {"ranks", "histograms", "counters",
                               "gauges"}
        assert merged["ranks"] == list(range(repro.ranks()))
        return True

    assert all(run_spmd(body, ranks=4, telemetry="full"))


def test_absorbed_counters_reach_metrics_reduce():
    """The work-queue steal counters and the watchdog's slow-op count
    are declared counters: a skewed work-stealing run shows them in the
    reduced cluster view, summed across ranks, equal to the queue's own
    per-rank tallies."""
    def body():
        me = repro.myrank()
        wq = repro.DistWorkQueue()
        if me == 0:
            wq.add_local(range(40))
        repro.barrier()
        while wq.get() is not None:
            time.sleep(0.001)
            wq.task_done()
        attempted = repro.collectives.allreduce(wq.steals_attempted)
        ok = repro.collectives.allreduce(wq.steals_successful)
        merged = repro.current_world().metrics_reduce()
        repro.barrier()
        return attempted, ok, merged["counters"]

    for attempted, ok, counters in run_spmd(body, ranks=4,
                                            telemetry="flight"):
        assert set(COUNTERS) <= set(counters)
        assert attempted > 0
        assert counters["wq_steals_attempted"] == attempted
        assert counters["wq_steals_ok"] == ok
        assert counters["slow_ops_flagged"] == 0


# ------------------------------------------------- sampler + watchdog

def test_sampler_records_runtime_gauges():
    def body():
        me = repro.myrank()
        m = repro.DistHashMap()
        repro.barrier()
        deadline = time.monotonic() + 0.5
        i = 0
        while time.monotonic() < deadline:
            m.put(f"s{me}:{i}", i)
            i += 1
        repro.barrier()
        return True

    holder: dict = {}

    def wrapped():
        if repro.myrank() == 0:
            holder["world"] = repro.current_world()
            # live while the workload runs; stopped at spmd teardown
            assert repro.current_world()._sampler is not None
        return body()

    assert all(run_spmd(
        wrapped, ranks=2,
        telemetry={"mode": "full", "sample_period": 0.02},
    ))
    world = holder["world"]
    assert world._sampler is None  # teardown joined and cleared it
    tel0 = world.telemetry.rank(0)
    hists = tel0.histograms()
    assert hists["sampled_task_queue_depth"].count > 0
    assert hists["sampled_pending_replies"].count > 0
    assert hists["sampled_segment_bytes"].count > 0
    gauges = tel0.gauges()
    assert "segment_bytes_in_use" in gauges
    assert "steal_rate_per_s" in gauges


def test_sampler_not_started_without_period():
    def body():
        repro.barrier()
        assert repro.current_world()._sampler is None
        return True

    assert all(run_spmd(body, ranks=2, telemetry="full"))


def test_watchdog_flags_slow_op_before_timeout():
    """An op exceeding the percentile-derived deadline must land in the
    flight ring as a ``slow_op`` event — carrying the client trace id —
    *while still outstanding* (the pre-timeout straggler warning)."""
    @am_handler("tar_pit")
    def _tar_pit(ctx, am):
        time.sleep(0.4)
        ctx.reply(am, args=("ok",))

    holder: dict = {}

    def body():
        me = repro.myrank()
        if me == 0:
            holder["world"] = repro.current_world()
        repro.barrier()
        if me == 0:
            from repro.telemetry import tracing
            tel = current().telemetry
            with tracing.span(tel, "slow_client_op"):
                fut = current().send_am(1, "tar_pit", args=(),
                                        expect_reply=True)
                (ok, *_), _ = fut.get(timeout=10.0)
                assert ok == "ok"
        repro.barrier()
        return True

    assert all(run_spmd(
        body, ranks=2,
        telemetry={"mode": "full", "watchdog_period": 0.02,
                   "slow_op_min_s": 0.05},
    ))
    world = holder["world"]
    slow = [ev for rt in world.telemetry.ranks
            for ev in rt.flight.snapshot() if ev.kind == "slow_op"]
    assert slow, "the watchdog should flag the tar-pit op"
    assert any("tar_pit" in ev.detail for ev in slow)
    assert any(ev.trace_id for ev in slow), \
        "slow_op events should carry the client op's trace id"
    assert world.ranks[0].stats.snapshot()["slow_ops_flagged"] >= 1
