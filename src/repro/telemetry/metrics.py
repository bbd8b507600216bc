"""The cluster-wide metrics plane.

Three pieces, all feeding ROADMAP Open item 5 (self-tuning runtime):

* **per-rank state to reduce**: the rank's declared counters
  (:class:`~repro.gasnet.stats.CommStats`, ``ctx.stats``), its
  last-value :class:`Gauge`\\ s (``ctx.telemetry.gauge(name)``) and its
  mergeable ``LogHistogram``\\ s;
* a **collective reduction** — :func:`metrics_reduce` folds every
  rank's metrics snapshot over the tree-collectives engine itself
  (``allreduce`` with :func:`merge_snapshots` as the operator).  The
  merge is pure integer bucket/count arithmetic, hence associative and
  commutative, so the tree's reduction order is irrelevant: the result
  is **bit-identical** to offline merging of the same per-rank
  snapshots (asserted in tests);
* a **background sampler + straggler watchdog**
  (:class:`MetricsSampler`) — one daemon thread sampling runtime depth
  gauges (task queue, pending reply futures, outstanding retransmits,
  segment bytes, steal rate) and flagging in-flight AMs that exceed a
  percentile-derived deadline as ``slow_op`` flight-recorder events
  *before* they escalate to ``CommTimeout``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

from repro.telemetry.histogram import LogHistogram


# -- gauges ------------------------------------------------------------------
class Gauge:
    """A point-in-time value; cross-rank merge keeps min/max/sum/n so
    cluster-level mean and extremes survive the reduction."""

    __slots__ = ("name", "_last", "_min", "_max", "_sum", "_n", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._last = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None
        self._sum = 0
        self._n = 0
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            self._last = value
            self._sum += value
            self._n += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def value(self):
        return self._last

    def state(self) -> dict:
        with self._lock:
            return {"last": self._last, "min": self._min, "max": self._max,
                    "sum": self._sum, "n": self._n}


# -- mergeable snapshots -----------------------------------------------------
def _hist_state(h: LogHistogram) -> dict:
    """Raw mergeable state of one histogram: exact integers only, no
    derived floats — derivation happens once, after the final merge."""
    snap = h.snapshot()
    return {"unit": snap["unit"], "count": snap["count"],
            "sum": snap["sum"], "min": snap["min"], "max": snap["max"],
            "buckets": dict(snap["buckets"])}


def rank_snapshot(ctx) -> dict:
    """One rank's full metrics snapshot: histograms (raw state), the
    declared counters, and gauges."""
    tel = ctx.telemetry
    return {
        "ranks": [ctx.rank],
        "histograms": {name: _hist_state(h)
                       for name, h in sorted(tel.histograms().items())},
        "counters": ctx.stats.snapshot(),
        "gauges": {name: g.state() for name, g in tel.gauges().items()},
    }


def _merge_hist_state(a: dict, b: dict) -> dict:
    buckets = dict(a["buckets"])
    for bit, n in b["buckets"].items():
        buckets[bit] = buckets.get(bit, 0) + n
    lo = (a["min"] if b["min"] is None else
          b["min"] if a["min"] is None else min(a["min"], b["min"]))
    hi = (a["max"] if b["max"] is None else
          b["max"] if a["max"] is None else max(a["max"], b["max"]))
    return {"unit": a["unit"], "count": a["count"] + b["count"],
            "sum": a["sum"] + b["sum"], "min": lo, "max": hi,
            "buckets": buckets}


def merge_snapshots(a: dict, b: dict) -> dict:
    """Pure, associative, commutative merge of two metrics snapshots —
    the reduction operator for both the collective and offline paths
    (using the same function is what makes them bit-identical)."""
    hists = {}
    for name in set(a["histograms"]) | set(b["histograms"]):
        ha, hb = a["histograms"].get(name), b["histograms"].get(name)
        if ha is None:
            hists[name] = dict(hb, buckets=dict(hb["buckets"]))
        elif hb is None:
            hists[name] = dict(ha, buckets=dict(ha["buckets"]))
        else:
            hists[name] = _merge_hist_state(ha, hb)
    counters = dict(a["counters"])
    for name, v in b["counters"].items():
        counters[name] = counters.get(name, 0) + v
    gauges = dict(a["gauges"])
    for name, g in b["gauges"].items():
        ga = gauges.get(name)
        if ga is None:
            gauges[name] = dict(g)
        else:
            lo = (ga["min"] if g["min"] is None else
                  g["min"] if ga["min"] is None else min(ga["min"], g["min"]))
            hi = (ga["max"] if g["max"] is None else
                  g["max"] if ga["max"] is None else max(ga["max"], g["max"]))
            # "last" has no canonical cluster value; keep the one from
            # the lowest rank so the result is order-independent
            last = ga["last"] if min(a["ranks"]) < min(b["ranks"]) else g["last"]
            gauges[name] = {"last": last, "min": lo, "max": hi,
                            "sum": ga["sum"] + g["sum"],
                            "n": ga["n"] + g["n"]}
    return {"ranks": sorted(a["ranks"] + b["ranks"]),
            "histograms": hists, "counters": counters, "gauges": gauges}


def hist_from_state(name: str, st: dict) -> LogHistogram:
    """Rebuild a live LogHistogram from merged raw state (so derived
    quantiles use the exact same interpolation everywhere)."""
    h = LogHistogram(name, st["unit"])
    for bit, n in st["buckets"].items():
        h.buckets[int(bit)] = n
    h.count = st["count"]
    h.total = st["sum"]
    h.min_value = st["min"]
    h.max_value = st["max"]
    return h


def finalize_snapshot(snap: dict) -> dict:
    """Attach derived stats (mean/p50/p90/p99) to every histogram of a
    merged snapshot.  Derivation is a pure function of the exact merged
    integers, so any two identically merged snapshots finalize
    identically."""
    out = dict(snap)
    hists = {}
    for name, st in snap["histograms"].items():
        h = hist_from_state(name, st)
        full = dict(st)
        full.update(mean=h.mean, p50=h.p50, p90=h.p90, p99=h.p99)
        hists[name] = full
    out["histograms"] = hists
    return out


def metrics_reduce(team=None, snapshot: dict | None = None) -> dict:
    """Collective: fold every participating rank's metrics snapshot into
    one cluster view, over the tree-collectives engine itself.

    Must be called from rank context (inside ``spmd``) by every member
    of ``team``.  ``snapshot`` overrides this rank's contribution (the
    bit-identical test passes the same snapshot it stashed for offline
    merging); by default the rank snapshots itself at call time.
    """
    from repro.core import collectives
    from repro.core.world import current

    ctx = current()
    if snapshot is None:
        snapshot = rank_snapshot(ctx)
    merged = collectives.allreduce(snapshot, op=merge_snapshots, team=team)
    return finalize_snapshot(merged)


# -- background sampler + straggler watchdog ---------------------------------
class MetricsSampler(threading.Thread):
    """Daemon thread sampling runtime depth metrics and flagging slow
    in-flight ops.

    Sampled per live rank every ``sample_period``: task queue depth,
    pending reply futures, outstanding retransmits (reliability layer),
    segment bytes in use, and work-steal rate — each into a gauge plus
    (mode ``full``) a mergeable histogram, so ``metrics_reduce`` can see
    cluster-wide distributions.

    The watchdog half scans in-flight request metadata every
    ``watchdog_period`` and emits a ``slow_op`` flight event for any op
    older than ``max(slow_op_min_s, slow_op_factor * p99(am_rtt))`` —
    the flight recorder shows the straggler while it is still alive,
    not after the 15 s op timeout declares it dead.
    """

    def __init__(self, world, sample_period: float | None,
                 watchdog_period: float | None,
                 slow_op_factor: float, slow_op_min_s: float):
        super().__init__(name="pgas-metrics-sampler", daemon=True)
        self.world = world
        self.sample_period = sample_period
        self.watchdog_period = watchdog_period
        self.slow_op_factor = slow_op_factor
        self.slow_op_min_s = slow_op_min_s
        self._stop_ev = threading.Event()
        self._flagged: set[tuple[int, int]] = set()
        self._last_steals: dict[int, int] = {}
        periods = [p for p in (sample_period, watchdog_period) if p]
        self._tick = min(periods) if periods else 0.05

    def stop(self) -> None:
        self._stop_ev.set()

    def run(self) -> None:
        next_sample = next_watchdog = time.monotonic()
        while not self._stop_ev.wait(self._tick):
            now = time.monotonic()
            try:
                if self.sample_period and now >= next_sample:
                    next_sample = now + self.sample_period
                    self._sample()
                if self.watchdog_period and now >= next_watchdog:
                    next_watchdog = now + self.watchdog_period
                    self._watchdog()
            except Exception:
                # sampling must never take the runtime down
                pass

    # -- depth sampling ---------------------------------------------------
    def _sample(self) -> None:
        world = self.world
        rc = getattr(world, "_reliable", None)
        unacked_by_src: dict[int, int] = {}
        if rc is not None:
            for (src, _dst, _seq) in list(rc._unacked):
                unacked_by_src[src] = unacked_by_src.get(src, 0) + 1
        local = getattr(world, "local_ranks", None)
        for ctx in world.ranks:
            if ctx.rank in world.dead_ranks:
                continue
            if local is not None and ctx.rank not in local:
                continue  # proc backend: remote stubs have no metrics
            tel = ctx.telemetry
            depth = len(ctx.task_queue)
            pending = len(ctx._pending)
            unacked = unacked_by_src.get(ctx.rank, 0)
            seg = ctx.segment._bytes_in_use
            tel.gauge("task_queue_depth").set(depth)
            tel.gauge("pending_replies").set(pending)
            tel.gauge("outstanding_retransmits").set(unacked)
            tel.gauge("segment_bytes_in_use").set(seg)
            steals = ctx.stats.snapshot()["wq_steals_ok"]
            prev = self._last_steals.get(ctx.rank, steals)
            if steals < prev:  # ctx.stats.reset() since the last sample
                prev = 0
            self._last_steals[ctx.rank] = steals
            if self.sample_period:
                tel.gauge("steal_rate_per_s").set(
                    int((steals - prev) / self.sample_period))
            tel.record_value("sampled_task_queue_depth", depth, "items")
            tel.record_value("sampled_pending_replies", pending, "items")
            tel.record_value("sampled_retransmit_backlog", unacked, "items")
            tel.record_value("sampled_segment_bytes", seg, "bytes")

    # -- straggler watchdog -----------------------------------------------
    def _deadline_for(self, tel) -> float:
        h = tel.histograms().get("am_rtt")
        if h is not None and h.count >= 32:
            return max(self.slow_op_min_s,
                       self.slow_op_factor * h.p99 / 1e9)
        return self.slow_op_min_s

    def _watchdog(self) -> None:
        now = time.monotonic()
        for ctx in self.world.ranks:
            if ctx.rank in self.world.dead_ranks:
                continue
            tel = ctx.telemetry
            pending = list(ctx._pending_meta.items())
            if not pending:
                continue
            deadline = self._deadline_for(tel)
            live = set()
            for token, (t0, handler, dst, trace_id) in pending:
                key = (ctx.rank, token)
                live.add(key)
                age = now - t0
                if age > deadline and key not in self._flagged:
                    self._flagged.add(key)
                    tel.flight_event(
                        "slow_op", src=ctx.rank, dst=dst,
                        detail=(f"{handler} token={token} in flight "
                                f"{age * 1e3:.1f}ms > deadline "
                                f"{deadline * 1e3:.1f}ms"),
                        trace_id=trace_id)
                    ctx.stats.add(slow_ops_flagged=1)
            self._flagged = {k for k in self._flagged
                             if k[0] != ctx.rank or k in live}


__all__ = [
    "Gauge", "MetricsSampler",
    "rank_snapshot", "merge_snapshots", "finalize_snapshot",
    "hist_from_state", "metrics_reduce",
]
