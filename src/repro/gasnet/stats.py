"""Per-rank communication counters — the runtime's one counter registry.

Every conduit operation is recorded here.  The counters serve three
purposes:

1. tests can assert *communication patterns* (e.g. one ghost exchange
   issues exactly six messages per rank per timestep);
2. :mod:`repro.sim.calibrate` converts measured per-op software overheads
   into machine-model parameters;
3. the bench harness and :func:`repro.telemetry.metrics_reduce` report
   traffic alongside timings.

Each counter is declared once, by name, in :data:`COUNTERS`.  Call sites
bump counters with ``ctx.stats.add(puts=1, put_bytes=n, ...)``, and
``snapshot``/``reset``/``aggregate`` iterate the table, so adding a
counter means adding one name to :data:`COUNTERS`.
"""

from __future__ import annotations

import threading

COUNTERS = (
    # One-sided RMA.  Batched (indexed) ops count once as a conduit op
    # but per element in batched_elements and remote_accesses, so
    # access-locality metrics (e.g. GUPS remote_fraction) stay
    # comparable across batched and scalar paths.
    "puts", "put_bytes", "gets", "get_bytes", "atomics",
    "puts_indexed", "gets_indexed", "atomic_batches", "batched_elements",
    # Active messages (replies_sent is a subset of ams_sent).
    "ams_sent", "am_bytes", "ams_handled", "replies_sent",
    "barriers", "collectives",
    # Tree-collectives engine (repro.core.coll_engine): point-to-point
    # AMs issued on behalf of collectives (subset of ams_sent).
    "coll_msgs",
    "local_accesses", "remote_accesses",
    # Reliability layer (repro.gasnet.reliability): retries, duplicate
    # suppression, acks, deadline expiries, liveness probes.
    "am_retransmits", "dup_ams", "acks_sent", "rma_retries",
    "op_timeouts", "stale_replies", "heartbeats_sent",
    # Chaos conduit (repro.gasnet.chaos): injected failures.
    "chaos_drops", "chaos_dups", "chaos_reorders", "chaos_faults",
    # Distributed containers (repro.containers): per-key op counts and
    # the multi-op coalescing/caching counters.  kv_multi_ops counts the
    # owner-targeted AMs that multi_get/multi_put coalesced their
    # kv_batched_keys remote keys into.
    "kv_gets", "kv_puts", "kv_deletes", "kv_updates",
    "kv_multi_ops", "kv_batched_keys", "kv_cache_hits", "kv_cache_misses",
    # Replication / failover (repro.containers.hashmap + reliability):
    # backup-log records shipped, client-side failovers, owner-side
    # backup promotions, reads served from a replica, live shard
    # migrations, and sends refused because the peer is already dead.
    "kv_repl_records", "kv_failovers", "kv_promotions", "kv_replica_reads",
    "kv_migrations", "dead_peer_fastfails",
    # Wire layer (repro.gasnet.wire): frames encoded, how many stayed on
    # the fixed-layout/struct fast path vs. fell back to pickle, and how
    # many carried by-reference (unserializable) objects.
    "wire_frames", "wire_fixed", "pickle_fallbacks", "wire_byref",
    # Shared-memory ring transport (repro.gasnet.proc, ring mode): slots
    # published, frames carried, frames that rode an aggregated flush
    # (coalesced with at least one other frame), flushes that used the
    # OOB spill region, full-ring backoff iterations on the sender,
    # doorbells rung at parked receivers, and receiver doorbell wakeups.
    "wire_ring_slots", "wire_ring_frames", "wire_ring_agg_frames",
    "wire_ring_spills", "wire_ring_full_backoffs", "wire_ring_doorbells",
    "wire_ring_wakeups",
    # Work-stealing queue (repro.core.workqueue), counted while telemetry
    # is on: steal requests sent, and steals that came back with loot.
    "wq_steals_attempted", "wq_steals_ok",
    # Straggler watchdog (repro.telemetry.metrics): in-flight AMs
    # flagged as slow_op before they timed out.
    "slow_ops_flagged",
)


class CommStats:
    """Mutable counters for one rank. Thread-safe via an internal lock."""

    __slots__ = ("_counts", "_lock")

    def __init__(self):
        self._counts = dict.fromkeys(COUNTERS, 0)
        self._lock = threading.Lock()

    def add(self, **deltas: int) -> None:
        """Add each ``name=delta`` to its counter under one lock
        round-trip.  An undeclared name raises :class:`KeyError`."""
        counts = self._counts
        with self._lock:
            for name, n in deltas.items():
                counts[name] += n

    # ------------------------------------------------------------------
    # Derived properties read several counters that a concurrent add may
    # be mid-update on, so they all go through snapshot() (one
    # consistent locked copy) instead of reading counters one by one.
    @property
    def messages(self) -> int:
        """Total injected network operations (RMA + AMs + replies)."""
        s = self.snapshot()
        return (s["puts"] + s["gets"] + s["atomics"] + s["ams_sent"]
                + s["puts_indexed"] + s["gets_indexed"]
                + s["atomic_batches"])

    @property
    def batched_ops(self) -> int:
        """Indexed bulk conduit operations (each covers many elements)."""
        s = self.snapshot()
        return s["puts_indexed"] + s["gets_indexed"] + s["atomic_batches"]

    @property
    def coalescing_ratio(self) -> float:
        """Average elements carried per batched operation (0.0 when no
        batched ops were issued) — how many scalar accesses each batch
        replaced.  Covers both indexed RMA (elements per conduit op) and
        container multi-ops (remote keys per owner-targeted AM)."""
        s = self.snapshot()
        ops = (s["puts_indexed"] + s["gets_indexed"] + s["atomic_batches"]
               + s["kv_multi_ops"])
        if not ops:
            return 0.0
        return (s["batched_elements"] + s["kv_batched_keys"]) / ops

    @property
    def wire_fixed_rate(self) -> float:
        """Fraction of encoded frames that avoided pickle entirely (0.0
        when no frames were encoded)."""
        s = self.snapshot()
        return s["wire_fixed"] / s["wire_frames"] if s["wire_frames"] else 0.0

    @property
    def kv_cache_hit_rate(self) -> float:
        """Fraction of cacheable container reads served locally (0.0
        when the cache saw no traffic)."""
        s = self.snapshot()
        total = s["kv_cache_hits"] + s["kv_cache_misses"]
        return s["kv_cache_hits"] / total if total else 0.0

    @property
    def bytes_moved(self) -> int:
        s = self.snapshot()
        return s["put_bytes"] + s["get_bytes"] + s["am_bytes"]

    def snapshot(self) -> dict:
        """A copy of every counter (a plain dict in :data:`COUNTERS`
        order)."""
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts.update(dict.fromkeys(COUNTERS, 0))


def aggregate(stats: list[CommStats]) -> dict:
    """Sum a list of per-rank snapshots into one dict."""
    snaps = [s.snapshot() for s in stats]
    return {name: sum(s[name] for s in snaps) for name in COUNTERS}
