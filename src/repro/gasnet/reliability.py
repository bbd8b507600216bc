"""Reliable delivery over an unreliable conduit.

The UPC++ runtime (paper §IV) assumes GASNet semantics: active messages
are delivered exactly once, in FIFO order per (src, dst) pair, and RMA
either completes or the job dies.  :class:`ReliableConduit` restores that
contract on top of a transport that drops, duplicates, reorders, and
transiently fails — e.g. :class:`~repro.gasnet.chaos.ChaosConduit` — the
way DART-MPI layers PGAS delivery semantics over an imperfect substrate.

Mechanisms
----------
* **Sequencing + dedup** — every AM travels in an envelope carrying a
  per-(src, dst) sequence number; the receiver delivers in order,
  buffers early arrivals, and suppresses duplicates.
* **Positive acks + retransmit** — the receiver acks every envelope; the
  sender retransmits unacked envelopes on a capped exponential backoff
  with jitter, and gives up at a per-op deadline, raising
  :class:`~repro.errors.CommTimeout` with a diagnostic naming the stuck
  op (delivered to the initiator's future when the AM expects a reply).
* **Bounded RMA retry** — ``rma_put``/``rma_get`` and the indexed bulk
  ops are idempotent and retried freely on
  :class:`~repro.errors.TransientCommError`; ``rma_atomic`` and
  ``rma_atomic_batch`` are guarded by op-ids so a retried update applies
  **exactly once** even when the fault fired after the update landed.
* **Heartbeat failure detection** — the conduit pings every rank pair;
  a rank silent past ``peer_timeout`` is declared dead via
  :meth:`~repro.core.world.World.mark_dead`.  By default that fails the
  world (:class:`~repro.errors.PeerFailure` on every blocked rank); with
  ``survive_rank_death=True`` the survivors keep running — traffic
  already in flight to the dead rank fails with
  :class:`~repro.errors.RankDead` error replies, later sends to it
  fail fast, and death subscribers (e.g. replicated containers) take
  over the dead rank's duties.

Retry/dup/timeout counts land in :class:`~repro.gasnet.stats.CommStats`
(``am_retransmits``/``dup_ams``/``acks_sent``/``rma_retries``/
``op_timeouts``/``heartbeats_sent``) and are reported as control
events (:meth:`~repro.core.world.World.control_event`) to telemetry and
any active :class:`~repro.gasnet.trace.Trace`.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    CommTimeout,
    PeerFailure,
    RankDead,
    TransientCommError,
)
from repro.gasnet.am import ActiveMessage, am_handler
from repro.gasnet.atomics import resolve_scalar
from repro.gasnet.conduit import Conduit, Layer


@dataclass
class ReliabilityConfig:
    """Tuning knobs for :class:`ReliableConduit`.

    Defaults are sized for the in-process SMP/chaos conduits (sub-ms
    "wire"); a real network would scale them up.
    """

    #: Initial retransmission timeout (seconds) for an unacked AM.
    ack_timeout: float = 0.01
    #: Exponential backoff multiplier per retransmission.
    backoff: float = 2.0
    #: Cap on the backed-off retransmission interval (seconds).
    rto_max: float = 0.25
    #: Jitter fraction added to each backoff interval (decorrelates
    #: retransmission storms).
    jitter: float = 0.25
    #: Give up on an AM/RMA op after this many retries.
    max_retries: int = 64
    #: Per-op deadline (seconds); ``None`` falls back to the world's
    #: ``op_timeout`` (and to 30 s if that is also ``None``).
    op_deadline: float | None = None
    #: Initial backoff between RMA retries (seconds).
    rma_retry_delay: float = 0.002
    #: Interval between heartbeat probe rounds (seconds).
    heartbeat_period: float = 0.05
    #: Declare a peer dead after this much silence (seconds);
    #: ``None`` disables the failure detector.
    peer_timeout: float | None = 2.0
    #: Monitor-thread polling granularity (seconds).
    tick: float = 0.002
    #: Seed for the retransmission-jitter RNG.
    seed: int = 0


class _PendingAm:
    """One unacked in-flight envelope on the sender side."""

    __slots__ = ("env", "inner", "src", "dst", "seq", "attempts",
                 "next_at", "deadline")

    def __init__(self, env, inner, src, dst, seq, next_at, deadline):
        self.env = env
        self.inner = inner
        self.src = src
        self.dst = dst
        self.seq = seq
        self.attempts = 0
        self.next_at = next_at
        self.deadline = deadline


def _control_am(handler: str, src: int, aux: int = 0) -> ActiveMessage:
    """A reliability-protocol control AM.  The seq/ack number rides in
    the frame header's ``aux`` word, so control traffic encodes to a
    bare 42-byte header — no args, no pickle."""
    return ActiveMessage(handler=handler, src_rank=src, aux=aux)


class ReliableConduit(Layer):
    """Wrap any conduit with sequencing, acks/retransmit, bounded RMA
    retry, exactly-once atomics, per-op deadlines, and a heartbeat
    failure detector.

    >>> conduit = ReliableConduit(ChaosConduit(seed=0, am_drop_rate=0.1))
    >>> repro.spmd(body, ranks=4, conduit=conduit)

    or, equivalently, via the world knob::

    >>> repro.spmd(body, ranks=4, conduit=ChaosConduit(...),
    ...            reliability={"peer_timeout": 1.0})
    """

    def __init__(self, inner: Conduit,
                 config: ReliabilityConfig | None = None, **overrides):
        super().__init__(inner)
        if config is None:
            config = ReliabilityConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config or keyword overrides")
        self.cfg = config
        self._rng = np.random.default_rng(config.seed)
        self._rng_lock = threading.Lock()
        # sender state
        self._tx_lock = threading.Lock()
        self._tx_seq: dict[tuple[int, int], int] = {}
        self._unacked: dict[tuple[int, int, int], _PendingAm] = {}
        # receiver state
        self._rx_lock = threading.Lock()
        self._rx_next: dict[tuple[int, int], int] = {}
        self._rx_buf: dict[tuple[int, int], dict[int, ActiveMessage]] = {}
        # exactly-once bookkeeping / diagnostics
        self._op_ids = itertools.count(1)
        # failure detector
        self._last_heard: dict[int, float] = {}
        self._dead_peers: set[int] = set()
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------
    def attach(self, world) -> None:
        super().attach(world)
        world._reliable = self
        now = time.monotonic()
        self._last_heard = {r: now for r in range(world.n_ranks)}
        self._monitor = threading.Thread(
            target=self._monitor_main,
            name=f"pgas-reliable-{world.id}", daemon=True,
        )
        self._monitor.start()

    def close(self) -> None:
        """Stop the retransmit/heartbeat monitor and close the inner
        conduit (the world is ending)."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        self._inner.close()

    # -- helpers -----------------------------------------------------------
    def _deadline_for(self, now: float) -> float:
        limit = self.cfg.op_deadline
        if limit is None and self.world is not None:
            limit = self.world.op_timeout
        if limit is None:
            limit = 30.0
        return now + limit

    def _jitter(self) -> float:
        with self._rng_lock:
            return 1.0 + self.cfg.jitter * float(self._rng.random())

    def _note_alive(self, rank: int) -> None:
        self._last_heard[rank] = time.monotonic()

    def _check_peer(self, dst: int, what: str) -> None:
        if dst in self._dead_peers:
            raise PeerFailure(dst, RankDead(
                f"rank {dst} declared dead before {what}"
            ))

    def _note_peer_dead(self, rank: int, exc: BaseException) -> None:
        """Record ``rank`` as dead and fail every in-flight AM addressed
        to it: retransmitting into a black hole would only stall the
        initiator until its op deadline, so pending token-carrying AMs
        get an immediate RankDead error reply instead."""
        if rank in self._dead_peers:
            return
        self._dead_peers.add(rank)
        self.world.control_event("peer_dead", rank, rank, detail=str(exc))
        world = self.world
        with self._tx_lock:
            doomed = [e for k, e in self._unacked.items() if e.dst == rank]
            for e in doomed:
                self._unacked.pop((e.src, e.dst, e.seq), None)
        for e in doomed:
            self._fail_pending(world, e, exc)

    def _fail_pending(self, world, e: _PendingAm,
                      exc: BaseException) -> None:
        world.ranks[e.src].stats.add(dead_peer_fastfails=1)
        world.control_event(
            "dead_peer_fastfail", e.src, e.dst,
            detail=f"{e.inner.handler} seq={e.seq}",
        )
        if e.inner.token is not None and not e.inner.is_reply:
            err = ActiveMessage(
                handler="__reply__", src_rank=e.dst,
                args=("__error__", RankDead(
                    f"reliable conduit: AM {e.inner.handler!r} "
                    f"{e.src}->{e.dst} abandoned: rank {e.dst} is dead "
                    f"({exc})"
                )),
                token=e.inner.token, is_reply=True,
            )
            world.ranks[e.src].deliver(err)

    # -- active messages: sequencing + acks --------------------------------
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        if src == dst:  # loopback is reliable; skip the protocol
            self._inner.send_am(src, dst, am)
            return
        if am.is_reply and self.world is not None:
            # Replies are charged where the conduit sees the reply flag;
            # here the inner conduit only ever sees the data envelope,
            # so the counter must be fed before wrapping.
            self.world.ranks[src].stats.add(replies_sent=1)
        if dst in self._dead_peers:
            # Fail fast instead of queueing for a peer that can never
            # ack: token AMs get an immediate RankDead error reply,
            # fire-and-forget AMs are dropped.
            self.world.ranks[src].stats.add(dead_peer_fastfails=1)
            self.world.control_event("dead_peer_fastfail", src, dst,
                                     detail=am.handler)
            if am.token is not None and not am.is_reply:
                err = ActiveMessage(
                    handler="__reply__", src_rank=dst,
                    args=("__error__", RankDead(
                        f"reliable conduit: refusing AM {am.handler!r} "
                        f"{src}->{dst}: rank {dst} is dead"
                    )),
                    token=am.token, is_reply=True,
                )
                self.world.ranks[src].deliver(err)
            return
        now = time.monotonic()
        with self._tx_lock:
            seq = self._tx_seq.get((src, dst), 0)
            self._tx_seq[(src, dst)] = seq + 1
            # The sequence number travels in the envelope header's aux
            # word; the inner AM's frame is spliced in whole, so
            # retransmissions reuse one encode.
            env = ActiveMessage(
                handler="__rel_data__", src_rank=src, aux=seq,
                payload=am,
            )
            self._unacked[(src, dst, seq)] = _PendingAm(
                env, am, src, dst, seq,
                next_at=now + self.cfg.ack_timeout,
                deadline=self._deadline_for(now),
            )
        try:
            self._inner.send_am(src, dst, env)
        except TransientCommError:
            pass  # counts as a drop; the retransmitter recovers it

    def _on_data(self, ctx, env: ActiveMessage) -> None:
        """Receiver side: ack, dedup, reorder into per-pair FIFO."""
        src, dst, seq = env.src_rank, ctx.rank, env.aux
        self._note_alive(src)
        ctx.stats.add(acks_sent=1)
        try:
            self._inner.send_am(dst, src, _control_am(
                "__rel_ack__", dst, aux=seq
            ))
        except TransientCommError:
            pass  # a lost ack just means one more retransmission
        key = (src, dst)
        with self._rx_lock:
            nxt = self._rx_next.get(key, 0)
            buf = self._rx_buf.setdefault(key, {})
            if seq < nxt or seq in buf:
                ctx.stats.add(dup_ams=1)
                self.world.control_event("dup_suppressed", src, dst,
                                         detail=f"seq={seq}")
                return
            buf[seq] = env.payload
            ready: list[ActiveMessage] = []
            while nxt in buf:
                ready.append(buf.pop(nxt))
                nxt += 1
            self._rx_next[key] = nxt
        # Dispatch outside the rx lock; per-dst ordering is preserved
        # because the caller holds the rank's handler lock.
        for inner_am in ready:
            ctx._handle(inner_am)

    def _on_ack(self, ctx, am: ActiveMessage) -> None:
        seq = am.aux
        self._note_alive(am.src_rank)
        with self._tx_lock:
            self._unacked.pop((ctx.rank, am.src_rank, seq), None)

    # -- monitor: retransmit, deadlines, heartbeats ------------------------
    def _monitor_main(self) -> None:
        cfg = self.cfg
        next_hb = 0.0
        while not self._stop.wait(cfg.tick):
            world = self.world
            if world is None:
                continue
            now = time.monotonic()
            self._service_retransmits(world, now)
            if cfg.peer_timeout is not None and world.n_ranks > 1:
                if now >= next_hb:
                    next_hb = now + cfg.heartbeat_period
                    self._send_heartbeats(world)
                self._check_peers(world)

    def _service_retransmits(self, world, now: float) -> None:
        cfg = self.cfg
        with self._tx_lock:
            entries = list(self._unacked.items())
        for key, e in entries:
            if now >= e.deadline or e.attempts >= cfg.max_retries:
                with self._tx_lock:
                    self._unacked.pop(key, None)
                self._expire(world, e)
                continue
            if now < e.next_at:
                continue
            e.attempts += 1
            rto = min(cfg.ack_timeout * cfg.backoff ** e.attempts,
                      cfg.rto_max)
            e.next_at = now + rto * self._jitter()
            world.ranks[e.src].stats.add(am_retransmits=1)
            self.world.control_event(
                "retransmit", e.src, e.dst, e.env.wire_bytes,
                detail=f"{e.inner.handler} seq={e.seq} try={e.attempts}",
            )
            inner = e.inner
            if inner.trace_id:
                # Link the retransmit into the originating op's causal
                # trace: a tiny span joins the Perfetto flow chain, and
                # the flight event carries the trace id.
                tel = world.telemetry.rank(e.src)
                tel.flight_event(
                    "retransmit_traced", src=e.src, dst=e.dst,
                    nbytes=e.env.wire_bytes,
                    detail=f"{inner.handler} seq={e.seq} try={e.attempts}",
                    trace_id=inner.trace_id)
                if tel.full:
                    tel.record_span(
                        f"retransmit:{inner.handler}",
                        time.perf_counter(), 2e-6,
                        detail=f"seq={e.seq} try={e.attempts}",
                        trace_id=inner.trace_id,
                        span_id=tel.new_span_id(),
                        parent_id=inner.span_id)
            try:
                self._inner.send_am(e.src, e.dst, e.env)
            except TransientCommError:
                pass

    def _expire(self, world, e: _PendingAm) -> None:
        """An AM exhausted its deadline/retry budget: surface CommTimeout
        on the initiator (via its reply future when there is one)."""
        world.ranks[e.src].stats.add(op_timeouts=1)
        diag = (
            f"reliable conduit: AM {e.inner.handler!r} "
            f"{e.src}->{e.dst} seq {e.seq} still unacked after "
            f"{e.attempts} retransmits; giving up"
        )
        self.world.control_event("op_timeout", e.src, e.dst, detail=diag)
        if e.inner.token is not None and not e.inner.is_reply:
            # Delivered directly (never encoded): _handle accepts plain
            # frameless AMs alongside thawed wire frames.
            err = ActiveMessage(
                handler="__reply__", src_rank=e.dst,
                args=("__error__", CommTimeout(diag)),
                token=e.inner.token, is_reply=True,
            )
            world.ranks[e.src].deliver(err)

    def _send_heartbeats(self, world) -> None:
        # Only ranks executing in this process originate pings: on the
        # proc backend a rank must not impersonate its remote peers.
        for i in range(world.n_ranks):
            if not world.is_local(i):
                continue
            if world.ranks[i].done or world.ranks[i].dead:
                continue
            for j in range(world.n_ranks):
                if i == j or j in self._dead_peers:
                    continue
                world.ranks[i].stats.add(heartbeats_sent=1)
                try:
                    self._inner.send_am(i, j, _control_am(
                        "__rel_ping__", i
                    ))
                except TransientCommError:
                    pass

    def _check_peers(self, world) -> None:
        now = time.monotonic()
        timeout = self.cfg.peer_timeout
        for r in range(world.n_ranks):
            if world.local_ranks is not None and r in world.local_ranks:
                # Local ranks never ping themselves; their liveness is
                # the world heartbeat detector's job, not ours.
                continue
            rk = world.ranks[r]
            if rk.done:
                self._last_heard[r] = now  # finished ≠ failed
                continue
            if r in self._dead_peers:
                continue
            silent = now - self._last_heard.get(r, now)
            if silent > timeout:
                # mark_dead routes back through _note_peer_dead (adds r
                # to _dead_peers, fails in-flight AMs), notifies death
                # subscribers, and — unless the world opted into
                # survivable death — fails the whole world.
                world.mark_dead(r, RankDead(
                    f"reliable conduit: rank {r} missed its heartbeat "
                    f"deadline ({silent:.2f}s silent > "
                    f"peer_timeout={timeout}s)"
                ))

    def _on_ping(self, ctx, am: ActiveMessage) -> None:
        self._note_alive(am.src_rank)
        try:
            self._inner.send_am(ctx.rank, am.src_rank, _control_am(
                "__rel_pong__", ctx.rank
            ))
        except TransientCommError:
            pass

    def _on_pong(self, ctx, am: ActiveMessage) -> None:
        self._note_alive(am.src_rank)

    # -- RMA: bounded retry ------------------------------------------------
    def _retry_rma(self, attempt_fn, *, src: int, dst: int, what: str):
        """Run ``attempt_fn`` retrying TransientCommError with capped
        exponential backoff until ``max_retries``/deadline, then raise
        CommTimeout naming the stuck op."""
        cfg = self.cfg
        now = time.monotonic()
        deadline = self._deadline_for(now)
        attempts = 0
        while True:
            self._check_peer(dst, what)
            try:
                return attempt_fn()
            except TransientCommError as exc:
                attempts += 1
                self.world.ranks[src].stats.add(rma_retries=1)
                self.world.control_event("rma_retry", src, dst,
                                         detail=f"{what} try={attempts}")
                now = time.monotonic()
                if attempts > cfg.max_retries or now >= deadline:
                    self.world.ranks[src].stats.add(op_timeouts=1)
                    raise CommTimeout(
                        f"reliable conduit: {what} {src}->{dst} failed "
                        f"after {attempts} retries "
                        f"(last: {exc})"
                    ) from exc
                delay = min(cfg.rma_retry_delay * cfg.backoff ** attempts,
                            cfg.rto_max)
                time.sleep(delay * self._jitter())

    def around(self, op, src, dst, nbytes, call, detail=""):
        # Puts, gets and their indexed forms are idempotent: retry them
        # blindly.  The atomics override their ops below.
        return self._retry_rma(call, src=src, dst=dst, what=op)

    # -- atomics: exactly-once under retry ---------------------------------
    #
    # A transient fault can fire *after* the read-modify-write applied at
    # the target (the chaos conduit's "post" faults).  Blind retry would
    # double-apply.  The guard: the scalar update callable we hand the
    # inner conduit records the observed old value under the target's
    # segment lock — atomically with the update itself.  On retry, a
    # recorded old value proves the op already applied, and we return it
    # without touching the target again.

    def rma_atomic(self, src: int, dst: int, offset: int,
                   dtype: np.dtype, op, operand):
        fn = resolve_scalar(op)
        op_id = next(self._op_ids)
        applied: dict[str, object] = {}

        def guarded(old, v):
            applied["old"] = old
            return fn(old, v)

        def attempt():
            if "old" in applied:  # fault fired post-application
                return applied["old"]
            return self._inner.rma_atomic(
                src, dst, offset, dtype, guarded, operand
            )

        return self._retry_rma(
            attempt, src=src, dst=dst,
            what=f"rma_atomic[{offset}]#op{op_id}",
        )

    def rma_atomic_batch(self, src: int, dst: int, base: int,
                         dtype: np.dtype, elem_offsets: np.ndarray,
                         op, operands, return_old: bool = False):
        fn = resolve_scalar(op)
        op_id = next(self._op_ids)
        dtype = np.dtype(dtype)
        n = np.asarray(elem_offsets).size
        olds: list = []

        def guarded(old, v):
            olds.append(old)
            return fn(old, v)

        def attempt():
            # The inner conduit applies the whole batch under one
            # segment-lock acquisition, and faults only fire at the
            # conduit boundary — so the batch either fully applied
            # (len(olds) == n) or not at all.
            if len(olds) != n:
                olds.clear()
                self._inner.rma_atomic_batch(
                    src, dst, base, dtype, elem_offsets, guarded,
                    operands, return_old=False,
                )
            return np.array(olds, dtype=dtype) if return_old else None

        if n == 0:
            return np.empty(0, dtype=dtype) if return_old else None
        return self._retry_rma(
            attempt, src=src, dst=dst,
            what=f"rma_atomic_batch[{base}]x{n}#op{op_id}",
        )


# ---------------------------------------------------------------------------
# protocol AM handlers
# ---------------------------------------------------------------------------

def _reliable_of(ctx) -> ReliableConduit | None:
    return getattr(ctx.world, "_reliable", None)


@am_handler("__rel_data__")
def _rel_data_handler(ctx, am) -> None:
    rc = _reliable_of(ctx)
    if rc is not None:
        rc._on_data(ctx, am)


@am_handler("__rel_ack__")
def _rel_ack_handler(ctx, am) -> None:
    rc = _reliable_of(ctx)
    if rc is not None:
        rc._on_ack(ctx, am)


@am_handler("__rel_ping__")
def _rel_ping_handler(ctx, am) -> None:
    rc = _reliable_of(ctx)
    if rc is not None:
        rc._on_ping(ctx, am)


@am_handler("__rel_pong__")
def _rel_pong_handler(ctx, am) -> None:
    rc = _reliable_of(ctx)
    if rc is not None:
        rc._on_pong(ctx, am)
