"""SPMD world and per-rank runtime state.

The execution model follows the paper §IV:

* each UPC++ *rank* is an independent execution unit (here: one thread of
  the launching process, with a private :class:`~repro.gasnet.segment.Segment`
  as its share of the global address space);
* incoming active messages and spawned async tasks are processed when the
  rank calls ``advance()`` — either explicitly or implicitly inside every
  blocking runtime call;
* in ``concurrent`` thread-support mode, an additional progress thread
  drains inboxes of ranks that are busy computing (the paper's "worker
  Pthread").

:func:`spmd` is the launcher: it runs a function on ``n`` ranks and
returns the per-rank results.  If any rank raises, all blocked peers are
released with :class:`~repro.errors.PeerFailure` and the original
exception is re-raised on the launching thread.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import (
    CommTimeout,
    NotInSpmdRegion,
    PeerFailure,
    PgasError,
    RankDead,
)
from repro.core.coll_engine import CollEngine
from repro.core.future import Future
from repro.gasnet.am import ActiveMessage, handler_registry, make_reply
from repro.gasnet.conduit import find_layer, layers
from repro.gasnet.segment import Segment
from repro.gasnet.smp import SmpConduit
from repro.gasnet.stats import CommStats
from repro.gasnet.trace import Observer
from repro.telemetry import (
    MetricsSampler,
    WorldTelemetry,
    resolve_config as _resolve_telemetry,
    tracing,
)

_tls = threading.local()

#: Default per-rank segment size (16 MiB) — plenty for the test suite,
#: overridable per spmd() call for the benchmarks.
DEFAULT_SEGMENT_SIZE = 16 * 1024 * 1024

_world_ids = itertools.count(1)


def current() -> "RankState":
    """The calling thread's rank state; raises outside an SPMD region."""
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        raise NotInSpmdRegion(
            "this operation requires a rank context; run it inside "
            "repro.spmd(fn, ranks=N)"
        )
    return ctx


def try_current() -> Optional["RankState"]:
    """Like :func:`current` but returns None outside SPMD regions."""
    return getattr(_tls, "ctx", None)


class _Task:
    """An async task queued for execution on this rank."""

    __slots__ = ("fn", "args", "kwargs", "reply_rank", "reply_token",
                 "enqueued_at")

    def __init__(self, fn, args, kwargs, reply_rank, reply_token):
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.reply_rank = reply_rank
        self.reply_token = reply_token
        #: Stamped at enqueue so telemetry can report spawn->run wait.
        self.enqueued_at = time.perf_counter()


class RankState:
    """Everything one rank owns: segment, inbox, task queue, futures."""

    def __init__(self, world: "World", rank: int, segment_size: int):
        self.world = world
        self.rank = rank
        factory = world._segment_factory
        self.segment = (Segment(segment_size, rank=rank)
                        if factory is None else factory(rank, segment_size))
        self.stats = CommStats()
        #: This rank's telemetry state (histograms, flight recorder);
        #: always present — a no-op object when telemetry is "off".
        self.telemetry = world.telemetry.rank(rank)
        self._cv = threading.Condition()
        self._inbox: deque[ActiveMessage] = deque()
        self.task_queue: deque[_Task] = deque()
        self._pending_lock = threading.Lock()
        # token -> Future; the future's ``_dst`` slot carries the
        # destination rank (one dict on the send hot path, not two).
        self._pending: dict[int, Any] = {}
        # token -> (t0 monotonic, handler, dst, trace_id); only fed when
        # telemetry is active — the straggler watchdog's work list.
        self._pending_meta: dict[int, tuple] = {}
        self._token_counter = itertools.count(1)
        # The handler lock serializes AM-handler/task execution between the
        # rank's own advance() and the shared progress thread (paper's
        # "concurrent" thread-support mode).
        self._handler_lock = threading.RLock()
        # Finish-scope stack for the RAII finish construct (paper §III-G).
        self.finish_stack: list = []
        # Outstanding non-blocking copy handles (async_copy_fence).
        self.outstanding_copies: list = []
        # Per-collective sequence counters so that collective AM keys line
        # up across ranks (all ranks execute collectives in the same
        # order); the engine owns the in-flight tree state machines.
        self.coll_seq = 0
        self.team_seq: dict[tuple, int] = {}
        self.coll = CollEngine(self)
        # Owner-side tables: global locks, directory objects, ...
        self.lock_table: dict[int, dict] = {}
        self.dir_table: dict[int, Any] = {}
        # Free-form per-rank scratch space for applications/benchmarks.
        self.scratch: dict[str, Any] = {}
        self.done = False
        #: Set when the rank's SPMD body returned (survivable-death
        #: finalize waits on this instead of a world barrier).
        self.body_done = False
        #: Set when this rank "crashed" (see :func:`die`); the failure
        #: detector converts it into a PeerFailure on every other rank.
        self.dead = False
        #: Stamped on every progress call — the liveness signal the
        #: world-level heartbeat failure detector watches.
        self.last_heartbeat = time.monotonic()

    # -- messaging ------------------------------------------------------
    def deliver(self, am: ActiveMessage) -> None:
        """Called by the conduit to enqueue an incoming message."""
        with self._cv:
            self._inbox.append(am)
            self._cv.notify_all()

    def deliver_many(self, ams) -> None:
        """Batch :meth:`deliver`: one lock acquisition and one wakeup
        for a whole burst (e.g. every frame in one ring slot)."""
        with self._cv:
            self._inbox.extend(ams)
            self._cv.notify_all()

    def new_token(self) -> int:
        return next(self._token_counter)

    def send_am(
        self,
        dst: int,
        handler: str,
        args: tuple = (),
        payload: Any = None,
        expect_reply: bool = False,
    ):
        """Send an active message; optionally return a reply future."""
        fut = None
        token = None
        trace_id = span_id = 0
        if self.telemetry.active:
            # Stamp the thread's bound trace context into the message:
            # the pair rides the wire frame as a trailer and re-binds in
            # the target's handler dispatch (causal propagation).
            trace_id, span_id = tracing.current_ids()
        if expect_reply:
            token = self.new_token()
            fut = Future(self)
            fut._dst = dst
            with self._pending_lock:
                self._pending[token] = fut
            if self.telemetry.active:
                self._pending_meta[token] = (
                    time.monotonic(), handler, dst, trace_id)
            if self.telemetry.full:
                # AM round-trip latency: request send -> reply handled.
                tel, t0 = self.telemetry, time.perf_counter()
                fut.add_callback(lambda _f: tel.record_latency(
                    "am_rtt", time.perf_counter() - t0
                ))
        am = ActiveMessage(
            handler=handler, src_rank=self.rank, args=args,
            payload=payload, token=token,
            trace_id=trace_id, span_id=span_id,
        )
        self.world.conduit.send_am(self.rank, dst, am)
        return fut

    def fail_pending(self, exc: BaseException,
                     dst: int | None = None) -> None:
        """Fail outstanding reply futures addressed to ``dst`` (all
        destinations when ``dst`` is None) with ``exc``.

        The reliability layer synthesizes error replies only for
        *unacked* requests; a request acked just before its target died
        leaves an orphaned future that nothing would ever complete —
        this is the death-time sweep that rescues those waiters.
        """
        with self._pending_lock:
            doomed = [t for t, f in self._pending.items()
                      if dst is None or f._dst == dst]
            futs = []
            for t in doomed:
                self._pending_meta.pop(t, None)
                f = self._pending.pop(t, None)
                if f is not None:
                    futs.append(f)
        for f in futs:
            f.set_exception(exc)

    def reply(self, am: ActiveMessage, args: tuple = (),
              payload: Any = None) -> None:
        """Send the reply for a request AM (used inside handlers).

        ``replies_sent`` is charged by the conduit layer (every send
        funnels through ``_encode_and_record``, which sees the reply
        flag) — not here — so the hot reply path pays one stats lock,
        not two."""
        reply = make_reply(am, self.rank, args=args, payload=payload)
        self.world.conduit.send_am(self.rank, am.src_rank, reply)

    def send_reply_to(self, dst: int, token: int, args: tuple = (),
                      payload: Any = None) -> None:
        """Reply to a previously stored (rank, token) pair — used by
        owner-queued structures such as global locks."""
        trace_id = span_id = 0
        if self.telemetry.active:
            trace_id, span_id = tracing.current_ids()
        am = ActiveMessage(
            handler="__reply__", src_rank=self.rank, args=args,
            payload=payload, token=token, is_reply=True,
            trace_id=trace_id, span_id=span_id,
        )
        self.world.conduit.send_am(self.rank, dst, am)

    # -- progress ---------------------------------------------------------
    def advance(self, max_items: int | None = None) -> bool:
        """Process pending active messages and queued tasks.

        Returns True when any progress was made.  This is the paper's
        ``advance()``: user code may call it explicitly; every blocking
        runtime operation calls it while waiting.
        """
        self.last_heartbeat = time.monotonic()
        tel = self.telemetry
        t0 = time.perf_counter() if tel.full else 0.0
        progressed = False
        handled = 0
        while max_items is None or handled < max_items:
            with self._cv:
                am = self._inbox.popleft() if self._inbox else None
            if am is None:
                break
            self._handle(am)
            progressed = True
            handled += 1
        while self.task_queue and (max_items is None or handled < max_items):
            task = self.task_queue.popleft()
            self._run_task(task)
            progressed = True
            handled += 1
        if tel.full and handled:
            # The progress engine's poll latency: how long one advance()
            # held the rank (p99 here is the paper's attentiveness
            # metric).  Idle polls are skipped — spin-waits call
            # advance() millions of times and a histogram append per
            # empty poll would dominate the very cost being measured.
            tel.histogram("advance").record_seconds(
                time.perf_counter() - t0
            )
        flush = self.world._am_flush
        if flush is not None:
            # Aggregating conduits (proc rings) publish pending sends at
            # every progress point, so a request whose sender is about
            # to block never idles in the aggregation buffer.
            flush()
        return progressed

    def _handle(self, am: ActiveMessage) -> None:
        frame = am._frame
        if frame is not None:
            # Decode-at-target: the receiver materializes fresh objects
            # from the wire frame (by-value delivery semantics).
            tel = self.telemetry
            if tel.full:
                t0 = time.perf_counter()
                am = frame.thaw()
                tel.histogram("deser").record_seconds(
                    time.perf_counter() - t0
                )
            else:
                am = frame.thaw()
        self.stats.add(ams_handled=1)
        if self.telemetry.active and am.handler not in (
            "__rel_ping__", "__rel_pong__", "__rel_ack__",
        ):  # protocol chatter would drown out the useful history
            self.telemetry.flight_event(
                "am_handled", src=am.src_rank, dst=self.rank,
                detail=am.handler, trace_id=am.trace_id,
            )
        with self._handler_lock:
            if am.is_reply:
                with self._pending_lock:
                    fut = self._pending.pop(am.token, None)
                    if self._pending_meta:
                        self._pending_meta.pop(am.token, None)
                if fut is None:
                    # Under the reliability layer a reply can legally
                    # arrive after the op's deadline already completed
                    # its future with CommTimeout — drop it, counted.
                    if getattr(self.world, "_reliable", None) is not None:
                        self.stats.add(stale_replies=1)
                        return
                    raise PgasError(
                        f"rank {self.rank}: reply for unknown token {am.token}"
                    )
                if am.args and am.args[0] == "__error__":
                    fut.set_exception(am.args[1])
                else:
                    fut.set_result((am.args, am.payload))
                return
            handler = handler_registry.get(am.handler)
            if handler is None:
                raise PgasError(f"unknown AM handler {am.handler!r}")
            tel = self.telemetry
            if am.trace_id and tel.active:
                # Restore the sender's trace context for the handler's
                # duration: spans recorded and AMs sent inside it
                # (replies, replication hops) join the originating
                # client op's trace.
                span_id = tel.new_span_id()
                t0 = time.perf_counter() if tel.full else 0.0
                with tracing.bound(am.trace_id, span_id):
                    try:
                        handler(self, am)
                    except BaseException as exc:
                        self._handler_error(am, exc)
                    finally:
                        if tel.full:
                            tel.record_span(
                                f"am:{am.handler}", t0,
                                time.perf_counter() - t0,
                                detail=f"from rank {am.src_rank}",
                                trace_id=am.trace_id, span_id=span_id,
                                parent_id=am.span_id)
                return
            try:
                handler(self, am)
            except BaseException as exc:  # surface handler errors
                self._handler_error(am, exc)

    def _handler_error(self, am: ActiveMessage, exc: BaseException) -> None:
        """Surface a handler exception: error reply when the sender
        waits for one, world failure otherwise."""
        if am.token is not None:
            err = make_reply(am, self.rank, args=("__error__", exc))
            self.world.conduit.send_am(self.rank, am.src_rank, err)
        else:
            self.world.fail(self.rank, exc)
            raise exc

    def _run_task(self, task: _Task) -> None:
        """Execute one queued async task and reply with its result."""
        tel = self.telemetry
        name = getattr(task.fn, "__name__", None) or repr(task.fn)
        t_run = time.perf_counter()
        if tel.active:
            tel.flight_event("task_run", src=task.reply_rank,
                             dst=self.rank, detail=name)
            if tel.full:
                # Spawn -> run wait (time spent queued on this rank).
                tel.histogram("task_queue_wait").record_seconds(
                    t_run - task.enqueued_at
                )
        try:
            self._run_task_body(task)
        finally:
            if tel.active:
                dur = time.perf_counter() - t_run
                tel.flight_event("task_done", src=task.reply_rank,
                                 dst=self.rank, detail=name)
                if tel.full:
                    tel.histogram("task_exec").record_seconds(dur)
                    tel.record_span(f"task:{name}", t_run, dur)

    def _run_task_body(self, task: _Task) -> None:
        with self._handler_lock, self._activate():
            try:
                result = task.fn(*task.args, **task.kwargs)
            except BaseException as exc:
                if task.reply_token is not None:
                    self.send_reply_to(
                        task.reply_rank, task.reply_token,
                        args=("__error__", exc),
                    )
                    return
                self.world.fail(self.rank, exc)
                raise
            if task.reply_token is not None:
                # The wire layer serializes the result into the reply
                # frame (by-reference fallback for unencodable values).
                self.send_reply_to(
                    task.reply_rank, task.reply_token,
                    args=("__ok__",), payload=result,
                )

    def _activate(self):
        """Temporarily bind this rank to the executing thread (progress
        thread support)."""
        return _ActivateCtx(self)

    # -- blocking helper ---------------------------------------------------
    def wait_until(self, pred: Callable[[], bool], what: str = "",
                   timeout: float | None = None) -> None:
        """Poll ``pred`` while making progress; the blocking idiom.

        Raises :class:`PeerFailure` if another rank fails while we wait and
        :class:`CommTimeout` after ``timeout`` (default: the world's
        operation timeout) seconds.
        """
        if pred():
            return
        if timeout is None:
            timeout = self.world.op_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            failure = self.world.failure
            if failure is not None and failure[0] != self.rank:
                raise PeerFailure(failure[0], failure[1])
            progressed = self.advance()
            if pred():
                return
            if not progressed:
                # Conduit inbound fast path (proc rings): the blocked
                # rank thread polls shared memory directly — on a busy
                # pair the message is picked up here, with no recv
                # thread wakeup and no syscalls on the critical path.
                poll = self.world._am_poll
                if poll is not None and poll():
                    continue
                with self._cv:
                    if not self._inbox and not pred():
                        self._cv.wait(0.001)
            if deadline is not None and time.monotonic() > deadline:
                self.telemetry.flight_event(
                    "op_timeout", src=self.rank, dst=-1,
                    detail=f"wait_until({what or pred}) expired "
                           f"after {timeout}s",
                )
                raise CommTimeout(
                    f"rank {self.rank}: timed out waiting for {what or pred}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankState rank={self.rank}/{self.world.n_ranks}>"


class _ActivateCtx:
    """Binds/unbinds a rank context on the executing thread."""

    __slots__ = ("ctx", "prev")

    def __init__(self, ctx: RankState):
        self.ctx = ctx
        self.prev = None

    def __enter__(self):
        self.prev = getattr(_tls, "ctx", None)
        _tls.ctx = self.ctx
        return self.ctx

    def __exit__(self, *exc):
        _tls.ctx = self.prev


class World:
    """One SPMD execution: ``n_ranks`` ranks over a conduit.

    Reliability knobs
    -----------------
    ``reliability``:
        ``None`` (default) uses the conduit as-is.  Anything else wraps
        the conduit in :class:`~repro.gasnet.reliability.ReliableConduit`:
        ``True`` for the default config, a dict of
        :class:`~repro.gasnet.reliability.ReliabilityConfig` fields, or a
        ready config/conduit instance.
    ``heartbeat_timeout``:
        When set, a world-level failure detector declares any rank that
        makes no runtime progress for this many seconds (or that called
        :func:`die`) dead, failing the world with
        :class:`~repro.errors.RankDead` so blocked peers raise
        :class:`~repro.errors.PeerFailure` instead of hanging.  Must
        exceed the longest pure-compute (non-communicating) phase of the
        program.  ``heartbeat_period`` is the detector's polling period.
    ``telemetry``:
        ``None``/``"off"`` (default) records nothing and leaves the
        conduit unwrapped; ``"flight"`` runs only the per-rank flight
        recorder (dumped on failure); ``"full"``/``True`` adds per-op
        latency histograms and spans.  Also accepts a dict of
        :class:`~repro.telemetry.TelemetryConfig` fields or a ready
        config.  See :mod:`repro.telemetry`.
    ``survive_rank_death``:
        ``False`` (default) keeps the historical contract: the first
        :class:`~repro.errors.RankDead` fails the whole world and every
        blocked peer raises :class:`~repro.errors.PeerFailure`.  With
        ``True`` a detected death is *survivable*: the dead rank is
        recorded in :attr:`dead_ranks`, subscribers registered via
        :meth:`on_rank_death` are notified (this is what drives
        DistHashMap backup promotion), in-flight AMs to the dead peer
        fail fast with ``RankDead``, and the surviving ranks keep
        running.  The implicit finalize barrier degrades to a
        done-or-dead wait so survivors can exit without the dead rank.
    """

    def __init__(
        self,
        n_ranks: int,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        conduit=None,
        thread_mode: str = "serialized",
        op_timeout: float | None = 60.0,
        reliability=None,
        heartbeat_timeout: float | None = None,
        heartbeat_period: float = 0.02,
        telemetry=None,
        survive_rank_death: bool = False,
        local_ranks=None,
        segment_factory=None,
    ):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if thread_mode not in ("serialized", "concurrent"):
            raise ValueError("thread_mode must be serialized|concurrent")
        self.id = next(_world_ids)
        self.n_ranks = n_ranks
        #: None on in-process backends (every rank is local).  On the
        #: proc backend each rank process holds the full directory of
        #: RankState objects, but only its own rank *executes* here —
        #: the rest are stubs whose segments are shared-memory views.
        #: Liveness machinery (progress thread, failure detector,
        #: metrics sampler, reliability heartbeats) must only drive the
        #: local ranks.
        self.local_ranks = (None if local_ranks is None
                            else frozenset(local_ranks))
        self._segment_factory = segment_factory
        self.thread_mode = thread_mode
        self.op_timeout = op_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_period = heartbeat_period
        self.survive_rank_death = bool(survive_rank_death)
        #: Ranks declared dead by any failure detector (heartbeat
        #: silence or :func:`die`).  Read freely; written via mark_dead.
        self.dead_ranks: set[int] = set()
        self._death_subs: list[Callable[[int, BaseException], None]] = []
        #: Observability state (histograms, flight recorder, spans) —
        #: see :mod:`repro.telemetry`.  Mode "off" records nothing and
        #: installs no conduit layer.
        self.telemetry = WorldTelemetry(n_ranks, _resolve_telemetry(telemetry))
        conduit = conduit if conduit is not None else SmpConduit()
        #: Set by ReliableConduit.attach; consulted by the AM layer to
        #: tolerate post-deadline (stale) replies.
        self._reliable = None
        if reliability is not None and reliability is not False:
            conduit = _wrap_reliable(conduit, reliability)
        if self.telemetry.enabled:
            # Outermost layer: latencies include reliability retries.
            conduit = Observer(conduit, self.telemetry)
        self.conduit = conduit
        #: Conduit-installed hook (see ProcConduit.attach): flush any
        #: sender-side AM aggregation; called from every advance().
        self._am_flush: Callable[[], None] | None = None
        #: Conduit-installed hook: poll inbound transport state from a
        #: blocked rank thread (returns True when anything arrived).
        self._am_poll: Callable[[], bool] | None = None
        self.ranks = [RankState(self, r, segment_size) for r in range(n_ranks)]
        self.conduit.attach(self)
        self._glock = threading.Lock()
        self._failure: tuple[int, BaseException] | None = None
        self._lock_ids = itertools.count(1)
        self._dir_ids = itertools.count(1)
        self._progress_stop = threading.Event()
        self._progress_thread: threading.Thread | None = None
        self._detector_stop = threading.Event()
        self._detector_thread: threading.Thread | None = None
        if heartbeat_timeout is not None:
            self._detector_thread = threading.Thread(
                target=self._failure_detector_main,
                name=f"pgas-detector-{self.id}", daemon=True,
            )
            self._detector_thread.start()
        # Background metrics sampler + straggler watchdog (see
        # repro.telemetry.metrics); only started when the telemetry
        # config asks for either.
        self._sampler: MetricsSampler | None = None
        cfg = self.telemetry.config
        if self.telemetry.enabled and (cfg.sample_period
                                       or cfg.watchdog_period):
            self._sampler = MetricsSampler(
                self, cfg.sample_period, cfg.watchdog_period,
                cfg.slow_op_factor, cfg.slow_op_min_s)
            self._sampler.start()

    # -- observability -------------------------------------------------------
    def dump_flight_recorder(self, header: str = "", file=None) -> str:
        """Merge every rank's flight-recorder ring into one time-ordered
        human-readable dump; write it to ``file`` when given (pass
        ``sys.stderr`` for the classic crash dump) and return it.

        When the conduit stack contains a chaos conduit, its injected
        faults (``chaos_drop``/``chaos_dup``/``chaos_kill``/...) are
        spliced into the merged timeline as instants, so the dump shows
        fault injection and runtime reaction side by side.
        """
        extra = None
        for layer in layers(self.conduit):
            fault_events = getattr(layer, "fault_events", None)
            if callable(fault_events):
                try:
                    extra = fault_events()
                except Exception:
                    extra = None
                break
        text = self.telemetry.dump_flight_recorder(header=header,
                                                   extra_events=extra)
        if file is not None:
            file.write(text)
        return text

    def control_event(self, kind: str, src: int, dst: int,
                      nbytes: int = 0, detail: str = "") -> None:
        """Report a conduit-layer control event (``retransmit``,
        ``dup_suppressed``, ``chaos_drop``, ``peer_dead``, ...) to every
        observing sink — telemetry flight ring and active traces — once.
        A no-op when nothing observes."""
        obs = find_layer(self.conduit, Observer)
        if obs is not None:
            obs.control(kind, src, dst, nbytes, detail)

    def stop_sampler(self) -> None:
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler.join(timeout=5.0)
            self._sampler = None

    def metrics_reduce(self, team=None, snapshot: dict | None = None) -> dict:
        """Collective cluster-wide metrics aggregation: every rank's
        histogram/counter/gauge snapshot folded over the tree
        collectives engine.  Must be called from rank context by all
        members of ``team``; see :func:`repro.telemetry.metrics_reduce`."""
        from repro.telemetry import metrics as _metrics

        return _metrics.metrics_reduce(team=team, snapshot=snapshot)

    def is_local(self, rank: int) -> bool:
        """Whether ``rank`` executes in this process (always true on
        in-process backends)."""
        return self.local_ranks is None or rank in self.local_ranks

    # -- failure propagation ------------------------------------------------
    @property
    def failure(self) -> tuple[int, BaseException] | None:
        return self._failure

    def fail(self, rank: int, exc: BaseException) -> None:
        """Record the first failure and wake every blocked rank."""
        with self._glock:
            if self._failure is None:
                self._failure = (rank, exc)
        self.poke_all()

    # -- rank-death notification ---------------------------------------------
    def on_rank_death(self, callback: Callable[[int, BaseException], None]
                      ) -> None:
        """Subscribe to rank-death events (RankDead).

        ``callback(rank, exc)`` runs on the detector's thread — it must
        be quick and must not block on communication (record the event,
        consume it from a rank thread).  This is the failover hook: the
        replicated containers subscribe to flip their shard tables and
        promote backups.
        """
        with self._glock:
            self._death_subs.append(callback)

    def mark_dead(self, rank: int, exc: BaseException) -> None:
        """Declare ``rank`` dead (idempotent).

        Always records the death in :attr:`dead_ranks`, marks the rank
        state, tells the reliability layer to fail-fast traffic to the
        peer, and notifies :meth:`on_rank_death` subscribers.  Then:
        without ``survive_rank_death`` the world fails (the historical
        fatal contract); with it the survivors are merely poked so
        blocked waits re-evaluate.
        """
        with self._glock:
            if rank in self.dead_ranks:
                return
            self.dead_ranks.add(rank)
            subs = list(self._death_subs)
        if 0 <= rank < self.n_ranks:
            self.ranks[rank].dead = True
        rc = getattr(self, "_reliable", None)
        if rc is not None:
            try:
                rc._note_peer_dead(rank, exc)
            except Exception:
                pass
        # Sweep orphaned reply futures: waiters on the dead rank get the
        # death as their answer, and the dead rank's own waits unwind so
        # a partitioned primary does not sit out its full op deadline
        # inside a handler.
        for r in range(self.n_ranks):
            try:
                self.ranks[r].fail_pending(
                    exc, dst=None if r == rank else rank)
            except Exception:
                pass
        for cb in subs:
            try:
                cb(rank, exc)
            except Exception:
                pass  # a broken subscriber must not mask the death
        if self.survive_rank_death:
            self.poke_all()
        else:
            self.fail(rank, exc)

    def live_ranks(self) -> list[int]:
        """Ranks not declared dead (sorted)."""
        with self._glock:
            dead = set(self.dead_ranks)
        return [r for r in range(self.n_ranks) if r not in dead]

    def poke_all(self) -> None:
        """Wake all ranks blocked in wait_until (state changed)."""
        for r in self.ranks:
            with r._cv:
                r._cv.notify_all()

    # -- progress thread (concurrent mode) -----------------------------------
    def start_progress_thread(self) -> None:
        if self._progress_thread is not None:
            return
        self._progress_thread = threading.Thread(
            target=self._progress_main, name=f"pgas-progress-{self.id}",
            daemon=True,
        )
        self._progress_thread.start()

    def stop_progress_thread(self) -> None:
        self._progress_stop.set()
        if self._progress_thread is not None:
            self._progress_thread.join(timeout=5.0)
            self._progress_thread = None

    # -- failure detector (heartbeat liveness) -------------------------------
    def stop_failure_detector(self) -> None:
        self._detector_stop.set()
        if self._detector_thread is not None:
            self._detector_thread.join(timeout=5.0)
            self._detector_thread = None

    def _failure_detector_main(self) -> None:
        """Declare ranks that stop making progress dead (converted to
        PeerFailure on every blocked peer) instead of letting the world
        hang until the op timeout."""
        while not self._detector_stop.wait(self.heartbeat_period):
            if self._failure is not None:
                return
            now = time.monotonic()
            for rk in self.ranks:
                if not self.is_local(rk.rank):
                    continue  # remote stubs: their process watches them
                if rk.done or rk.rank in self.dead_ranks:
                    continue
                if rk.dead:
                    self.mark_dead(rk.rank, RankDead(
                        f"rank {rk.rank} died (simulated crash)"
                    ))
                    continue
                silent = now - rk.last_heartbeat
                if silent > self.heartbeat_timeout:
                    self.mark_dead(rk.rank, RankDead(
                        f"rank {rk.rank} made no runtime progress for "
                        f"{silent:.2f}s (heartbeat_timeout="
                        f"{self.heartbeat_timeout}s)"
                    ))

    def _progress_main(self) -> None:
        """Drain inboxes of busy ranks (the paper's worker Pthread)."""
        while not self._progress_stop.is_set():
            progressed = False
            for rank in self.ranks:
                if not self.is_local(rank.rank):
                    continue
                if rank.done or rank.dead:
                    continue
                try:
                    progressed |= rank.advance(max_items=16)
                except PgasError:
                    pass  # failure already recorded via world.fail
            if not progressed:
                time.sleep(0.0005)


def _wrap_reliable(conduit, reliability):
    """Resolve the World ``reliability=`` knob into a ReliableConduit."""
    from repro.gasnet.reliability import ReliabilityConfig, ReliableConduit

    if isinstance(conduit, ReliableConduit):
        return conduit  # already wrapped; the knob is a no-op
    if isinstance(reliability, ReliableConduit):
        raise PgasError(
            "pass a ReliableConduit via conduit=, not reliability="
        )
    if reliability is True:
        return ReliableConduit(conduit)
    if isinstance(reliability, ReliabilityConfig):
        return ReliableConduit(conduit, config=reliability)
    if isinstance(reliability, dict):
        return ReliableConduit(conduit, **reliability)
    raise PgasError(
        f"reliability= must be True, a dict of ReliabilityConfig fields, "
        f"or a ReliabilityConfig (got {reliability!r})"
    )


class _RankKilled(BaseException):
    """Internal control-flow exception: unwinds a rank that called
    :func:`die` without reporting a failure (it simulates a crash)."""


def die() -> None:
    """Simulate the calling rank crashing: it stops executing *without*
    reporting an error, exactly like a killed process.  Detection is the
    failure detector's job (``World(heartbeat_timeout=...)`` or the
    reliable conduit's peer heartbeats); peers then observe
    :class:`~repro.errors.PeerFailure` instead of hanging."""
    ctx = current()
    ctx.dead = True
    ctx.world.poke_all()
    raise _RankKilled()


def spmd(
    fn: Callable,
    ranks: int = 4,
    *,
    args: tuple = (),
    kwargs: dict | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    conduit=None,
    thread_mode: str = "serialized",
    timeout: float | None = 60.0,
    reliability=None,
    heartbeat_timeout: float | None = None,
    heartbeat_period: float = 0.02,
    telemetry=None,
    survive_rank_death: bool = False,
) -> list:
    """Run ``fn`` in SPMD style on ``ranks`` ranks; return per-rank results.

    ``fn`` is called with ``*args, **kwargs`` on every rank; inside it the
    usual SPMD API (:func:`repro.myrank`, :func:`repro.barrier`, shared
    objects, asyncs, ...) is available.  The first exception raised by any
    rank unblocks all peers and is re-raised here.

    ``conduit`` selects the communication backend: a ready
    :class:`~repro.gasnet.conduit.Conduit` instance, a backend name
    (``"smp"`` for threads-as-ranks, ``"proc"`` for processes-as-ranks
    over shared memory), or ``None`` to honor the ``REPRO_CONDUIT``
    environment variable (default ``"smp"``).

    >>> import repro
    >>> repro.spmd(lambda: repro.myrank(), ranks=3)
    [0, 1, 2]
    """
    if getattr(_tls, "ctx", None) is not None:
        raise PgasError("nested spmd() regions are not supported")
    kwargs = kwargs or {}
    from repro.gasnet import backends as _backends

    conduit, backend = _backends.resolve(conduit)
    if backend is not None and backend.caps.needs_launcher:
        from repro.core.proclaunch import spmd_proc

        return spmd_proc(
            fn, ranks, args=args, kwargs=kwargs,
            segment_size=segment_size, thread_mode=thread_mode,
            timeout=timeout, reliability=reliability,
            heartbeat_timeout=heartbeat_timeout,
            heartbeat_period=heartbeat_period, telemetry=telemetry,
            survive_rank_death=survive_rank_death,
            transport=(backend.options or {}).get("transport"),
        )
    world = World(
        ranks, segment_size=segment_size, conduit=conduit,
        thread_mode=thread_mode, op_timeout=timeout,
        reliability=reliability, heartbeat_timeout=heartbeat_timeout,
        heartbeat_period=heartbeat_period, telemetry=telemetry,
        survive_rank_death=survive_rank_death,
    )
    results: list = [None] * ranks
    secondary: list[BaseException | None] = [None] * ranks

    def rank_main(r: int) -> None:
        ctx = world.ranks[r]
        _tls.ctx = ctx
        try:
            results[r] = fn(*args, **kwargs)
            # Implicit finalization barrier (cf. upcxx::finalize / UPC's
            # implicit barrier at exit): a rank keeps servicing active
            # messages until every peer is done issuing work, so
            # trailing asyncs/RMA addressed to it are never stranded.
            ctx.body_done = True
            world.poke_all()
            if world.survive_rank_death:
                # A tree barrier would hang on a dead member; in
                # survivable-death mode the finalize degrades to a
                # done-or-dead wait over process-shared rank state (the
                # rank keeps servicing AMs inside wait_until, so the
                # trailing-traffic guarantee is unchanged).
                ctx.wait_until(
                    lambda: all(p.body_done or p.dead for p in world.ranks),
                    what="finalize (done-or-dead)",
                )
            else:
                from repro.core.collectives import barrier as _finalize

                _finalize()
        except _RankKilled:
            pass  # simulated crash: disappear without reporting
        except BaseException as exc:
            if isinstance(exc, PeerFailure):
                secondary[r] = exc
            else:
                world.fail(r, exc)
        finally:
            # A dead rank must not look "finished" — the failure
            # detector distinguishes the two.
            ctx.done = not ctx.dead
            _tls.ctx = None

    if thread_mode == "concurrent":
        world.start_progress_thread()
    threads = [
        threading.Thread(
            target=rank_main, args=(r,), name=f"pgas-rank-{r}", daemon=True
        )
        for r in range(ranks)
    ]
    try:
        for t in threads:
            t.start()
        deadline = None if timeout is None else time.monotonic() + timeout + 5.0
        for t in threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.1, deadline - time.monotonic())
            t.join(timeout=remaining)
        stuck = [t for t in threads if t.is_alive()]
        if stuck:
            world.fail(-1, CommTimeout(f"{len(stuck)} rank(s) hung"))
            for t in stuck:
                t.join(timeout=5.0)
            exc = CommTimeout(
                f"spmd: {len(stuck)} of {ranks} ranks did not terminate"
            )
            _dump_on_failure(world, exc)
            raise exc
    finally:
        world.stop_progress_thread()
        world.stop_failure_detector()
        world.stop_sampler()
        close = getattr(world.conduit, "close", None)
        if callable(close):
            close()
    if world.failure is not None:
        failed_rank, exc = world.failure
        _dump_on_failure(world, exc)
        raise exc
    return results


def _dump_on_failure(world: World, exc: BaseException) -> None:
    """The flight recorder's trigger: a communication failure is about
    to propagate to the caller — dump every rank's recent history to
    stderr first (the exception alone says *what* gave up; the merged
    ring says what every rank was *doing*)."""
    if not world.telemetry.enabled:
        return
    if not isinstance(exc, (CommTimeout, PeerFailure, RankDead)):
        return
    try:
        world.dump_flight_recorder(
            header=f"{type(exc).__name__}: {exc}", file=sys.stderr
        )
    except Exception:  # a broken dump must never mask the real failure
        pass
