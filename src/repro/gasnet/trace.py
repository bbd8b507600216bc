"""Communication tracing.

A :class:`Trace` records every conduit operation of a world —
(wall time, initiator, kind, target, bytes) — while active.  Uses:

* debugging communication patterns ("which rank is hammering rank 0?");
* asserting *pattern shapes* in tests beyond what the aggregate
  counters in :mod:`repro.gasnet.stats` can express (e.g. "every rank
  sent exactly its 6 face neighbours, nothing else");
* feeding per-benchmark traces to the DES for replay.

Implementation: the trace joins the world's :class:`Observer` layer
(installing one outermost for the ``with`` block when telemetry has not
already), so an op is timed and sized once however many sinks listen.
Tracing is cooperative and cheap (one list append per op), but not free
— keep it out of timed regions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.gasnet.am import ActiveMessage
from repro.gasnet.conduit import Layer, find_layer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.world import World


@dataclass(frozen=True)
class TraceEvent:
    """One recorded communication operation."""

    t: float          # seconds since trace start
    kind: str         # "put" | "get" | "atomic" | "put_indexed"
                      # | "get_indexed" | "atomic_batch" | "am" | "reply"
                      # — plus reliability/chaos control events:
                      # "retransmit" | "ack"-less "dup_suppressed"
                      # | "rma_retry" | "op_timeout" | "peer_dead"
                      # | "chaos_drop" | "chaos_dup" | "chaos_reorder"
                      # | "chaos_fault"
    src: int
    dst: int
    nbytes: int
    detail: str = ""  # AM handler name, dtype, ...


class Observer(Layer):
    """The outermost layer: times and sizes each conduit op once and feeds
    every sink — the world's telemetry (latency histograms in ``"full"``
    mode, the initiator's flight ring) and each active :class:`Trace`.

    The world installs one when telemetry is on; a :class:`Trace` joins
    the existing one or installs its own for the ``with`` block.
    Telemetry histogram and flight names are the op names (``rma_put``,
    ``send_am``, ...; AMs fly as ``am``/``reply``); trace kinds drop the
    ``rma_`` prefix (``put``, ``get``, ..., ``am``, ``reply``).
    """

    def __init__(self, inner, telemetry=None):
        super().__init__(inner)
        #: The world's :class:`~repro.telemetry.recorder.WorldTelemetry`,
        #: or None when only traces are listening.
        self.telemetry = telemetry
        #: Active traces; replaced (never mutated) on enter/exit.
        self.traces: tuple[Trace, ...] = ()

    def _emit(self, name: str, kind: str, src: int, dst: int,
              nbytes: int, detail: str, t0: float) -> None:
        if self.telemetry is not None:
            tel = self.telemetry.ranks[src]
            if tel.full:
                tel.histogram(name).record_seconds(time.perf_counter() - t0)
            tel.flight_event(kind, src, dst, nbytes, detail)
        if self.traces:
            kind = kind.removeprefix("rma_")
            for trace in self.traces:
                trace._record(kind, src, dst, nbytes, detail, t=t0)

    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        # The size is read after the send, once the backend has encoded
        # the frame (with its telemetry) — sizing first would encode it
        # here without.
        t0 = time.perf_counter()
        try:
            self._inner.send_am(src, dst, am)
        finally:
            self._emit("send_am", "reply" if am.is_reply else "am", src,
                       dst, am.wire_bytes, am.handler, t0)

    def around(self, op, src, dst, nbytes, call, detail=""):
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            self._emit(op, op, src, dst, nbytes, detail, t0)

    def control(self, kind: str, src: int, dst: int, nbytes: int = 0,
                detail: str = "") -> None:
        """Record a control event (retransmit, dup suppression, injected
        chaos, peer death, ...) once in every sink."""
        tel = self.telemetry
        if tel is not None and 0 <= src < len(tel.ranks):
            tel.ranks[src].flight_event(kind, src, dst, nbytes, detail)
        for trace in self.traces:
            trace._record(kind, src, dst, nbytes, detail)


#: Serializes Trace enter/exit, which read-modify-write the stack and
#: an observer's trace tuple.
_install_lock = threading.Lock()


class Trace:
    """Context manager recording a world's communication.

    Collective discipline is the caller's business: installing/removing
    the observer layer swaps one attribute and is safe while other
    ranks communicate, but for meaningful traces bracket the region
    with barriers (see tests).

    >>> trace = Trace(repro.current_world())
    >>> with trace:
    ...     sa[remote_index] = 1
    >>> trace.count(kind="put")
    1
    """

    def __init__(self, world: World):
        self.world = world
        self.events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._t0 = 0.0
        self._observer: Observer | None = None

    def _record(self, kind: str, src: int, dst: int, nbytes: int,
                detail: str = "", t: float | None = None) -> None:
        if t is None:
            t = time.perf_counter()
        ev = TraceEvent(
            t=t - self._t0, kind=kind, src=src,
            dst=dst, nbytes=nbytes, detail=detail,
        )
        with self._lock:
            self.events.append(ev)

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "Trace":
        with _install_lock:
            if self._observer is not None:
                raise RuntimeError("trace already active")
            self._t0 = time.perf_counter()
            obs = find_layer(self.world.conduit, Observer)
            if obs is None:
                obs = Observer(self.world.conduit)
                self.world.conduit = obs
            obs.traces = obs.traces + (self,)
            self._observer = obs
        return self

    def __exit__(self, *exc) -> None:
        # Leave the observer; splice it out (wherever it now sits — other
        # layers may have been installed around it meanwhile) once no
        # sink is left.  Idempotent: a second exit is a no-op.
        with _install_lock:
            obs, self._observer = self._observer, None
            if obs is None:
                return
            obs.traces = tuple(t for t in obs.traces if t is not self)
            if not obs.traces and obs.telemetry is None:
                obs.splice_out(self.world)

    # -- queries ---------------------------------------------------------------
    def select(self, kind: str | None = None, src: int | None = None,
               dst: int | None = None) -> Iterator[TraceEvent]:
        for ev in self.events:
            if kind is not None and ev.kind != kind:
                continue
            if src is not None and ev.src != src:
                continue
            if dst is not None and ev.dst != dst:
                continue
            yield ev

    def count(self, **kw) -> int:
        return sum(1 for _ in self.select(**kw))

    def bytes(self, **kw) -> int:
        return sum(ev.nbytes for ev in self.select(**kw))

    def matrix(self, kind: str | None = None) -> np.ndarray:
        """The (src, dst) message-count matrix — the classic comm heatmap."""
        n = self.world.n_ranks
        m = np.zeros((n, n), dtype=np.int64)
        for ev in self.select(kind=kind):
            m[ev.src, ev.dst] += 1
        return m

    def partners(self, rank: int) -> set[int]:
        """Every rank this rank initiated an operation towards."""
        return {ev.dst for ev in self.select(src=rank)}
