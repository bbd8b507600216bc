"""A lossy, failing conduit for reliability hardening.

:class:`DelayConduit` scrambles message *timing*; :class:`ChaosConduit`
breaks the transport's *contract*.  Under a seeded RNG it

* **drops** active messages (silently — the classic lost packet),
* **duplicates** them (at-least-once delivery),
* **reorders** adjacent messages of the same (src, dst) pair, violating
  the pairwise-FIFO guarantee GASNet normally provides,
* raises :class:`~repro.errors.TransientCommError` from the one-sided
  RMA primitives (``rma_put``/``rma_get``/``rma_atomic`` and the indexed
  bulk ops) — either *before* the operation applies (nothing happened)
  or *after* it applied (the completion was lost, the dangerous case for
  non-idempotent atomics),
* can sever one rank's connectivity mid-run (:meth:`kill_rank`): all
  traffic to and from that rank is black-holed.

The runtime's constructs assume reliable FIFO delivery and would corrupt
state or deadlock directly on this conduit; the point is to run them
through :class:`~repro.gasnet.reliability.ReliableConduit` wrapped around
this one and prove the stack survives.  Injected events are counted in
:class:`~repro.gasnet.stats.CommStats` (``chaos_drops``/``chaos_dups``/
``chaos_reorders``/``chaos_faults``) and reported as control events
(:meth:`~repro.core.world.World.control_event`) to telemetry and any
active :class:`~repro.gasnet.trace.Trace`.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.errors import PgasError, TransientCommError
from repro.gasnet.am import ActiveMessage
from repro.gasnet.conduit import Conduit, Layer


class ChaosConduit(Layer):
    """Conduit layer + seeded drop/dup/reorder/fault/partition injection.

    Wraps any in-process backend (default: a fresh
    :class:`~repro.gasnet.smp.SmpConduit`), doing the fault roll once per
    *send decision* and handing the survivors to the inner conduit's
    :meth:`~repro.gasnet.conduit.Conduit.deliver_encoded`.  Requires
    ``inner.caps.in_process_hooks``: chaos injection needs one process-
    wide view of the wire (a cross-process backend would let each rank
    roll its own divergent fault schedule).

    Parameters
    ----------
    inner:
        The transport to break; ``None`` builds an SMP conduit.
    seed:
        RNG seed; a fixed seed gives a reproducible fault *mix* (exact
        interleaving still depends on thread scheduling).
    am_drop_rate, am_dup_rate, am_reorder_rate:
        Per-message probabilities of dropping, duplicating, or holding a
        message back past its successor (pairwise-FIFO violation).
    rma_fault_rate:
        Per-operation probability that an RMA primitive raises
        :class:`TransientCommError`; half the faults fire *after* the
        operation applied at the target.
    """

    def __init__(self, inner: Conduit | None = None, seed: int = 0,
                 am_drop_rate: float = 0.0,
                 am_dup_rate: float = 0.0, am_reorder_rate: float = 0.0,
                 rma_fault_rate: float = 0.0):
        if inner is None:
            from repro.gasnet.smp import SmpConduit

            inner = SmpConduit()
        if not inner.caps.in_process_hooks:
            raise PgasError(
                f"ChaosConduit needs an in-process backend "
                f"(inner {type(inner).__name__} has "
                f"in_process_hooks=False)"
            )
        super().__init__(inner)
        self.am_drop_rate = float(am_drop_rate)
        self.am_dup_rate = float(am_dup_rate)
        self.am_reorder_rate = float(am_reorder_rate)
        self.rma_fault_rate = float(rma_fault_rate)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._chaos_lock = threading.Lock()
        #: Bounded trace of every injected fault, ``(t_rel, kind, src,
        #: dst, detail)`` with ``t_rel`` seconds since construction —
        #: together with :attr:`seed` this is the run's *fault schedule*
        #: (what was injected, when, to whom), exportable via
        #: :meth:`fault_schedule` for post-mortem replay/diagnosis.
        self.fault_log: deque[tuple[float, str, int, int, str]] = (
            deque(maxlen=4096)
        )
        self._t0 = time.monotonic()
        # perf_counter epoch taken at the same instant as _t0, so the
        # monotonic-relative fault log can be rebased onto the flight
        # recorder's perf_counter timeline (see fault_events()).
        self._t0_perf = time.perf_counter()
        #: One held-back message per (src, dst) pair, delivered *after*
        #: the next message to the pair — a pairwise-FIFO violation.
        self._held: dict[tuple[int, int], ActiveMessage] = {}
        self._killed: set[int] = set()

    # -- failure control ---------------------------------------------------
    def kill_rank(self, rank: int) -> None:
        """Sever ``rank``'s connectivity: every AM and RMA to or from it
        is dropped/raises from now on (the rank's thread keeps running —
        it is partitioned, not stopped)."""
        with self._chaos_lock:
            self._killed.add(rank)
            self._held = {
                k: v for k, v in self._held.items()
                if rank not in k
            }
        self._log_fault("chaos_kill", rank, rank, "partitioned")

    # -- helpers -----------------------------------------------------------
    def _log_fault(self, kind: str, src: int, dst: int,
                   detail: str = "", nbytes: int = 0) -> None:
        """Append to :attr:`fault_log` and report the control event."""
        self.fault_log.append(
            (time.monotonic() - self._t0, kind, src, dst, detail)
        )
        if self.world is not None:
            self.world.control_event(kind, src, dst, nbytes, detail)

    def fault_schedule(self) -> dict:
        """The run's injected-fault trace: ``{"seed", "faults"}`` where
        ``faults`` is a list of ``(t_rel, kind, src, dst, detail)``
        records (bounded to the most recent 4096)."""
        return {"seed": self.seed, "faults": list(self.fault_log)}

    def fault_events(self) -> list:
        """The fault schedule as flight-recorder events (``chaos_*``
        instants on the perf_counter timeline), ready to splice into a
        merged flight dump — injected faults then appear inline between
        the runtime events they caused."""
        from repro.telemetry.flight import FlightEvent

        return [
            FlightEvent(t=self._t0_perf + t_rel,
                        rank=src if src >= 0 else dst,
                        kind=kind, src=src, dst=dst, detail=detail)
            for (t_rel, kind, src, dst, detail) in self.fault_log
        ]

    def _fault_point(self, kind: str, src: int, dst: int) -> str | None:
        """Roll the RMA fault dice; returns None | "pre" | "post".

        Raises immediately when either endpoint is partitioned.
        """
        with self._chaos_lock:
            if src in self._killed or dst in self._killed:
                bad = dst if dst in self._killed else src
                raise TransientCommError(
                    f"chaos: rank {bad} unreachable ({kind} {src}->{dst})"
                )
            if float(self._rng.random()) >= self.rma_fault_rate:
                return None
            when = "pre" if float(self._rng.random()) < 0.5 else "post"
        self._rank(src).stats.add(chaos_faults=1)
        self._log_fault("chaos_fault", src, dst, f"{kind}:{when}")
        return when

    # -- active messages ---------------------------------------------------
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        self._encode_and_record(src, am)
        if src == dst:  # loopback is reliable on any real transport
            self._inner.deliver_encoded(src, dst, am)
            return
        to_deliver: list[ActiveMessage] = []
        dropped = duplicated = held_now = False
        with self._chaos_lock:
            held_prev = self._held.pop((src, dst), None)
            if src in self._killed or dst in self._killed:
                dropped = True
                held_prev = None  # partitioned: the held message dies too
            else:
                r_drop, r_dup, r_hold = (
                    float(self._rng.random()) for _ in range(3)
                )
                if r_drop < self.am_drop_rate:
                    dropped = True
                elif held_prev is None and r_hold < self.am_reorder_rate:
                    self._held[(src, dst)] = am
                    held_now = True
                else:
                    to_deliver.append(am)
                    if r_dup < self.am_dup_rate:
                        to_deliver.append(am)
                        duplicated = True
            if held_prev is not None:
                to_deliver.append(held_prev)  # after its successor: reorder
        if dropped:
            self._rank(src).stats.add(chaos_drops=1)
            self._log_fault("chaos_drop", src, dst, am.handler,
                            am.wire_bytes)
        if duplicated:
            self._rank(src).stats.add(chaos_dups=1)
            self._log_fault("chaos_dup", src, dst, am.handler,
                            am.wire_bytes)
        if held_now:
            self._rank(src).stats.add(chaos_reorders=1)
            self._log_fault("chaos_reorder", src, dst, am.handler,
                            am.wire_bytes)
        for m in to_deliver:
            self._inner.deliver_encoded(src, dst, m)

    # -- one-sided RMA: every op may fault before or after it applies --
    def around(self, op, src, dst, nbytes, call, detail=""):
        kind = op[4:]  # "put", "get", "atomic", "put_indexed", ...
        when = self._fault_point(kind, src, dst)
        out = call() if when != "pre" else None
        if when is not None:
            # A "post" fault: the op applied but its completion is lost.
            # A naive retry of an atomic would double-apply — exactly
            # what the reliability layer's op-id guard must prevent.
            raise TransientCommError(
                f"chaos: transient {kind} fault {src}->{dst} "
                f"({when}-completion)"
            )
        return out
