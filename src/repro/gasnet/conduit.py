"""Conduit interface — what a network must provide to the UPC++ runtime.

A conduit moves bytes and active messages between ranks.  Its contracts:

* ``rma_put``/``rma_get``/``rma_atomic`` are **one-sided**: they complete
  without the target executing any code (RDMA semantics).
* ``send_am`` is **asynchronous**: delivery enqueues the message at the
  target; execution happens at the target's next progress call.
* Point-to-point AM ordering between a fixed (src, dst) pair is FIFO —
  the guarantee GASNet provides and the runtime relies on.
* ``rma_put_indexed``/``rma_get_indexed``/``rma_atomic_batch`` are the
  **indexed bulk** primitives behind the batched RMA engine: one call
  moves/updates a whole vector of same-rank elements.  The base class
  supplies a generic per-element fallback, so every conduit supports
  them; conduits able to do better (the SMP conduit's fancy-indexed
  single-lock implementation) override them.

Those seven operations are the whole contract.  A *backend*
(:class:`~repro.gasnet.smp.SmpConduit`,
:class:`~repro.gasnet.proc.ProcConduit`) implements them; a
:class:`Layer` wraps another conduit and intercepts them.  Layers stack,
outermost first::

    Observer -> ReliableConduit -> ChaosConduit | DelayConduit -> backend

The :class:`~repro.gasnet.trace.Observer` (telemetry and traces) is
outermost, so it sees what the application experienced, retries
included; :class:`~repro.gasnet.reliability.ReliableConduit` restores
FIFO and exactly-once delivery over the fault-injecting layers beneath
it.  With telemetry off and no active ``Trace`` no layer is installed
and ``world.conduit`` is the backend itself.

Writing a layer: subclass :class:`Layer` and override :meth:`Layer.around`
to intercept every op in one place, or :meth:`Layer.send_am` for
AM-specific behaviour; the rest passes through to the inner conduit.
Events that never cross the seven-op surface (a retransmit, an injected
drop) are reported with :meth:`repro.core.world.World.control_event`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.gasnet.am import ActiveMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.world import World


@dataclass(frozen=True)
class ConduitCaps:
    """Capability flags a conduit advertises to the runtime and to tests.

    The backend factory (:mod:`repro.gasnet.backends`) and the fault
    layers consult these instead of isinstance checks, so new backends
    compose with the existing stack by declaring what they can do.
    """

    #: Ranks live in separate OS processes: objects cannot be shared by
    #: reference across the conduit, and per-process state (handler
    #: interning, telemetry rings) is not globally visible.
    cross_process: bool = False
    #: :func:`repro.die` produces a detectable rank death on this
    #: backend (thread simulation or a real process exit).
    supports_kill_rank: bool = True
    #: Chaos/delay fault injection can hook delivery in-process.  False
    #: for cross-process transports, where the layer would only see
    #: one rank's side of the wire.
    in_process_hooks: bool = True
    #: RMA reads/writes the target segment with no serialization and no
    #: intermediate copy beyond the transfer itself.
    zero_copy_rma: bool = True
    #: spmd() must go through the process launcher: the conduit cannot
    #: be instantiated standalone in the calling process.
    needs_launcher: bool = False
    #: Active messages travel through shared-memory SPSC rings with
    #: sender-side aggregation (:mod:`repro.gasnet.ring`) instead of a
    #: kernel transport.
    shm_rings: bool = False


class Conduit(abc.ABC):
    """Abstract network conduit."""

    world: "World | None" = None
    #: Default capability set (in-process, full-featured); backends
    #: override the class attribute, layers forward the inner one.
    caps: ConduitCaps = ConduitCaps()

    def attach(self, world: "World") -> None:
        """Bind the conduit to a world (called by the world constructor)."""
        self.world = world

    def close(self) -> None:
        """Release conduit resources (threads, buffers) at world teardown.

        Called by :func:`repro.spmd` after all ranks joined; the default
        is a no-op so simple conduits need not define it.
        """

    # -- shared send-path helpers ----------------------------------------
    def _rank(self, r: int):
        from repro.errors import PgasError

        if self.world is None:
            raise PgasError("conduit not attached to a world")
        if not 0 <= r < self.world.n_ranks:
            raise PgasError(
                f"rank {r} out of range [0, {self.world.n_ranks})"
            )
        return self.world.ranks[r]

    def _encode_and_record(self, src: int, am: ActiveMessage):
        """Encode ``am`` into its wire frame and charge the sender's
        stats.  Every conduit send path (smp, proc, chaos, delay)
        funnels through here so the frame exists before delivery and the
        fixed-layout hit rate is observable."""
        from repro.gasnet.wire import encode_am

        rank = self._rank(src)
        frame = encode_am(am, rank.telemetry)
        pickled = int(frame.used_pickle)
        rank.stats.add(ams_sent=1, am_bytes=frame.nbytes,
                       replies_sent=int(am.is_reply), wire_frames=1,
                       wire_fixed=1 - pickled, pickle_fallbacks=pickled,
                       wire_byref=int(frame.has_refs))
        return frame

    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        """Transport an AM whose frame was already encoded and whose
        stats were already recorded.

        This is the raw delivery primitive the fault layers
        (:class:`~repro.gasnet.chaos.ChaosConduit`,
        :class:`~repro.gasnet.delay.DelayConduit`) use: they do the
        encode/record once per *send decision* and then hand zero, one,
        or two copies of the message to the backend without re-charging
        the sender's counters.  The default simply re-enters
        :meth:`send_am`."""
        self.send_am(src, dst, am)

    # -- active messages ------------------------------------------------
    @abc.abstractmethod
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        """Deliver ``am`` into rank ``dst``'s inbox."""

    # -- one-sided RMA ---------------------------------------------------
    @abc.abstractmethod
    def rma_put(self, src: int, dst: int, offset: int,
                data: np.ndarray) -> None:
        """Write ``data`` into ``dst``'s segment at ``offset``."""

    @abc.abstractmethod
    def rma_get(self, src: int, dst: int, offset: int,
                dtype: np.dtype, count: int) -> np.ndarray:
        """Read ``count`` elements of ``dtype`` from ``dst``'s segment."""

    @abc.abstractmethod
    def rma_atomic(self, src: int, dst: int, offset: int,
                   dtype: np.dtype, op, operand):
        """Atomically read-modify-write one element; returns old value."""

    # -- indexed bulk RMA (batched engine) -------------------------------
    #
    # ``elem_offsets`` is an int64 array of *element* offsets relative to
    # byte offset ``base`` in ``dst``'s segment: element k lives at byte
    # ``base + elem_offsets[k] * dtype.itemsize``.  The defaults below
    # loop over the scalar primitives so any conduit works unmodified.

    def rma_put_indexed(self, src: int, dst: int, base: int,
                        elem_offsets: np.ndarray, data: np.ndarray) -> None:
        """Scatter ``data[k]`` to element offset ``elem_offsets[k]``."""
        data = np.ascontiguousarray(data)
        itemsize = data.dtype.itemsize
        for off, val in zip(np.asarray(elem_offsets, dtype=np.int64), data):
            self.rma_put(src, dst, base + int(off) * itemsize,
                         np.asarray([val], dtype=data.dtype))

    def rma_get_indexed(self, src: int, dst: int, base: int,
                        dtype: np.dtype, elem_offsets: np.ndarray
                        ) -> np.ndarray:
        """Gather the elements at ``elem_offsets`` into a new array."""
        dtype = np.dtype(dtype)
        idx = np.asarray(elem_offsets, dtype=np.int64)
        out = np.empty(idx.size, dtype=dtype)
        for k, off in enumerate(idx):
            out[k] = self.rma_get(
                src, dst, base + int(off) * dtype.itemsize, dtype, 1
            )[0]
        return out

    def rma_atomic_batch(self, src: int, dst: int, base: int,
                         dtype: np.dtype, elem_offsets: np.ndarray,
                         op, operands, return_old: bool = False):
        """Read-modify-write every element of ``elem_offsets``.

        ``op`` is an op name (``"xor"``, ``"add"``, ...) or a scalar
        callable; ``operands`` broadcasts against ``elem_offsets``.
        Elements are updated atomically; the batch as a whole need not
        be.  Returns the old values when ``return_old`` is true.
        """
        from repro.gasnet.atomics import resolve_scalar

        fn = resolve_scalar(op)
        dtype = np.dtype(dtype)
        idx = np.asarray(elem_offsets, dtype=np.int64)
        ops = np.broadcast_to(np.asarray(operands, dtype=dtype), idx.shape)
        old = np.empty(idx.size, dtype=dtype)
        for k, off in enumerate(idx):
            old[k] = self.rma_atomic(
                src, dst, base + int(off) * dtype.itemsize, dtype, fn, ops[k]
            )
        return old if return_old else None


class Layer(Conduit):
    """A conduit that wraps another conduit (``_inner``).

    The seven ops are written out here once as pass-throughs, each routed
    through :meth:`around`; ``caps``, :meth:`attach`, :meth:`close` and
    :meth:`deliver_encoded` forward to the inner conduit.  A subclass
    overrides :meth:`around` to wrap every op in one place and/or
    :meth:`send_am` for AM-specific behaviour.  Attributes of an inner
    layer are reached with :func:`find_layer`, not by forwarding.
    """

    def __init__(self, inner: Conduit):
        self._inner = inner
        self.world = inner.world

    @property
    def caps(self) -> ConduitCaps:
        return self._inner.caps

    def attach(self, world: "World") -> None:
        self.world = world
        self._inner.attach(world)

    def close(self) -> None:
        self._inner.close()

    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        self._inner.deliver_encoded(src, dst, am)

    def around(self, op: str, src: int, dst: int, nbytes: int, call,
               detail: str = ""):
        """Run ``call()`` — the inner conduit's ``op`` from ``src`` to
        ``dst`` moving ``nbytes`` — and return its result.

        ``op`` is the method name (``"send_am"``, ``"rma_put"``, ...);
        ``detail`` is the AM handler name or ``"<n> elems"`` for the
        indexed ops.  The default adds nothing."""
        return call()

    def splice_out(self, world: "World") -> None:
        """Remove this layer from ``world``'s conduit stack, wherever it
        sits, leaving every other layer in place; a no-op when the layer
        is no longer in the stack."""
        if world.conduit is self:
            world.conduit = self._inner
            return
        for node in layers(world.conduit):
            if isinstance(node, Layer) and node._inner is self:
                node._inner = self._inner
                return

    # -- the seven ops, passed through ``around`` -------------------------
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        self.around("send_am", src, dst, am.wire_bytes,
                    lambda: self._inner.send_am(src, dst, am),
                    am.handler)

    def rma_put(self, src: int, dst: int, offset: int,
                data: np.ndarray) -> None:
        self.around("rma_put", src, dst, np.asarray(data).nbytes,
                    lambda: self._inner.rma_put(src, dst, offset, data))

    def rma_get(self, src: int, dst: int, offset: int,
                dtype: np.dtype, count: int) -> np.ndarray:
        return self.around(
            "rma_get", src, dst, np.dtype(dtype).itemsize * count,
            lambda: self._inner.rma_get(src, dst, offset, dtype, count))

    def rma_atomic(self, src: int, dst: int, offset: int,
                   dtype: np.dtype, op, operand):
        return self.around(
            "rma_atomic", src, dst, np.dtype(dtype).itemsize,
            lambda: self._inner.rma_atomic(src, dst, offset, dtype, op,
                                           operand))

    def rma_put_indexed(self, src: int, dst: int, base: int,
                        elem_offsets: np.ndarray, data: np.ndarray) -> None:
        self.around(
            "rma_put_indexed", src, dst, np.asarray(data).nbytes,
            lambda: self._inner.rma_put_indexed(src, dst, base,
                                                elem_offsets, data),
            f"{np.asarray(elem_offsets).size} elems")

    def rma_get_indexed(self, src: int, dst: int, base: int,
                        dtype: np.dtype, elem_offsets: np.ndarray
                        ) -> np.ndarray:
        n = np.asarray(elem_offsets).size
        return self.around(
            "rma_get_indexed", src, dst, np.dtype(dtype).itemsize * n,
            lambda: self._inner.rma_get_indexed(src, dst, base, dtype,
                                                elem_offsets),
            f"{n} elems")

    def rma_atomic_batch(self, src: int, dst: int, base: int,
                         dtype: np.dtype, elem_offsets: np.ndarray,
                         op, operands, return_old: bool = False):
        n = np.asarray(elem_offsets).size
        return self.around(
            "rma_atomic_batch", src, dst, np.dtype(dtype).itemsize * n,
            lambda: self._inner.rma_atomic_batch(
                src, dst, base, dtype, elem_offsets, op, operands,
                return_old),
            f"{n} elems")


def layers(conduit: Conduit):
    """Yield ``conduit`` and every conduit beneath it, outermost first."""
    while conduit is not None:
        yield conduit
        conduit = conduit._inner if isinstance(conduit, Layer) else None


def find_layer(conduit: Conduit, cls: type):
    """The outermost conduit in ``conduit``'s stack that is a ``cls``, or
    None."""
    return next((c for c in layers(conduit) if isinstance(c, cls)), None)
