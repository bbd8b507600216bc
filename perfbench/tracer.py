"""Span recorder for the traced run, installed from outside the runtime.

Every span is a call into one layer's public entry point: the wrapper
stamps ``perf_counter`` on entry and exit, and links the span to the
innermost span open on the same thread (its parent).  Spans stay in
per-thread ``array('d')`` buffers (five doubles each: name id, start,
end, parent index, op id) until the rank body ends; nothing is written
while the timed phase runs.

A layer's self time is a span's duration minus the durations of its
direct children; because calls nest on one thread, children never
overlap, so the subtraction is exact.

``RankState.advance`` is called in every blocking wait, mostly finding
nothing to do.  Empty polls with no child spans are counted but not
kept as spans (their time stays with the enclosing wait span), so the
buffers grow with useful work, not with idle spinning.
"""

from __future__ import annotations

import threading
import time
from array import array

import numpy as np

#: span name -> layer it is charged to in the self-time table.
LAYER_OF = {
    "iteration": "bench",
    "kernel": "kernel",
    "containers.get": "containers",
    "containers.put": "containers",
    "containers.multi_get": "containers",
    "collectives.barrier": "collectives",
    "collectives.allreduce": "collectives",
    "shared_array.atomic_batch": "shared_array",
    "arrays.ghost_exchange": "arrays",
    "rma.atomic_batch": "rma",
    "conduit.rma_atomic_batch": "rma",
    "rank.send_am": "am",
    "conduit.send_am": "am",
    "wire.encode_am": "wire",
    "progress.advance": "progress",
    "progress.wait_until": "progress",
    "future.get": "progress",
}
NAMES = list(LAYER_OF)
NAME_ID = {n: i for i, n in enumerate(NAMES)}
LAYERS = sorted(set(LAYER_OF.values()))
_ADVANCE = NAME_ID["progress.advance"]
_REC = 5  # doubles per span record


class _ThreadBuf:
    __slots__ = ("rank", "spans", "stack", "op", "advance_calls",
                 "advance_useful", "values")

    def __init__(self, rank: int):
        self.rank = rank
        self.spans = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.advance_calls = 0
        self.advance_useful = 0
        self.values: dict[str, list] = {}


class Tracer:
    """Per-process span recorder; :meth:`install` patches the entry
    points for the rest of the process's life (a repetition runs in a
    fresh interpreter, so nothing needs restoring)."""

    def __init__(self):
        self._tl = threading.local()
        self._lock = threading.Lock()
        self._bufs: list[_ThreadBuf] = []
        self._installed = False

    # -- recording --------------------------------------------------------
    def _buf(self) -> _ThreadBuf:
        buf = getattr(self._tl, "buf", None)
        if buf is None:
            from repro.core.world import try_current

            ctx = try_current()
            buf = _ThreadBuf(ctx.rank if ctx is not None else -1)
            self._tl.buf = buf
            with self._lock:
                self._bufs.append(buf)
        return buf

    def set_op(self, op: int) -> None:
        """Tag the calling thread's following spans with ``op``."""
        self._buf().op = op

    def record_value(self, name: str, value) -> None:
        self._buf().values.setdefault(name, []).append(value)

    def advance_counts(self) -> tuple[int, int]:
        """(calls, calls that progressed) of ``advance`` on the calling
        thread so far; the rank body differences two of these around
        its timed phase."""
        buf = self._buf()
        return buf.advance_calls, buf.advance_useful

    def span(self, name: str):
        """Context manager recording one span (for the benchmark's own
        code: the halo iteration and its kernel call)."""
        return _Span(self, NAME_ID[name])

    def _enter(self, nid: int) -> tuple[_ThreadBuf, int]:
        buf = self._buf()
        sp = buf.spans
        idx = len(sp) // _REC
        parent = buf.stack[-1] if buf.stack else -1
        sp.extend((nid, time.perf_counter(), 0.0, parent, buf.op))
        buf.stack.append(idx)
        return buf, idx

    @staticmethod
    def _exit(buf: _ThreadBuf, idx: int) -> None:
        buf.spans[idx * _REC + 2] = time.perf_counter()
        buf.stack.pop()

    def wrap(self, name: str, fn):
        nid = NAME_ID[name]
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            buf, idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(buf, idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_advance(self, fn):
        enter = self._enter

        def advance(*args, **kwargs):
            buf, idx = enter(_ADVANCE)
            progressed = False
            try:
                progressed = fn(*args, **kwargs)
                return progressed
            finally:
                sp = buf.spans
                buf.stack.pop()
                buf.advance_calls += 1
                if progressed:
                    buf.advance_useful += 1
                if progressed or len(sp) > (idx + 1) * _REC:
                    sp[idx * _REC + 2] = time.perf_counter()
                else:
                    del sp[idx * _REC:]

        advance.__wrapped__ = fn
        return advance

    def _wrap_send_am(self, fn):
        traced = self.wrap("rank.send_am", fn)
        record = self.record_value

        def send_am(self_, dst, handler, args=(), payload=None,
                    expect_reply=False):
            t0 = time.perf_counter()
            fut = traced(self_, dst, handler, args, payload, expect_reply)
            if fut is not None:
                # Round trip: request send -> reply handled on this rank.
                fut.add_callback(lambda _f: record(
                    "am.rtt", (t0, time.perf_counter() - t0)))
            return fut

        send_am.__wrapped__ = fn
        return send_am

    # -- installation -------------------------------------------------------
    def install(self, world) -> None:
        """Wrap the public entry points of every measured layer.  Must
        run on each process that executes rank code; idempotent."""
        with self._lock:
            if self._installed:
                return
            self._installed = True
            import repro.gasnet.wire as wire
            import repro.gasnet.wire.frame as frame
            from repro.arrays.distarray import DistNdArray
            from repro.containers.hashmap import DistHashMap
            from repro.core import collectives
            from repro.core.future import Future
            from repro.core.shared_array import SharedArray
            from repro.core.world import RankState
            from repro.gasnet import rma

            w = self.wrap
            for attr in ("get", "put", "multi_get"):
                setattr(DistHashMap, attr, w(
                    f"containers.{attr}", getattr(DistHashMap, attr)))
            for attr in ("barrier", "allreduce"):
                setattr(collectives, attr, w(
                    f"collectives.{attr}", getattr(collectives, attr)))
            SharedArray.atomic_batch = w("shared_array.atomic_batch",
                                         SharedArray.atomic_batch)
            DistNdArray.ghost_exchange = w("arrays.ghost_exchange",
                                           DistNdArray.ghost_exchange)
            rma.atomic_batch = w("rma.atomic_batch", rma.atomic_batch)
            # instance attributes: the world's own conduit object
            conduit = world.conduit
            conduit.send_am = w("conduit.send_am", conduit.send_am)
            conduit.rma_atomic_batch = w("conduit.rma_atomic_batch",
                                         conduit.rma_atomic_batch)
            RankState.send_am = self._wrap_send_am(RankState.send_am)
            RankState.advance = self._wrap_advance(RankState.advance)
            RankState.wait_until = w("progress.wait_until",
                                     RankState.wait_until)
            Future.get = w("future.get", Future.get)
            # the conduits look encode_am up on the package at each send
            wire.encode_am = frame.encode_am = w("wire.encode_am",
                                                 frame.encode_am)

    # -- export ---------------------------------------------------------------
    def export(self, rank: int, whole_process: bool) -> dict:
        """This rank's spans and counts as plain arrays (picklable, so a
        proc rank can ship them back through the launcher).  With
        ``whole_process`` (one rank per process) threads bound to no
        rank, such as a transport's receive thread, count as this
        rank's."""
        with self._lock:
            bufs = [b for b in self._bufs if b.rank == rank
                    or (whole_process and b.rank == -1)]
        out = {"spans": [], "values": {}}
        for b in bufs:
            rec = np.frombuffer(b.spans, dtype=np.float64).reshape(-1, _REC)
            out["spans"].append(rec.copy())
            for k, v in b.values.items():
                out["values"].setdefault(k, []).extend(v)
        return out


class _Span:
    __slots__ = ("tracer", "nid", "buf", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.buf, self.idx = self.tracer._enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.buf, self.idx)
        return False


def analyse(blocks: list[np.ndarray], t_start: float, t_end: float) -> dict:
    """Self time per layer, and durations and self times per span name,
    of the spans that started inside [t_start, t_end], plus the share of
    that interval the root spans cover, for one rank's span blocks (one
    block per recording thread)."""
    layer_idx = np.array([LAYERS.index(LAYER_OF[n]) for n in NAMES])
    self_by_layer = np.zeros(len(LAYERS))
    durs: dict[str, list] = {}
    self_by_name: dict[str, list] = {}
    covered = 0.0
    for rec in blocks:
        if not len(rec):
            continue
        name = rec[:, 0].astype(np.int64)
        t0, t1 = rec[:, 1], rec[:, 2]
        parent = rec[:, 3].astype(np.int64)
        dur = t1 - t0
        kids = parent >= 0
        child_t = np.bincount(parent[kids], weights=dur[kids],
                              minlength=len(rec))
        self_t = dur - child_t
        inside = (t0 >= t_start) & (t0 < t_end)
        self_by_layer += np.bincount(layer_idx[name[inside]],
                                     weights=self_t[inside],
                                     minlength=len(LAYERS))
        roots = ~kids
        lo = np.clip(t0[roots], t_start, t_end)
        hi = np.clip(t1[roots], t_start, t_end)
        covered += float(np.sum(hi - lo))
        for nid in np.unique(name[inside]):
            sel = inside & (name == nid)
            n = NAMES[nid]
            durs.setdefault(n, []).append(dur[sel])
            self_by_name.setdefault(n, []).append(self_t[sel])
    return {
        "self_s": dict(zip(LAYERS, map(float, self_by_layer))),
        "covered_s": covered,
        "durations": {n: np.concatenate(v) for n, v in durs.items()},
        "self_durations": {n: np.concatenate(v)
                           for n, v in self_by_name.items()},
    }
