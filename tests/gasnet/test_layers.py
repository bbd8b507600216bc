"""Layer conformance: a conduit layer that injects nothing is invisible.

Every layer of the conduit stack — ChaosConduit with every rate 0,
DelayConduit with zero delay, ReliableConduit, and the Observer
(telemetry ``"full"`` plus an active Trace) — sits on the SMP backend
here and must return exactly what the bare backend returns for all
seven conduit ops, charging the initiator's CommStats exactly the same.
"""

import operator

import numpy as np
import pytest

import repro
from repro.core.world import current
from repro.gasnet import (
    ChaosConduit,
    DelayConduit,
    ProcConduit,
    ReliableConduit,
    SmpConduit,
)
from repro.gasnet.am import ActiveMessage, am_handler
from repro.gasnet.conduit import layers
from repro.gasnet.trace import Observer, Trace
from tests.conftest import run_spmd

_notes: list = []


@am_handler("__layer_conformance_note__")
def _note(ctx, am) -> None:
    _notes.append((ctx.rank, am.args))


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _seven_ops(trace: bool):
    """Rank 0 runs each conduit op once against rank 1 (the AM loops
    back to rank 0, the one send every layer passes unaltered) and
    reports, per op, its result and rank 0's CommStats delta."""
    ctx = current()
    ptr = repro.allocate(1, 8, np.int64) if ctx.rank == 0 else None
    repro.barrier()
    out = None
    if ctx.rank == 0:
        c, off, i8 = ctx.world.conduit, ptr.offset, np.dtype(np.int64)
        idx = np.array([2, 5], dtype=np.int64)
        ops = [
            ("rma_put", lambda: c.rma_put(
                0, 1, off, np.arange(8, dtype=np.int64))),
            ("rma_get", lambda: c.rma_get(0, 1, off, i8, 8)),
            ("rma_atomic", lambda: c.rma_atomic(
                0, 1, off, i8, operator.add, 10)),
            ("rma_put_indexed", lambda: c.rma_put_indexed(
                0, 1, off, idx, np.array([70, 90], dtype=np.int64))),
            ("rma_get_indexed", lambda: c.rma_get_indexed(
                0, 1, off, i8, idx)),
            ("rma_atomic_batch", lambda: c.rma_atomic_batch(
                0, 1, off, i8, idx, "xor", [3, 3], return_old=True)),
            ("send_am", lambda: c.send_am(0, 0, ActiveMessage(
                handler="__layer_conformance_note__", src_rank=0,
                args=(42,)))),
        ]
        tr = Trace(ctx.world) if trace else None
        if tr is not None:
            tr.__enter__()
        out = {"ops": [], "stack": [type(x) for x in layers(c)]}
        for name, op in ops:
            before = ctx.stats.snapshot()
            result = _plain(op())
            after = ctx.stats.snapshot()
            delta = {k: after[k] - before[k] for k in after
                     if after[k] != before[k]}
            out["ops"].append((name, result, delta))
        if tr is not None:
            tr.__exit__(None, None, None)
            # rank 1 may still be finishing the barrier: keep rank 0's
            out["trace_kinds"] = [ev.kind for ev in tr.events
                                  if ev.src == 0]
    repro.barrier()
    return out


def _run(trace=False, **kw):
    _notes.clear()
    out = run_spmd(_seven_ops, ranks=2, args=(trace,), **kw)[0]
    assert _notes == [(0, (42,))]  # the AM was delivered exactly once
    return out


STACKS = {
    "chaos": (ChaosConduit, lambda: {"conduit": ChaosConduit(
        SmpConduit(), seed=0)}),
    "delay": (DelayConduit, lambda: {"conduit": DelayConduit(
        SmpConduit(), base_delay=0.0, jitter=0.0)}),
    "reliable": (ReliableConduit, lambda: {"reliability": {
        "peer_timeout": None, "ack_timeout": 30.0}}),
    "observer": (Observer, lambda: {"telemetry": "full", "trace": True}),
}


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_layer_is_transparent(stack):
    layer_type, make = STACKS[stack]
    bare = _run()
    assert bare["stack"] == [SmpConduit]
    layered = _run(**make())
    assert layered["stack"] == [layer_type, SmpConduit]
    assert [op[0] for op in layered["ops"]] == [op[0] for op in bare["ops"]]
    for got, want in zip(layered["ops"], bare["ops"]):
        assert got == want
    if stack == "observer":
        # each op reached the trace once, under its unchanged kind name
        assert layered["trace_kinds"] == [
            "put", "get", "atomic", "put_indexed", "get_indexed",
            "atomic_batch", "am"]


def _conduit_type():
    return type(current().world.conduit)


@pytest.mark.parametrize("backend,cls", [("smp", SmpConduit),
                                         ("proc", ProcConduit)])
def test_no_layer_without_telemetry_or_trace(backend, cls):
    """Telemetry off and no Trace: the world talks to the backend."""
    assert run_spmd(_conduit_type, ranks=2, conduit=backend) == [cls, cls]
