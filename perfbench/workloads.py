"""The benchmark's workloads: input generation, rank bodies, output checks.

Every rank is a closed-loop client: it issues its next operation only
after the previous one returned, until its share of the timed phase is
over.  Inputs are generated from the seed before ``repro.spmd`` is
called; the rank bodies only read them.

Why these workloads (each one loads some layers and bypasses others,
so a change to one layer has a workload that should move and one that
should not):

* ``kv-zipf`` -- read-heavy DistHashMap mix on ``smp``: many small AMs
  (``containers``, ``am``, ``wire``, ``progress``), no RMA.
* ``kv-zipf-proc`` -- the same inputs on ``proc`` with its default
  ring transport, the only workload on the ``ring`` AM path.
* ``gups`` -- HPCC RandomAccess through ``SharedArray.atomic_batch`` on
  ``proc``: zero-copy cross-process RMA (``shared_array``, ``rma``); its
  only AMs are the collectives around the timed phase.
* ``halo3d`` -- 3-D 7-point Jacobi on ``smp``: a few large out-of-band
  ghost-face AMs per iteration plus barriers and an allreduce
  (``arrays``, ``collectives``).
"""

from __future__ import annotations

import contextlib
import os
import resource
import time

import numpy as np

import repro
from repro.bench.gups import POLY as HPCC_POLY, hpcc_starts
from repro.core import collectives
from repro.core.shared_array import local_offset_of, owner_of
from repro.util.rng import splitmix64_array

RANKS = 2

# -- kv-zipf ---------------------------------------------------------------
KV_KEYS = 4096
KV_READ_FRACTION = 0.9
KV_HOT_FRACTION = 0.1
KV_HOT_WEIGHT = 0.8
KV_MULTI_EVERY = 8
KV_MULTI_BATCH = 64
KV_VALUE = "v" * 32
KV_GET, KV_PUT, KV_MULTI = 0, 1, 2
KV_KIND_NAMES = ("get", "put", "multi_get")

# -- gups ------------------------------------------------------------------
#: 2^21 words = 16 MiB per rank: 4x a 4 MiB per-core L2.
GUPS_LOG2_TABLE = 22
GUPS_BLOCK = 64
GUPS_WINDOW = 256
#: Updates in one pass over a rank's HPCC stream.  The two ranks' passes
#: put about four updates on every 64-byte line of each 16 MiB slab, so a
#: pass touches nearly all of the table, not a cache-sized corner of it.
GUPS_PASS = 1 << 20
#: Parallel lanes used to generate the HPCC stream with NumPy.
GUPS_LANES = 128

# -- halo3d ----------------------------------------------------------------
#: 32^3 cells per rank: each face is 32*32*8 B = 8 KiB.
HALO_BOX = 32

CONDUIT = {"kv-zipf": "smp", "kv-zipf-proc": "proc", "gups": "proc",
           "halo3d": "smp"}
#: Per-rank segment size: the gups table slab plus allocator headroom.
SEGMENT_SIZE = 40 << 20


def make_inputs(workload: str, seed: int, seconds: float) -> dict:
    """The generated inputs of one repetition (same seed, same inputs)."""
    if workload in ("kv-zipf", "kv-zipf-proc"):
        # Sized for the fastest rate seen plus headroom; a rank that runs
        # out wraps around to the start of its stream.
        return {"ops": [_kv_stream(seed, r, int(seconds * 20000) + 1000)
                        for r in range(RANKS)]}
    if workload == "gups":
        return {"windows": [_gups_stream(seed, r) for r in range(RANKS)]}
    if workload == "halo3d":
        rng = np.random.default_rng(seed)
        return {"init": rng.random((HALO_BOX * RANKS, HALO_BOX, HALO_BOX))}
    raise ValueError(f"unknown workload {workload!r}")


def _kv_stream(seed: int, rank: int, n: int) -> dict:
    rng = np.random.default_rng([seed, rank])
    kind = np.where(rng.random(n) < KV_READ_FRACTION, KV_GET, KV_PUT)
    kind[KV_MULTI_EVERY - 1::KV_MULTI_EVERY] = KV_MULTI
    hot = max(1, int(KV_KEYS * KV_HOT_FRACTION))
    get_key = np.where(rng.random(n) < KV_HOT_WEIGHT,
                       rng.integers(0, hot, n), rng.integers(0, KV_KEYS, n))
    stripe = np.arange(rank, KV_KEYS, RANKS)
    put_key = stripe[rng.integers(0, len(stripe), n)]
    key = np.where(kind == KV_PUT, put_key, get_key)
    return {
        "kind": kind.astype(np.int8),
        "key": key.astype(np.int32),
        "value": rng.integers(0, 1 << 30, n),
        "multi": rng.integers(0, KV_KEYS, (n // KV_MULTI_EVERY + 1,
                                           KV_MULTI_BATCH)).astype(np.int32),
    }


def _gups_stream(seed: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    # Each (seed, rank) starts at its own far-apart point of the HPCC
    # sequence, as the reference code's HPCC_starts jump does.
    vals = hpcc_block((seed * RANKS + rank) * GUPS_PASS, GUPS_PASS)
    mask = np.uint64((1 << GUPS_LOG2_TABLE) - 1)
    idx = (splitmix64_array(vals) & mask).astype(np.int64)
    return (idx.reshape(-1, GUPS_WINDOW), vals.reshape(-1, GUPS_WINDOW))


def hpcc_block(first: int, count: int) -> np.ndarray:
    """Values ``first .. first+count-1`` of the HPCC random sequence:
    ``GUPS_LANES`` lanes, each jumped to its own start with
    ``hpcc_starts`` and stepped together, so the result equals
    ``repro.bench.gups.hpcc_stream(hpcc_starts(first), count)``."""
    steps = -(-count // GUPS_LANES)
    ran = np.array([hpcc_starts(first + j * steps)
                     for j in range(GUPS_LANES)], dtype=np.uint64)
    out = np.empty((GUPS_LANES, steps), dtype=np.uint64)
    one, top = np.uint64(1), np.uint64(63)
    poly = np.uint64(HPCC_POLY)
    for k in range(steps):
        ran = (ran << one) ^ (poly * (ran >> top))
        out[:, k] = ran
    return out.reshape(-1)[:count]


# -- shared rank-body plumbing ----------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_steal_s() -> float:
    """CPU seconds, summed over the machine's CPUs, that the hypervisor
    gave to other guests while this one was ready to run (the steal
    column of /proc/stat); 0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class _Phase:
    """Per-rank bookkeeping around the timed phase."""

    def __init__(self, tracer, proc):
        self.me = repro.myrank()
        self.proc = proc
        self.ctx = repro.current_world().ranks[self.me]
        self.tracer = tracer
        self.t_body = time.perf_counter()
        if proc:
            # One CPU per rank process, so the scheduler never stacks
            # both ranks on one CPU or moves one mid-phase.
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpus[self.me % len(cpus)]})

    def start(self, seconds: float) -> float:
        if self.tracer is not None:
            self.tracer.install(repro.current_world())
        repro.barrier()
        if self.tracer is not None:
            self.adv0 = self.tracer.advance_counts()
        self.stats0 = self.ctx.stats.snapshot()
        self.steal0 = host_steal_s()
        self.t_start = time.perf_counter()
        return self.t_start + seconds

    def stop(self, ops: int) -> None:
        self.t_end = time.perf_counter()
        self.steal_s = host_steal_s() - self.steal0
        self.stats1 = self.ctx.stats.snapshot()
        if self.tracer is not None:
            calls, useful = self.tracer.advance_counts()
            self.advance = (calls - self.adv0[0], useful - self.adv0[1])
        self.ops = ops
        # peak through set-up and the timed phase: the arrays of the
        # output check that follows are the benchmark's, not the program's
        self.rss_mb = peak_rss_mb()

    def result(self, lat: dict, ok: bool, **extra) -> dict:
        out = {
            "rank": self.me,
            "t_body": self.t_body,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "steal_s": self.steal_s,
            "ops": self.ops,
            "lat_us": lat,
            "stats": {k: self.stats1[k] - self.stats0[k]
                      for k in self.stats1},
            "ok": bool(ok),
            "rss_mb": self.rss_mb,
        }
        if self.tracer is not None:
            out["trace"] = self.tracer.export(self.me,
                                              whole_process=self.proc)
            out["trace"]["advance"] = self.advance
        out.update(extra)
        return out


def kv_body(inputs, seconds, tracer, progress, corrupt, proc):
    ph = _Phase(tracer, proc)
    me, n = ph.me, repro.ranks()
    m = repro.DistHashMap(cache=True)
    keyspace = [f"key:{i:06d}" for i in range(KV_KEYS)]
    m.multi_put({k: (KV_VALUE, -1) for i, k in enumerate(keyspace)
                 if i % n == me})
    s = inputs["ops"][me]
    kind, key, value, multi = s["kind"], s["key"], s["value"], s["multi"]
    cap = len(kind)
    lat = ([], [], [])
    shadow: dict = {}
    clock = time.perf_counter
    t_end = ph.start(seconds)
    # bound after start(): the traced run patches the methods there
    get, put, multi_get = m.get, m.put, m.multi_get
    op = 0
    while clock() < t_end:
        i = op % cap
        k = kind[i]
        progress[me] = op + 1
        if tracer is not None:
            tracer.set_op(op)
        if k == KV_GET:
            name = keyspace[key[i]]
            t0 = clock()
            get(name)
        elif k == KV_PUT:
            name = keyspace[key[i]]
            v = (KV_VALUE, int(value[i]))
            t0 = clock()
            put(name, v)
            shadow[name] = v
        else:
            batch = [keyspace[j] for j in multi[(i // KV_MULTI_EVERY)
                                                % len(multi)]]
            t0 = clock()
            multi_get(batch)
        lat[k].append((clock() - t0) * 1e6)
        op += 1
    ph.stop(op)
    repro.barrier()
    # Output check, off the timed path: each rank's writes went to its
    # own key stripe, so the last value it wrote must read back.
    if corrupt and me == 0 and shadow:
        k0 = next(iter(shadow))
        shadow[k0] = (KV_VALUE, -2)
    m.refresh()
    ok = True
    if shadow:
        names = sorted(shadow)
        ok = all(g == shadow[k]
                 for k, g in zip(names, m.multi_get(names)))
    ok = bool(collectives.allreduce(ok, op="and"))
    return ph.result(dict(zip(KV_KIND_NAMES, lat)), ok)


def gups_body(inputs, seconds, tracer, progress, corrupt, proc):
    ph = _Phase(tracer, proc)
    me, n = ph.me, repro.ranks()
    table = repro.SharedArray(np.uint64, size=1 << GUPS_LOG2_TABLE,
                              block=GUPS_BLOCK)
    local_idx = table.local_indices()
    start = local_idx.astype(np.uint64)
    table.local_view()[:len(local_idx)] = start
    idx, vals = inputs["windows"][me]
    nwin = len(idx)
    lat: list = []
    clock = time.perf_counter
    t_end = ph.start(seconds)
    atomic_batch = table.atomic_batch
    op = 0
    # The stream is replayed from its start when a rank runs off its end.
    while clock() < t_end:
        w = op % nwin
        progress[me] = op + 1
        if tracer is not None:
            tracer.set_op(op)
        t0 = clock()
        atomic_batch(idx[w], "xor", vals[w])
        lat.append((clock() - t0) * 1e6)
        op += 1
    ph.stop(op)
    # Output check, off the timed path.  xor is an involution, so only
    # the windows a rank applied an odd number of times are in the table.
    odd = [_odd_windows(k, nwin) for k in collectives.allgather(op)]
    view = table.local_view()
    if corrupt and me == 0:
        view[0] ^= np.uint64(1)
    # 1. Every rank's slab equals the initial table xor those windows.
    want = start.copy()
    for r in range(n):
        ri, rv = inputs["windows"][r]
        gi, gv = ri[odd[r]].reshape(-1), rv[odd[r]].reshape(-1)
        mine = owner_of(gi, GUPS_BLOCK, n) == me
        np.bitwise_xor.at(want, local_offset_of(gi[mine], GUPS_BLOCK, n),
                          gv[mine])
    ok = bool(np.array_equal(view[:len(local_idx)], want))
    # 2. Applying them once more makes every pass count even, which
    # must restore the table exactly to Table[i] = i.
    repro.barrier()
    for w in odd[me]:
        atomic_batch(idx[w], "xor", vals[w])
    repro.barrier()
    ok = ok and bool(np.array_equal(view[:len(local_idx)], start))
    ok = bool(collectives.allreduce(int(ok), op="min"))
    return ph.result({"window": lat}, ok,
                     updates=op * GUPS_WINDOW)


def _odd_windows(ops: int, nwin: int) -> np.ndarray:
    """Indices of the windows applied an odd number of times when a rank
    made ``ops`` window updates cycling through ``nwin`` windows."""
    passes, rest = divmod(ops, nwin)
    w = np.arange(nwin)
    return w[(passes + (w < rest)) % 2 == 1]


def jacobi(src: np.ndarray, dst: np.ndarray) -> float:
    """One 7-point Jacobi sweep of the ghost-padded ``src`` into ``dst``'s
    interior; returns the largest change of any interior cell."""
    inner = (slice(1, -1),) * 3
    dst[inner] = (src[1:-1, 1:-1, 2:] + src[1:-1, 1:-1, :-2]
                  + src[1:-1, 2:, 1:-1] + src[1:-1, :-2, 1:-1]
                  + src[2:, 1:-1, 1:-1] + src[:-2, 1:-1, 1:-1]) / 6.0
    return float(np.max(np.abs(dst[inner] - src[inner])))


def halo_reference(init: np.ndarray, iters: int):
    """Serial Jacobi over the whole grid with zero boundaries: the final
    grid and the global max change of every iteration."""
    a = np.zeros(tuple(s + 2 for s in init.shape))
    a[1:-1, 1:-1, 1:-1] = init
    b = np.zeros_like(a)
    changes = np.empty(iters)
    for it in range(iters):
        changes[it] = jacobi(a, b)
        a, b = b, a
    return a[1:-1, 1:-1, 1:-1], changes


def halo_body(inputs, seconds, tracer, progress, corrupt, proc):
    from repro.arrays import DistNdArray, Point, RectDomain

    ph = _Phase(tracer, proc)
    me = ph.me
    init = inputs["init"]
    gdom = RectDomain(Point.zero(3), Point(*init.shape))
    A = DistNdArray(np.float64, gdom, ghost=1)
    B = DistNdArray(np.float64, gdom, ghost=1, pgrid=A.pgrid)
    dom = A.my_interior
    sl = tuple(slice(dom.lb[d], dom.ub[d]) for d in range(3))
    A.interior_view()[:] = init[sl]
    B.local.set(0.0)
    lat: list = []
    changes: list = []
    clock = time.perf_counter
    span = (tracer.span if tracer is not None
            else lambda _name: contextlib.nullcontext())
    t_end = ph.start(seconds)
    op = 0
    stop = False
    while not stop:
        progress[me] = op + 1
        if tracer is not None:
            tracer.set_op(op)
        t0 = clock()
        with span("iteration"):
            A.ghost_exchange(faces_only=True)
            with span("kernel"):
                change = jacobi(A.local.local_view(), B.local.local_view())
            # The solver's convergence check; it also carries the stop
            # vote, so every rank leaves the loop after the same sweep.
            g = collectives.allreduce(
                np.array([change, float(clock() >= t_end)]), op="max")
        lat.append((clock() - t0) * 1e6)
        changes.append(float(g[0]))
        stop = bool(g[1])
        A, B = B, A
        op += 1
    ph.stop(op)
    repro.barrier()
    grid = A.interior_view().copy()
    if corrupt and me == 0:
        grid[0, 0, 0] += 1.0
    cells = int(np.prod(init.shape)) * op // repro.ranks()
    return ph.result({"iteration": lat}, True, grid=grid,
                     lb=tuple(dom.lb), changes=changes,
                     cells=cells, face_bytes=_face_bytes(A))


def _face_bytes(A) -> int:
    """Bytes of ghost faces this rank receives per exchange."""
    shape = A.my_interior.shape
    cells = int(np.prod(shape))
    total = 0
    for _nbr, offs in A.neighbors():
        if sum(abs(o) for o in offs) == 1:
            axis = [abs(o) for o in offs].index(1)
            total += cells // shape[axis] * A.ghost * A.dtype.itemsize
    return total


BODY = {"kv-zipf": kv_body, "kv-zipf-proc": kv_body, "gups": gups_body,
        "halo3d": halo_body}


def check_halo(inputs: dict, results: list) -> bool:
    """The halo grid must equal the serial Jacobi within 1e-12, and the
    allreduced max change of every sweep must match the serial one."""
    iters = results[0]["ops"]
    ref, changes = halo_reference(inputs["init"], iters)
    for r in results:
        g = r["grid"]
        lb = r["lb"]
        want = ref[tuple(slice(lo, lo + s) for lo, s in zip(lb, g.shape))]
        if r["ops"] != iters or not np.max(np.abs(g - want)) <= 1e-12:
            return False
        if not np.allclose(r["changes"], changes, rtol=0, atol=1e-12):
            return False
    return True
