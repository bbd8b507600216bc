"""``shared_array<T, BS>`` — block-cyclically distributed 1-D arrays
(paper §III-A).

The layout matches UPC's: element ``i`` belongs to block ``i // BS``;
blocks are dealt to ranks round-robin; within a rank, a rank's blocks
are stored contiguously in arrival order.  ``BS = 1`` (the default, as
in UPC) gives a pure cyclic layout.

Construction is collective: every rank allocates its local slab and the
base addresses are allgathered into a directory, so any rank can compute
the global pointer of any element without communication — which is what
lets ``sa[i]`` be a single one-sided get/put (runtime Fig. 3).
"""

from __future__ import annotations

import threading
from typing import Iterator

import numpy as np

from repro.core import collectives
from repro.core.global_ptr import GlobalPtr
from repro.core.world import current
from repro.errors import PgasError
from repro.gasnet import rma


# ---------------------------------------------------------------------------
# pure layout math (unit-testable without a world)
#
# All three functions are expressed in ufunc arithmetic, so they accept
# either Python ints or NumPy index arrays and translate a whole index
# vector in one vectorized pass — the address-translation half of the
# batched RMA engine.
# ---------------------------------------------------------------------------

def owner_of(i, block: int, nranks: int):
    """Rank owning element ``i`` (scalar or ndarray) of a (block)-cyclic
    array."""
    return (i // block) % nranks


def local_offset_of(i, block: int, nranks: int):
    """Element offset of global index ``i`` (scalar or ndarray) within
    its owner's slab."""
    b = i // block
    return (b // nranks) * block + (i % block)


def global_index_of(rank, local_off, block: int, nranks: int):
    """Inverse of (owner_of, local_offset_of); scalar or ndarray."""
    lb, r = divmod(local_off, block)
    return (lb * nranks + rank) * block + r


def slab_elements(size: int, block: int, nranks: int) -> int:
    """Per-rank slab length: every rank reserves the same (maximal) number
    of blocks, exactly like UPC's static block-cyclic layout."""
    nblocks = -(-size // block)  # ceil
    blocks_per_rank = -(-nblocks // nranks)
    return blocks_per_rank * block


class SharedArray:
    """A 1-D array distributed block-cyclically over all ranks."""

    def __init__(self, dtype=np.int64, size: int | None = None,
                 block: int = 1):
        if block < 1:
            raise PgasError("block size must be >= 1")
        self.dtype = np.dtype(dtype)
        self.block = int(block)
        self.size = 0
        self._slab_len = 0
        self._bases: list[int] = []
        self._my_base = -1
        self._local = None
        self._ctx = None
        self._rebind_lock = threading.Lock()
        if size is not None:
            self.init(size)

    # -- collective allocation ------------------------------------------
    def init(self, size: int) -> "SharedArray":
        """Collectively allocate storage for ``size`` elements (the
        paper's ``sa.init(THREADS)`` dynamic form)."""
        if self.size:
            raise PgasError("shared_array is already initialized")
        if size <= 0:
            raise PgasError("shared_array size must be positive")
        ctx = current()
        nranks = ctx.world.n_ranks
        self.size = int(size)
        self._slab_len = slab_elements(self.size, self.block, nranks)
        nbytes = self._slab_len * self.dtype.itemsize
        align = max(8, self.dtype.itemsize)
        self._my_base = ctx.segment.alloc(nbytes, align=align)
        self._bases = collectives.allgather(self._my_base)
        # Owner-side fast path (runtime Fig. 3's "local access" branch):
        # a cached zero-copy view over this rank's slab, so local element
        # access skips pointer construction and conduit dispatch.
        self._local = ctx.segment.view(
            self._my_base, self.dtype, self._slab_len
        )
        self._ctx = ctx
        return self

    def _require_init(self) -> None:
        if not self.size:
            raise PgasError("shared_array used before init(size)")

    # -- addressing --------------------------------------------------------
    def _normalize(self, i: int) -> int:
        i = int(i)
        if i < 0:
            i += self.size
        if not 0 <= i < self.size:
            raise IndexError(
                f"index {i} out of range for shared_array of {self.size}"
            )
        return i

    def gptr(self, i: int) -> GlobalPtr:
        """Global pointer to element ``i`` (no communication)."""
        self._require_init()
        i = self._normalize(i)
        nranks = len(self._bases)
        r = owner_of(i, self.block, nranks)
        off = local_offset_of(i, self.block, nranks)
        return GlobalPtr(
            rank=r,
            offset=self._bases[r] + off * self.dtype.itemsize,
            dtype=self.dtype,
        )

    def where(self, i: int) -> int:
        """Affinity of element ``i``."""
        self._require_init()
        return owner_of(self._normalize(i), self.block, len(self._bases))

    # -- element access (the overloaded [] of the paper) ----------------
    def _local_slab(self, ctx):
        """The owner-side cached view, or None when unavailable.

        After unpickle the view is rebuilt lazily here on the first
        owner-side access (handles travel without views).  The cache is
        write-once per instance: when it is already bound to a *different*
        rank context (one object shared by several rank threads via the
        in-process payload fallback), we return None and the caller takes
        the conduit path — rebinding back and forth would race.
        """
        if self._ctx is ctx:
            return self._local
        with self._rebind_lock:
            if self._ctx is None and self.size:
                self._my_base = self._bases[ctx.rank]
                self._local = ctx.segment.view(
                    self._my_base, self.dtype, self._slab_len
                )
                self._ctx = ctx
            return self._local if self._ctx is ctx else None

    def __getitem__(self, i: int):
        self._require_init()
        i = self._normalize(i)
        nranks = len(self._bases)
        ctx = current()
        if owner_of(i, self.block, nranks) == ctx.rank:
            slab = self._local_slab(ctx)
            if slab is not None:
                ctx.stats.add(local_accesses=1)
                return slab[local_offset_of(i, self.block, nranks)]
        return self.gptr(i)[0]

    def __setitem__(self, i: int, value) -> None:
        self._require_init()
        i = self._normalize(i)
        nranks = len(self._bases)
        ctx = current()
        if owner_of(i, self.block, nranks) == ctx.rank:
            slab = self._local_slab(ctx)
            if slab is not None:
                ctx.stats.add(local_accesses=1)
                slab[local_offset_of(i, self.block, nranks)] = value
                return
        self.gptr(i)[0] = value

    def __getstate__(self):
        """Shared arrays travel as handles: the cached owner-side view
        and rank binding are rebuilt lazily by the receiving rank."""
        state = self.__dict__.copy()
        state["_local"] = None
        state["_ctx"] = None
        del state["_rebind_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._rebind_lock = threading.Lock()

    def atomic(self, i: int, op, operand):
        """Atomic read-modify-write of element ``i`` (GUPS xor path)."""
        return self.gptr(i).atomic(op, operand)

    def __len__(self) -> int:
        return self.size

    # -- batched access (one conduit op per owning rank) -----------------
    def _normalize_indices(self, indices) -> np.ndarray:
        """Vectorized index normalization: flatten, resolve negatives,
        bounds-check."""
        raw = np.asarray(indices)
        if raw.size and not np.issubdtype(raw.dtype, np.integer):
            raise IndexError(
                f"batch indices must be integers, got dtype {raw.dtype}"
            )
        idx = raw.astype(np.int64, copy=False).reshape(-1)
        if idx.size:
            idx = np.where(idx < 0, idx + self.size, idx)
            bad = (idx < 0) | (idx >= self.size)
            if bad.any():
                first = np.asarray(indices, dtype=np.int64).reshape(-1)[
                    int(np.argmax(bad))
                ]
                raise IndexError(
                    f"index {int(first)} out of range for shared_array "
                    f"of {self.size}"
                )
        return idx

    def _partition_by_owner(self, idx: np.ndarray):
        """Vectorized Fig. 3 address translation for a whole index
        vector: (owners, local element offsets)."""
        nranks = len(self._bases)
        return (owner_of(idx, self.block, nranks),
                local_offset_of(idx, self.block, nranks))

    def gather(self, indices) -> np.ndarray:
        """Read ``a[indices]`` with **one** indexed get per owning rank
        (instead of one conduit op per element)."""
        self._require_init()
        idx = self._normalize_indices(indices)
        out = np.empty(idx.size, dtype=self.dtype)
        if not idx.size:
            return out
        ctx = current()
        owners, offs = self._partition_by_owner(idx)
        for r in np.unique(owners):
            sel = owners == r
            out[sel] = rma.get_indexed(
                ctx, int(r), self._bases[r], self.dtype, offs[sel]
            )
        return out

    def scatter(self, indices, values) -> None:
        """Write ``a[indices] = values`` with one indexed put per owning
        rank.  ``values`` broadcasts against ``indices``; with duplicate
        indices the surviving value is unspecified (use
        :meth:`atomic_batch` for accumulation)."""
        self._require_init()
        idx = self._normalize_indices(indices)
        if not idx.size:
            return
        vals = np.asarray(values, dtype=self.dtype)
        vals = np.ascontiguousarray(np.broadcast_to(vals.reshape(-1)
                                    if vals.ndim else vals, idx.shape))
        ctx = current()
        owners, offs = self._partition_by_owner(idx)
        for r in np.unique(owners):
            sel = owners == r
            rma.put_indexed(
                ctx, int(r), self._bases[r], offs[sel], vals[sel]
            )

    def atomic_batch(self, indices, op, operands,
                     return_old: bool = False):
        """Batched atomic read-modify-write: one conduit op (and one
        target-lock acquisition) per owning rank.

        ``op`` is an op name (``"xor" | "add" | "and" | "or" | "swap" |
        "min" | "max"``) or a scalar callable; ``operands`` broadcasts
        against ``indices``.  Each element updates atomically (duplicate
        indices included); the batch as a whole is not one atomic unit.
        Returns the per-element old values when ``return_old`` is true.
        """
        self._require_init()
        idx = self._normalize_indices(indices)
        out = np.empty(idx.size, dtype=self.dtype) if return_old else None
        if not idx.size:
            return out
        ops = np.asarray(operands, dtype=self.dtype)
        ops = np.ascontiguousarray(np.broadcast_to(ops.reshape(-1)
                                   if ops.ndim else ops, idx.shape))
        ctx = current()
        owners, offs = self._partition_by_owner(idx)
        for r in np.unique(owners):
            sel = owners == r
            old = rma.atomic_batch(
                ctx, int(r), self._bases[r], self.dtype, offs[sel],
                op, ops[sel], return_old,
            )
            if return_old:
                out[sel] = old
        return out

    # -- owner-side bulk access ---------------------------------------------
    def local_view(self) -> np.ndarray:
        """Zero-copy view of the calling rank's slab (local blocks in
        storage order).  Includes layout padding past ``size``."""
        self._require_init()
        ctx = current()
        slab = self._local_slab(ctx)
        if slab is not None:
            return slab
        return rma.local_view(
            ctx, self._bases[ctx.rank], self.dtype, self._slab_len
        )

    def local_indices(self) -> np.ndarray:
        """Global indices owned by the caller, in slab storage order,
        clipped to the array size."""
        self._require_init()
        ctx = current()
        nranks = len(self._bases)
        locals_ = np.arange(self._slab_len, dtype=np.int64)
        lb, r = np.divmod(locals_, self.block)
        gidx = (lb * nranks + ctx.rank) * self.block + r
        return gidx[gidx < self.size]

    def fill_local(self, value) -> None:
        """Owner-side fill of the local slab (no communication)."""
        self.local_view()[:] = value

    def _range_by_owner(self, start: int, stop: int):
        """Per-owner (offsets, selection) pairs for [start, stop): at most
        ``nranks`` entries, offsets ascending within each owner."""
        idx = np.arange(start, stop, dtype=np.int64)
        owners, offs = self._partition_by_owner(idx)
        for r in np.unique(owners):
            sel = owners == r
            yield int(r), offs[sel], sel

    def read_range(self, start: int, stop: int) -> np.ndarray:
        """Bulk read [start, stop) with **one** RMA per owning rank —
        contiguous when the owner's elements form a single run (always
        true for ``block >= stop - start`` and for ``block == 1``),
        indexed otherwise.  At most ``nranks`` conduit ops either way."""
        self._require_init()
        if not 0 <= start <= stop <= self.size:
            raise IndexError("range out of bounds")
        out = np.empty(stop - start, dtype=self.dtype)
        if start == stop:
            return out
        ctx = current()
        itemsize = self.dtype.itemsize
        for r, offs, sel in self._range_by_owner(start, stop):
            if int(offs[-1]) - int(offs[0]) + 1 == offs.size:
                out[sel] = rma.get(
                    ctx, r, self._bases[r] + int(offs[0]) * itemsize,
                    self.dtype, offs.size,
                )
            else:
                out[sel] = rma.get_indexed(
                    ctx, r, self._bases[r], self.dtype, offs
                )
        return out

    def write_range(self, start: int, values: np.ndarray) -> None:
        """Bulk write starting at ``start`` with one RMA per owning rank
        (the converse of :meth:`read_range`)."""
        self._require_init()
        values = np.asarray(values, dtype=self.dtype).reshape(-1)
        stop = start + values.size
        if not 0 <= start <= stop <= self.size:
            raise IndexError("range out of bounds")
        if start == stop:
            return
        ctx = current()
        itemsize = self.dtype.itemsize
        for r, offs, sel in self._range_by_owner(start, stop):
            chunk = np.ascontiguousarray(values[sel])
            if int(offs[-1]) - int(offs[0]) + 1 == offs.size:
                rma.put(
                    ctx, r, self._bases[r] + int(offs[0]) * itemsize, chunk
                )
            else:
                rma.put_indexed(ctx, r, self._bases[r], offs, chunk)

    #: Elements fetched per chunk while iterating.
    _ITER_CHUNK = 1024

    def __iter__(self) -> Iterator:
        """Element iteration, streamed via chunked :meth:`read_range`
        (at most ``nranks`` conduit ops per chunk instead of one get per
        element)."""
        self._require_init()
        for lo in range(0, self.size, self._ITER_CHUNK):
            hi = min(lo + self._ITER_CHUNK, self.size)
            yield from self.read_range(lo, hi)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SharedArray(dtype={self.dtype}, size={self.size}, "
            f"block={self.block})"
        )
