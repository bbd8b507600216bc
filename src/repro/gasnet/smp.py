"""The SMP conduit: ranks are threads, the "wire" is shared memory.

One-sided RMA is implemented as a direct, locked access to the peer's
segment buffer — a faithful model of RDMA (the target CPU executes
nothing).  Active messages are appended to the target's inbox deque and
its condition variable is signalled so blocked waiters wake up.

:class:`SegmentRma` factors the direct-segment RMA implementation out of
the conduit itself: any backend whose world maps *every* rank's segment
into the calling process (threads over one heap, or processes over
``multiprocessing.shared_memory``) reuses it unchanged — which is what
keeps the process conduit's RMA zero-copy.
"""

from __future__ import annotations

import numpy as np

from repro.gasnet.am import ActiveMessage
from repro.gasnet.conduit import Conduit


class SegmentRma:
    """Direct-segment one-sided RMA, shared by conduits whose process
    has every rank's segment mapped locally.

    One conduit call + one target-lock acquisition per (batched) op: the
    "wire" carries a whole index vector, modelling NIC gather/scatter.
    Requires the :class:`~repro.gasnet.conduit.Conduit` ``_rank`` helper.
    """

    def rma_put(self, src: int, dst: int, offset: int,
                data: np.ndarray) -> None:
        target = self._rank(dst)
        raw = np.ascontiguousarray(data)
        self._rank(src).stats.add(puts=1, put_bytes=raw.nbytes,
                                  remote_accesses=1)
        target.segment.typed_write(offset, raw)

    def rma_get(self, src: int, dst: int, offset: int,
                dtype: np.dtype, count: int) -> np.ndarray:
        target = self._rank(dst)
        out = target.segment.typed_read(offset, dtype, count)
        self._rank(src).stats.add(gets=1, get_bytes=out.nbytes,
                                  remote_accesses=1)
        return out

    def rma_atomic(self, src: int, dst: int, offset: int,
                   dtype: np.dtype, op, operand):
        target = self._rank(dst)
        self._rank(src).stats.add(atomics=1, remote_accesses=1)
        return target.segment.atomic_update(offset, dtype, op, operand)

    def rma_put_indexed(self, src: int, dst: int, base: int,
                        elem_offsets: np.ndarray, data: np.ndarray) -> None:
        target = self._rank(dst)
        raw = np.ascontiguousarray(data)
        n = np.asarray(elem_offsets).size
        self._rank(src).stats.add(puts_indexed=1, put_bytes=raw.nbytes,
                                  batched_elements=n, remote_accesses=n)
        target.segment.typed_write_indexed(base, elem_offsets, raw)

    def rma_get_indexed(self, src: int, dst: int, base: int,
                        dtype: np.dtype, elem_offsets: np.ndarray
                        ) -> np.ndarray:
        target = self._rank(dst)
        out = target.segment.typed_read_indexed(base, dtype, elem_offsets)
        self._rank(src).stats.add(gets_indexed=1, get_bytes=out.nbytes,
                                  batched_elements=out.size,
                                  remote_accesses=out.size)
        return out

    def rma_atomic_batch(self, src: int, dst: int, base: int,
                         dtype: np.dtype, elem_offsets: np.ndarray,
                         op, operands, return_old: bool = False):
        target = self._rank(dst)
        n = np.asarray(elem_offsets).size
        self._rank(src).stats.add(atomic_batches=1, batched_elements=n,
                                  remote_accesses=n)
        return target.segment.atomic_batch_update(
            base, dtype, elem_offsets, op, operands, return_old
        )


class SmpConduit(SegmentRma, Conduit):
    """Threads-as-ranks conduit (the default real executor)."""

    # -- active messages ------------------------------------------------
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        target = self._rank(dst)
        self._encode_and_record(src, am)
        target.deliver(am)

    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        self._rank(dst).deliver(am)
