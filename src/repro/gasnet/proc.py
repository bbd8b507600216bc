"""The process conduit: ranks are OS processes, segments live in
``multiprocessing.shared_memory``, AMs cross shared-memory rings (or
Unix-domain socket pairs as a fallback).

This is the GASNet-style "different conduit, same runtime" split: the
whole UPC++-layer stack (collectives, reliability, telemetry, tracing,
distributed containers) runs unmodified because :class:`ProcConduit`
implements the full abstract :class:`~repro.gasnet.conduit.Conduit`
contract.

Design
------
* **RMA is zero-copy.**  Every rank's segment is one shared-memory
  block, created by the launcher before the fork and mapped in every
  rank process.  A rank's :class:`~repro.gasnet.segment.Segment` is
  built over a NumPy view of the mapping with a cross-process
  ``multiprocessing.RLock``, so the exact
  :class:`~repro.gasnet.smp.SegmentRma` code the SMP conduit uses —
  including the indexed gather/scatter and batched-atomic fast paths —
  works across processes with no serialization and no intermediate
  copy.

* **AMs ship as the PR-6 wire frames, not pickles.**  A send writes the
  frame's struct-packed control bytes followed by its pickle-5
  out-of-band buffers as length-prefixed raw byte spans; nothing is
  re-encoded at the boundary.  Only the (rare) by-reference table is
  pickled — and a by-reference payload that cannot be pickled raises a
  clear :class:`~repro.errors.SerializationError` at the sender instead
  of delivering a dangling reference.

* **The default AM transport is shared-memory rings** (the same move
  GASNet's smp conduit makes): one :mod:`repro.gasnet.ring` SPSC region
  per directed rank pair, carved out of a single
  ``multiprocessing.shared_memory`` block the launcher creates before
  the fork.  A send serializes the message into a per-peer pending
  buffer; small frames to the same peer coalesce there until a flush
  (inline on the next ``advance()``/blocking wait via the world's flush
  hook, by size/frame-count threshold, or by the receive loop's flush
  window) publishes them as ring slots — one slot, one doorbell, many
  frames.  The receiver runs an adaptive progress loop: bounded spin →
  ``sched_yield``-style backoff (``time.sleep(0)``) → park on a
  per-rank pipe doorbell, so an idle rank costs nothing and a busy pair
  exchanges messages with **zero syscalls**.  Set
  ``REPRO_PROC_TRANSPORT=socket`` (or use the ``proc+socket`` backend)
  to select the socketpair path instead — it stays wire-compatible
  (same message stream, one ``sendmsg`` per frame, chunked buffered
  reads) and is the conformance/chaos fallback.

* **Handler-id translation.**  Handler names are interned to 16-bit ids
  per process in call order, so ids can diverge after the fork.  The
  launcher interns every handler registered before the fork and records
  that *agreed* prefix; ids above it are advertised to each peer with a
  one-off ``DEF`` record before first use (the record rides the same
  FIFO stream as the frames, on either transport), and the receiver
  rewrites the id field (outer header and any nested reliability
  envelope) in-place to its local id before the frame is thawed.

The conduit only ever *sends from* its own rank; peer
:class:`~repro.core.world.RankState` objects in a rank process are
directory stubs whose shared-memory segments are real but whose inboxes
are never used (remote delivery happens in the remote process).
"""

from __future__ import annotations

import errno
import itertools
import os
import pickle
import select
import selectors
import socket
import struct
import threading
import time

import numpy as np
from multiprocessing import get_context, shared_memory

from repro.errors import PgasError, SerializationError, TransientCommError
from repro.gasnet.am import ActiveMessage, am_handler, handler_registry
from repro.gasnet.conduit import Conduit, ConduitCaps
from repro.gasnet.ring import RingConsumer, RingProducer, RingSpec
from repro.gasnet.segment import Segment
from repro.gasnet.smp import SegmentRma
from repro.gasnet.wire.frame import (
    CODEC_NESTED_AM,
    F_HAS_REFS,
    F_USED_PICKLE,
    HEADER,
    Frame,
    _handler_names,
    handler_code,
    handler_name,
)

PROC_CAPS = ConduitCaps(
    cross_process=True,
    supports_kill_rank=True,
    in_process_hooks=False,
    zero_copy_rma=True,
    needs_launcher=True,
    shm_rings=True,
)

#: The ``proc+socket`` variant: same conduit, AMs over socketpairs.
PROC_SOCKET_CAPS = ConduitCaps(
    cross_process=True,
    supports_kill_rank=True,
    in_process_hooks=False,
    zero_copy_rma=True,
    needs_launcher=True,
    shm_rings=False,
)

#: Environment override for the AM transport when the backend name does
#: not pin one (``"proc"``): ``ring`` (default) or ``socket``.
TRANSPORT_ENV = "REPRO_PROC_TRANSPORT"

# -- message framing ---------------------------------------------------------
#
# Both transports carry one per-directed-pair byte stream of messages.
# Every message starts with one type byte.  FRAME carries one wire
# frame: <III> (ctrl_len, nbufs, refs_len) + nbufs u64 buffer lengths,
# then the raw control bytes, the raw buffer spans, and the pickled
# by-reference table.  DEF advertises one interned handler id:
# <HH> (hid, name_len) + the UTF-8 name.

MSG_FRAME = 0
MSG_DEF = 1

_FRAME_HDR = struct.Struct("<III")
# Type byte + frame header fused into one pack for buffer-less frames.
_FRAME_HDR1 = struct.Struct("<BIII")
_DEF_HDR = struct.Struct("<HH")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_NESTED_META = 20  # _5I splice prefix before a nested frame's ctrl

_RECV_CHUNK = 1 << 18     # socket-path buffered read size
_IOV_BATCH = 128          # spans per sendmsg (stay far under IOV_MAX)
_PARKED_STRIDE = 64       # one cache line per receiver parked flag
#: Index stride of the parked flags in the block's leading u32 view.
_FLAG_STRIDE = _PARKED_STRIDE // 4

_fabric_ids = itertools.count(1)


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, ""))
    except ValueError:
        return default


def _handler_sites(ctrl) -> list[int]:
    """Byte offsets of every interned handler-id field in a control
    stream: the outer header's, plus — when the payload is a nested
    reliability envelope — each spliced inner frame's, recursively."""
    sites = []
    start = 0
    while True:
        (_ver, _flags, codec_id, _hid, _src, _tok, _aux, _nbuf,
         args_len, _meta_len) = HEADER.unpack_from(ctrl, start)
        sites.append(start + 4)  # handler id at header offset 4
        if codec_id != CODEC_NESTED_AM:
            return sites
        start = start + HEADER.size + args_len + _NESTED_META


def _buf_span(b):
    """A sendable view of an out-of-band buffer table entry."""
    if isinstance(b, (bytes, bytearray, memoryview)):
        return b
    return memoryview(b)  # e.g. pickle.PickleBuffer


def _span_len(mv) -> int:
    return mv.nbytes if isinstance(mv, memoryview) else len(mv)


def _sendmsg_all(sock: socket.socket, parts) -> None:
    """Write all of ``parts`` with scatter-gather ``sendmsg`` — one
    syscall for header + control + buffers + refs on the common path
    (vs. one ``sendall`` per piece), looping only on partial writes."""
    spans = []
    for p in parts:
        m = p if isinstance(p, memoryview) else memoryview(p)
        if m.nbytes:
            spans.append(m)
    i = 0
    while i < len(spans):
        batch = spans[i:i + _IOV_BATCH]
        sent = sock.sendmsg(batch)
        for m in batch:
            n = m.nbytes
            if sent >= n:
                sent -= n
                i += 1
            else:
                spans[i] = m[sent:]
                break


class _StreamParser:
    """Incremental parser for one peer's message stream.

    Fed arbitrary chunks (a ring slot's bytes, a buffered socket read),
    yields complete messages; partial messages wait for the next chunk.
    This replaces the old ``recv(1)``-per-message framing: the socket
    path now costs ~one ``recv`` per *chunk of messages* instead of
    ~six syscalls per message.
    """

    __slots__ = ("_buf", "_off")

    def __init__(self):
        self._buf = bytearray()
        self._off = 0

    def feed(self, chunk) -> None:
        if self._off == len(self._buf):
            self._buf = bytearray(chunk) if self._off else self._buf
            if self._off:
                self._off = 0
                return
        self._buf += chunk

    @property
    def buffered(self) -> int:
        return len(self._buf) - self._off

    def next_msg(self):
        """One complete message as a tuple, or ``None`` if more bytes
        are needed: ``(MSG_DEF, hid, name)`` or ``(MSG_FRAME, ctrl,
        buffers, refs_blob)`` — ctrl/buffers are writable bytearrays."""
        buf = self._buf
        off = self._off
        avail = len(buf) - off
        if avail < 1:
            return None
        kind = buf[off]
        if kind == MSG_DEF:
            if avail < 1 + _DEF_HDR.size:
                return None
            hid, nlen = _DEF_HDR.unpack_from(buf, off + 1)
            end = off + 1 + _DEF_HDR.size + nlen
            if len(buf) < end:
                return None
            name = bytes(buf[off + 1 + _DEF_HDR.size:end]).decode("utf-8")
            self._off = end
            self._compact()
            return (MSG_DEF, hid, name)
        if kind != MSG_FRAME:
            raise PgasError(f"proc conduit: bad message type {kind}")
        if avail < 1 + _FRAME_HDR.size:
            return None
        ctrl_len, nbufs, refs_len = _FRAME_HDR.unpack_from(buf, off + 1)
        p = off + 1 + _FRAME_HDR.size
        if avail < 1 + _FRAME_HDR.size + 8 * nbufs:
            return None
        lens = struct.unpack_from(f"<{nbufs}Q", buf, p) if nbufs else ()
        p += 8 * nbufs
        if len(buf) - p < ctrl_len + sum(lens) + refs_len:
            return None
        # Writable bytearrays: the ndarray codec's zero-copy decode
        # (np.frombuffer) yields writable arrays over them, matching
        # the SMP conduit's by-value delivery semantics.
        ctrl = buf[p:p + ctrl_len]
        p += ctrl_len
        buffers = []
        for n in lens:
            buffers.append(buf[p:p + n])
            p += n
        refs_blob = bytes(buf[p:p + refs_len]) if refs_len else b""
        self._off = p + refs_len
        self._compact()
        return (MSG_FRAME, ctrl, buffers, refs_blob)

    def _compact(self) -> None:
        off = self._off
        if off == len(self._buf):
            self._buf = bytearray()
            self._off = 0
        elif off > (1 << 16):
            del self._buf[:off]
            self._off = 0


class _Pending:
    """One peer's unflushed (aggregating) outbound message bytes."""

    __slots__ = ("buf", "frames", "first_t", "last_send")

    def __init__(self):
        self.buf = bytearray()
        self.frames = 0
        self.first_t = 0.0
        self.last_send = 0.0


class ProcFabric:
    """Everything the launcher builds *before* forking the ranks.

    Shared-memory segment blocks, cross-process segment locks, the AM
    ring block + per-rank doorbell pipes (ring transport), the
    full-mesh AM socket pairs, and one bootstrap socket pair per rank.
    File descriptors, mappings, and lock handles reach the rank
    processes by fork inheritance; :meth:`child_setup` closes the ends
    a rank does not own so peer-exit EOFs propagate and no fd leaks
    outlive the world.
    """

    def __init__(self, n_ranks: int, segment_size: int,
                 transport: str | None = None):
        self.n_ranks = n_ranks
        self.segment_size = segment_size
        self.uid = f"{os.getpid()}_{next(_fabric_ids)}"
        self.ctx = get_context("fork")
        self.locks = [self.ctx.RLock() for _ in range(n_ranks)]
        self.shms: list[shared_memory.SharedMemory] = []
        self.transport = (transport or os.environ.get(TRANSPORT_ENV)
                          or "ring")
        if self.transport not in ("ring", "socket"):
            raise PgasError(
                f"proc fabric: unknown AM transport {self.transport!r} "
                f"(expected 'ring' or 'socket')"
            )
        self.ring_spec: RingSpec | None = None
        self.ring_shm: shared_memory.SharedMemory | None = None
        #: doorbells[r] = [read_fd, write_fd] of rank r's park pipe.
        self.doorbells: list[list] = []
        try:
            for r in range(n_ranks):
                self.shms.append(shared_memory.SharedMemory(
                    name=f"repro_{self.uid}_r{r}", create=True,
                    size=segment_size,
                ))
            if self.transport == "ring":
                self.ring_spec = RingSpec(
                    slots=_env_int("REPRO_RING_SLOTS", 64),
                    slot_bytes=_env_int("REPRO_RING_SLOT_BYTES", 4096),
                    spill_bytes=_env_int("REPRO_RING_SPILL_BYTES", 1 << 20),
                )
                pairs = n_ranks * (n_ranks - 1)
                size = (n_ranks * _PARKED_STRIDE
                        + pairs * self.ring_spec.region_bytes)
                self.ring_shm = shared_memory.SharedMemory(
                    name=f"repro_{self.uid}_ring", create=True,
                    size=max(size, 1),
                )
                for _ in range(n_ranks):
                    rfd, wfd = os.pipe()
                    os.set_blocking(rfd, False)
                    os.set_blocking(wfd, False)
                    self.doorbells.append([rfd, wfd])
        except BaseException:
            self.destroy()
            raise
        #: mesh[(i, j)] for i < j: (rank i's end, rank j's end).
        self.mesh: dict[tuple[int, int],
                        tuple[socket.socket, socket.socket]] = {}
        for i in range(n_ranks):
            for j in range(i + 1, n_ranks):
                self.mesh[(i, j)] = socket.socketpair()
        #: boot[r]: (parent end, rank r's end) — ready/go handshake,
        #: death/failure broadcasts, and the rank's final result.
        self.boot = [socket.socketpair() for _ in range(n_ranks)]
        # Intern every handler registered so far, so the forked
        # processes share one agreed id prefix; ids past this point
        # are per-process and need DEF advertisement on the wire.
        for name in sorted(handler_registry):
            handler_code(name)
        handler_code("__reply__")
        self.agreed_handlers = len(_handler_names)

    # -- ring layout -----------------------------------------------------
    def ring_region(self, src: int, dst: int) -> int:
        """Base offset of the directed ``src -> dst`` ring region."""
        idx = src * (self.n_ranks - 1) + (dst if dst < src else dst - 1)
        return (self.n_ranks * _PARKED_STRIDE
                + idx * self.ring_spec.region_bytes)

    # -- fd hygiene ------------------------------------------------------
    def child_setup(self, rank: int) -> None:
        """Called first thing in a rank process: keep only this rank's
        socket ends, its own doorbell read end, and the peers' doorbell
        write ends."""
        for (i, j), (a, b) in self.mesh.items():
            if i == rank:
                b.close()
            elif j == rank:
                a.close()
            else:
                a.close()
                b.close()
        for r, (parent_end, child_end) in enumerate(self.boot):
            parent_end.close()
            if r != rank:
                child_end.close()
        for r, db in enumerate(self.doorbells):
            if r != rank and db[0] is not None:
                try:
                    os.close(db[0])
                except OSError:
                    pass
                db[0] = None

    def _close_doorbells(self) -> None:
        for db in self.doorbells:
            for k in (0, 1):
                if db[k] is not None:
                    try:
                        os.close(db[k])
                    except OSError:
                        pass
                    db[k] = None
        self.doorbells = []

    def parent_setup(self) -> None:
        """Called in the launcher after the forks: close the rank ends."""
        for a, b in self.mesh.values():
            a.close()
            b.close()
        for _parent_end, child_end in self.boot:
            child_end.close()
        self._close_doorbells()

    def mesh_for(self, rank: int) -> dict[int, socket.socket]:
        socks = {}
        for (i, j), (a, b) in self.mesh.items():
            if i == rank:
                socks[j] = a
            elif j == rank:
                socks[i] = b
        return socks

    def boot_child(self, rank: int) -> socket.socket:
        return self.boot[rank][1]

    def boot_parent(self, rank: int) -> socket.socket:
        return self.boot[rank][0]

    # -- segments --------------------------------------------------------
    def make_segment(self, rank: int, size: int) -> Segment:
        """Segment factory handed to :class:`~repro.core.world.World`:
        every rank's segment is a view of its shared-memory block, so
        RMA against *any* rank is a direct mapped access."""
        if size != self.segment_size:
            raise PgasError(
                f"proc fabric built for segment_size={self.segment_size}, "
                f"world asked for {size}"
            )
        buf = np.frombuffer(self.shms[rank].buf, dtype=np.uint8)
        return Segment(size, rank=rank, buf=buf, lock=self.locks[rank])

    def destroy(self) -> None:
        """Launcher-side teardown: close every fd, unlink the blocks."""
        for pair in list(getattr(self, "mesh", {}).values()):
            for s in pair:
                try:
                    s.close()
                except OSError:
                    pass
        for pair in getattr(self, "boot", []):
            for s in pair:
                try:
                    s.close()
                except OSError:
                    pass
        self._close_doorbells()
        for shm in self.shms:
            try:
                shm.close()
            except (OSError, BufferError):
                pass
            try:
                shm.unlink()
            except (OSError, FileNotFoundError):
                pass
        self.shms = []
        if self.ring_shm is not None:
            try:
                self.ring_shm.close()
            except (OSError, BufferError):
                pass
            try:
                self.ring_shm.unlink()
            except (OSError, FileNotFoundError):
                pass
            self.ring_shm = None


class ProcConduit(SegmentRma, Conduit):
    """Processes-as-ranks conduit over a pre-forked :class:`ProcFabric`.

    Exists only inside a rank process (``caps.needs_launcher``); the
    launcher (:mod:`repro.core.proclaunch`) builds one per rank.
    """

    caps = PROC_CAPS

    def __init__(self, fabric: ProcFabric, rank: int):
        self.fabric = fabric
        self.local_rank = rank
        self.transport = fabric.transport
        peers = [r for r in range(fabric.n_ranks) if r != rank]
        self._socks = fabric.mesh_for(rank)
        self._send_locks = {p: threading.Lock() for p in peers}
        self._advertised: dict[int, set[int]] = {p: set() for p in peers}
        self._peer_names: dict[int, dict[int, str]] = {p: {} for p in peers}
        self._parsers = {p: _StreamParser() for p in peers}
        self._agreed = fabric.agreed_handlers
        self._closing = False
        self._recv_thread: threading.Thread | None = None
        # Self-pipe so close() can wake the receiver out of select().
        self._wake_r, self._wake_w = socket.socketpair()
        #: Wire-level counters (the conformance suite's no-pickle /
        #: no-frame assertions read these).
        self.frames_sent = 0
        self.frames_received = 0
        self._stats = None
        self._tel = None
        self._ring_on = (fabric.transport == "ring"
                         and fabric.ring_shm is not None)
        if self._ring_on:
            spec = fabric.ring_spec
            mv = fabric.ring_shm.buf
            # Parked flags are read and written through this u32 view:
            # one aligned 4-byte access each (see repro.gasnet.ring on
            # why struct.pack_into would let a peer read a torn value).
            self._parked = mv[:fabric.n_ranks * _PARKED_STRIDE].cast("I")
            self._prod = {p: RingProducer(mv, spec,
                                          fabric.ring_region(rank, p))
                          for p in peers}
            self._cons = {p: RingConsumer(mv, spec,
                                          fabric.ring_region(p, rank))
                          for p in peers}
            self._pending = {p: _Pending() for p in peers}
            self._dirty = False
            # The rings are SPSC: exactly one thread may consume at a
            # time.  Both the receive thread and the rank-thread fast
            # path (poll_inbound) drain under this lock.
            self._cons_lock = threading.Lock()
            self._poll_misses = 0
            # Doorbell arbitration (both flags are in-process): the
            # shared parked flag is raised — "publishers, ring my
            # doorbell" — only when the receive thread is parked AND no
            # rank thread is actively polling; an active poller sees
            # publishes through shared memory with no syscall at all.
            self._poller_active = False
            self._recv_parked = False
            self._flag = rank * _FLAG_STRIDE
            self._door_r = fabric.doorbells[rank][0]
            self._door_w = {p: fabric.doorbells[p][1] for p in peers}
            # Adaptive-progress knobs.  On a single core a spinning
            # receive thread only steals the GIL from the rank thread,
            # so the spin budget collapses and the loop yields/parks
            # almost immediately.
            cpus = os.cpu_count() or 1
            self._spin = _env_int("REPRO_RING_SPIN",
                                  200 if cpus > 1 else 0)
            self._yields = _env_int("REPRO_RING_YIELDS",
                                    64 if cpus > 1 else 0)
            self._park_s = _env_float("REPRO_RING_PARK_MS", 20.0) / 1e3
            self._flush_window = _env_float("REPRO_RING_FLUSH_US",
                                            200.0) / 1e6
            self._agg_frames = _env_int("REPRO_RING_AGG_FRAMES", 16)
            # Burst detector for adaptive aggregation: a send whose
            # predecessor to the same peer is older than this gap is
            # isolated (latency path, publish now); younger means a
            # back-to-back burst (coalesce into one slot).
            self._eager_gap = _env_float("REPRO_RING_EAGER_US", 25.0) / 1e6
            # Rank-thread poll: yields per burst while traffic is live,
            # and how many empty bursts until the thread stops burning
            # cycles and falls back to its condition-variable nap.
            self._poll_yields = _env_int("REPRO_RING_POLL_YIELDS", 64)
            self._poll_idle_limit = _env_int("REPRO_RING_POLL_IDLE", 4)
            self._flush_bytes = spec.inline_cap
            self._stall_limit = 30.0

    # -- lifecycle -------------------------------------------------------
    def attach(self, world) -> None:
        super().attach(world)
        me = world.ranks[self.local_rank]
        self._stats = me.stats
        self._tel = me.telemetry
        if self._ring_on:
            # The world's progress engine flushes aggregated sends at
            # every advance()/blocking-wait point, so latency-sensitive
            # request/reply ops are never held for the flush window.
            world._am_flush = self.flush_sends
            world._am_poll = self.poll_inbound
            if world.op_timeout:
                self._stall_limit = float(world.op_timeout)
        self._recv_thread = threading.Thread(
            target=(self._recv_main_ring if self._ring_on
                    else self._recv_main_socket),
            name=f"proc-recv-{self.local_rank}", daemon=True,
        )
        self._recv_thread.start()

    def close(self) -> None:
        if self._ring_on and not self._closing:
            # Best-effort final flush (bounded: a gone peer must not
            # hold teardown for the full stall limit).
            self._stall_limit = 0.25
            try:
                self.flush_sends()
            except Exception:
                pass
        self._closing = True
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass
        t = self._recv_thread
        if t is not None:
            t.join(timeout=5.0)
            self._recv_thread = None
        if self._ring_on and not (t is not None and t.is_alive()):
            # No thread touches the rings any more: drop the views so
            # the block's SharedMemory.close() can succeed.
            for end in (*self._prod.values(), *self._cons.values()):
                end.release()
            self._parked.release()
        for s in self._socks.values():
            try:
                s.close()
            except OSError:
                pass
        for s in (self._wake_r, self._wake_w):
            try:
                s.close()
            except OSError:
                pass
        if self._ring_on:
            db = self.fabric.doorbells
            if db:
                for r, pair in enumerate(db):
                    for k in (0, 1):
                        fd = pair[k]
                        keep = (r == self.local_rank and k == 0) or k == 1
                        if fd is not None and keep:
                            try:
                                os.close(fd)
                            except OSError:
                                pass
                            pair[k] = None

    # -- active messages -------------------------------------------------
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        frame = self._encode_and_record(src, am)
        if dst == self.local_rank:
            self._rank(dst).deliver(am)  # loopback: no wire
            return
        if not 0 <= dst < self.world.n_ranks:
            self._rank(dst)  # raises the canonical range error
        self._send_frame(dst, frame)

    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        from repro.gasnet.wire import encode_am

        if dst == self.local_rank:
            self._rank(dst).deliver(am)
            return
        self._rank(dst)
        self._send_frame(dst, encode_am(am))

    def _send_frame(self, dst: int, frame: Frame) -> None:
        refs_blob = b""
        if frame.refs:
            try:
                refs_blob = pickle.dumps(frame.refs, protocol=5)
            except Exception as exc:
                raise SerializationError(
                    f"active message carries {len(frame.refs)} "
                    f"by-reference payload(s) that cannot cross a "
                    f"process boundary on the proc conduit "
                    f"(pickling failed: {exc}); pass by-value-"
                    f"encodable data instead"
                ) from None
        bufs = frame.buffers
        spans = [_buf_span(b) for b in bufs] if bufs else bufs
        if self._ring_on:
            self._ring_send(dst, frame.ctrl, spans, refs_blob)
        else:
            self._socket_send(dst, frame.ctrl, spans, refs_blob)

    def _frame_head(self, ctrl, spans, refs_len: int) -> bytes:
        if not spans:
            # Hot shape: header-only frame — one pack, one concat.
            return _FRAME_HDR1.pack(MSG_FRAME, len(ctrl), 0,
                                    refs_len) + ctrl
        head = bytearray()
        head.append(MSG_FRAME)
        head += _FRAME_HDR.pack(len(ctrl), len(spans), refs_len)
        for mv in spans:
            head += _U64.pack(_span_len(mv))
        head += ctrl
        return bytes(head)

    def _def_records(self, dst: int, ctrl) -> bytearray | None:
        """DEF records for any post-fork handler id in ``ctrl`` the
        peer has not seen yet (caller holds the send lock and writes
        them into the stream ahead of the frame, so a DEF always
        precedes the first frame that uses its id)."""
        seen = self._advertised[dst]
        if ctrl[2] != CODEC_NESTED_AM:
            # Common case: a flat frame has exactly one handler-id site
            # (ctrl offset 4) — decide without the generator walk.
            hid = _U16.unpack_from(ctrl, 4)[0]
            if hid < self._agreed or hid in seen:
                return None
        out = None
        for site in _handler_sites(ctrl):
            hid = _U16.unpack_from(ctrl, site)[0]
            if hid < self._agreed or hid in seen:
                continue
            name = handler_name(hid).encode("utf-8")
            if out is None:
                out = bytearray()
            out.append(MSG_DEF)
            out += _DEF_HDR.pack(hid, len(name))
            out += name
            seen.add(hid)
        return out

    # -- socketpair transport (fallback) ---------------------------------
    def _socket_send(self, dst: int, ctrl, spans, refs_blob) -> None:
        sock = self._socks.get(dst)
        if sock is None:
            raise PgasError(
                f"proc conduit: no wire to rank {dst} "
                f"(local rank {self.local_rank})"
            )
        try:
            with self._send_locks[dst]:
                head = self._def_records(dst, ctrl) or bytearray()
                head += self._frame_head(ctrl, spans, len(refs_blob))
                parts = [head, *spans]
                if refs_blob:
                    parts.append(refs_blob)
                _sendmsg_all(sock, parts)
        except OSError as exc:
            self._send_error(dst, exc)
            return
        self.frames_sent += 1

    def _send_error(self, dst: int, exc: OSError) -> None:
        """A send hit a closed socket: benign during shutdown or when
        the peer already finished; a comm error otherwise."""
        if self._closing:
            return
        world = self.world
        if world is not None and 0 <= dst < world.n_ranks:
            rk = world.ranks[dst]
            if rk.done or rk.dead or rk.body_done:
                return  # trailing chatter to a finished/dead peer
        if exc.errno in (errno.EPIPE, errno.ECONNRESET, errno.ESHUTDOWN,
                         errno.ENOTCONN):
            # On a socketpair these mean exactly one thing: the peer
            # process is gone.  Drop the frame and let the launcher's
            # peer_dead broadcast surface the death as RankDead — a
            # racing send must not mask it as a comm error.
            return
        raise TransientCommError(
            f"proc conduit: send {self.local_rank}->{dst} failed: {exc}"
        ) from exc

    # -- ring transport ---------------------------------------------------
    def _ring_send(self, dst: int, ctrl, spans, refs_blob) -> None:
        prod = self._prod.get(dst)
        if prod is None:
            raise PgasError(
                f"proc conduit: no ring to rank {dst} "
                f"(local rank {self.local_rank})"
            )
        with self._send_locks[dst]:
            pend = self._pending[dst]
            buf = pend.buf
            defs = self._def_records(dst, ctrl)
            if defs:
                buf += defs
            buf += self._frame_head(ctrl, spans, len(refs_blob))
            for mv in spans:
                buf += mv
            if refs_blob:
                buf += refs_blob
            pend.frames += 1
            now = time.monotonic()
            in_burst = now - pend.last_send < self._eager_gap
            pend.last_send = now
            if pend.first_t == 0.0:
                pend.first_t = now
            self.frames_sent += 1
            if (not in_burst
                    or pend.frames >= self._agg_frames
                    or len(buf) >= self._flush_bytes):
                # Adaptive aggregation: an isolated send (the previous
                # send to this peer was more than the burst gap ago) is
                # latency-sensitive and publishes immediately; sends
                # arriving back-to-back are a throughput burst and
                # coalesce until the frame/byte cap or the advance()
                # flush hook publishes them.
                self._flush_locked(dst, pend)
            else:
                self._dirty = True

    def flush_sends(self) -> None:
        """Publish every peer's pending aggregated frames, and drain any
        inbound slots while here.  Installed as the world's ``_am_flush``
        hook: every ``advance()`` (and thus every blocking wait and
        every progress-thread pass) flushes, so a request never idles in
        the aggregation buffer while its sender blocks on the reply —
        and inbound traffic is picked up within one progress-thread
        period even when the rank thread is deep in compute."""
        if self._dirty:
            self._dirty = False
            for dst, pend in self._pending.items():
                if pend.frames:
                    with self._send_locks[dst]:
                        if pend.frames:
                            self._flush_locked(dst, pend)
        if self._poller_active:
            # The blocked rank thread is draining the rings itself (the
            # wait_until poll hook) — a second pass per advance() only
            # lengthens the latency path.
            return
        if self._cons_lock.acquire(blocking=False):
            try:
                self._drain_rings()
            finally:
                self._cons_lock.release()

    def _sweep_pending(self, force: bool = False) -> None:
        """Receive-loop flush of *aged* pending sends (fire-and-forget
        traffic whose sender never blocks).  Locks are taken
        non-blocking: the receive loop must never stall behind a rank
        thread mid-flush, or two ranks could deadlock on full rings."""
        if not self._dirty:
            return
        now = time.monotonic()
        window = 0.0 if force else self._flush_window
        for dst, pend in self._pending.items():
            if pend.frames and now - pend.first_t >= window:
                lock = self._send_locks[dst]
                if lock.acquire(blocking=False):
                    try:
                        if pend.frames:
                            self._flush_locked(dst, pend)
                    finally:
                        lock.release()

    def _flush_locked(self, dst: int, pend: _Pending) -> None:
        """Publish one peer's pending bytes as ring slots (caller holds
        the peer's send lock)."""
        data = pend.buf
        frames = pend.frames
        pend.buf = bytearray()
        pend.frames = 0
        pend.first_t = 0.0
        prod = self._prod[dst]
        stats = self._stats
        tel = self._tel
        t0 = time.perf_counter() if (tel is not None and tel.full) else 0.0
        mv = memoryview(data)
        total = len(data)
        off = 0
        slots = 0
        spilled = False
        stall_t = None
        spins = 0
        while off < total:
            n = prod.try_emit(mv, off)
            if n > 0:
                off += n
                slots += 1
                if prod.last_spill:
                    spilled = True
                stall_t = None
                spins = 0
                continue
            # Ring full: the receiver is behind (or gone).  Escalate
            # spin -> yield -> sleep while watching for peer death.
            if stats is not None:
                stats.add(wire_ring_full_backoffs=1)
            if self._closing:
                return
            world = self.world
            if world is not None:
                rk = world.ranks[dst]
                if rk.dead or rk.done:
                    return  # trailing chatter to a finished/dead peer
            now = time.monotonic()
            if stall_t is None:
                stall_t = now
            elif now - stall_t > self._stall_limit:
                raise TransientCommError(
                    f"proc conduit: ring {self.local_rank}->{dst} "
                    f"full for {self._stall_limit:.1f}s "
                    f"(receiver stalled)"
                )
            spins += 1
            if spins <= 16:
                continue
            if spins <= 256:
                os.sched_yield()  # hand the core to the slow receiver
            else:
                time.sleep(0.0002)
        if slots:
            if self._peer_parked(dst):
                try:
                    os.write(self._door_w[dst], b"\1")
                    if stats is not None:
                        stats.add(wire_ring_doorbells=1)
                except (OSError, TypeError):
                    pass  # full pipe / torn-down peer: wakeups pending
            if stats is not None:
                stats.add(wire_ring_slots=slots, wire_ring_frames=frames,
                          wire_ring_agg_frames=frames if frames > 1 else 0,
                          wire_ring_spills=int(spilled))
            if tel is not None and tel.full:
                tel.record_latency("ring_flush", time.perf_counter() - t0)
                tel.record_value("ring_slot_frames", frames, "frames")

    def _peer_parked(self, dst: int) -> bool:
        return self._parked[dst * _FLAG_STRIDE] != 0

    # -- receive side ----------------------------------------------------
    def _feed(self, peer: int, chunk) -> None:
        """Advance one peer's stream parser and deliver every complete
        message in it (messages from one chunk are delivered under one
        inbox lock acquisition)."""
        parser = self._parsers[peer]
        parser.feed(chunk)
        shells = None
        while True:
            msg = parser.next_msg()
            if msg is None:
                break
            if msg[0] == MSG_DEF:
                self._peer_names[peer][msg[1]] = msg[2]
                continue
            _kind, ctrl, buffers, refs_blob = msg
            refs: list = []
            if refs_blob:
                refs = pickle.loads(refs_blob)
            self._translate(peer, ctrl)
            flags = ctrl[1]
            frame = Frame(
                ctrl, buffers, refs,
                len(ctrl) + sum(len(b) for b in buffers),
                bool(flags & F_USED_PICKLE), bool(flags & F_HAS_REFS),
                pooled=False,
            )
            shell = ActiveMessage(handler="", src_rank=peer)
            shell._frame = frame
            shell._wire_bytes = frame.nbytes
            self.frames_received += 1
            if shells is None:
                shells = [shell]
            else:
                shells.append(shell)
        if shells and self.world is not None:
            self.world.ranks[self.local_rank].deliver_many(shells)

    def _drain_rings(self) -> bool:
        """Drain every inbound ring once (bounded per peer for
        fairness); returns True when anything was consumed.  Callers
        must hold ``_cons_lock`` — the rings are single-consumer."""
        progressed = False
        for peer, c in self._cons.items():
            budget = 64
            chunk = c.try_recv()
            while chunk is not None:
                progressed = True
                self._feed(peer, chunk)
                budget -= 1
                chunk = c.try_recv() if budget else None
        if progressed:
            # Any inbound progress means traffic is flowing: keep the
            # rank-thread poller hot.  Without this, the advance()-time
            # flush hook (which also drains) steals every hit, the
            # poller sees nothing but misses, de-escalates for good,
            # and each message pays a doorbell write (~50µs) instead of
            # a sched_yield handoff (~2µs).
            self._poll_misses = 0
        return progressed

    def poll_inbound(self) -> bool:
        """Rank-thread inbound fast path (the world's ``_am_poll``
        hook).  A blocked rank thread drains the rings itself — with a
        short ``sched_yield`` handoff loop so two ranks sharing a core
        ping-pong through shared memory at context-switch cost, no
        doorbell, no recv-thread wakeup, no syscalls on the hot path.
        While the poller is active it lowers the shared parked flag so
        publishers skip the doorbell (a wakeup would only put the
        receive thread in a GIL fight with the handler).  After a few
        empty bursts it reports idle, restores the flag, and the caller
        falls back to its condition-variable nap — waiting ranks don't
        spin forever, and the parked receive thread owns wakeups again.
        """
        misses = self._poll_misses
        budget = self._poll_yields if misses <= self._poll_idle_limit else 0
        if budget and not self._poller_active:
            self._poller_active = True
            self._parked[self._flag] = 0
        lock = self._cons_lock
        n = 0
        while True:
            got = False
            if lock.acquire(blocking=False):
                try:
                    got = self._drain_rings()
                finally:
                    lock.release()
            if got:
                self._poll_misses = 0
                return True
            if n >= budget:
                break
            # Real sched_yield(2): hands the core to the runnable peer
            # process in ~1µs (time.sleep(0) takes the timer path and
            # costs ~100µs per handoff on a contended core).
            os.sched_yield()
            n += 1
        self._poll_misses = misses + 1
        if self._poller_active and self._poll_misses > self._poll_idle_limit:
            self._poller_active = False
            if self._recv_parked:
                self._parked[self._flag] = 1
        return False

    def _recv_main_ring(self) -> None:
        """Adaptive ring progress loop: drain every inbound ring; on
        idle, spin a bounded budget, then yield the GIL
        (``sched_yield``-style), then park on the doorbell pipe."""
        parked = self._parked
        flag = self._flag
        cons = list(self._cons.items())
        spin_budget = self._spin
        yield_budget = self._yields
        park_s = self._park_s
        stats = self._stats
        spin = 0
        try:
            while not self._closing:
                with self._cons_lock:
                    progressed = self._drain_rings()
                self._sweep_pending()
                if progressed:
                    spin = 0
                    continue
                spin += 1
                if spin <= spin_budget:
                    continue
                if spin <= spin_budget + yield_budget:
                    time.sleep(0)
                    continue
                # Park: flush our own stragglers, advertise the parked
                # flag (unless an active rank-thread poller owns the
                # rings), re-check them (a publish that raced the flag
                # is caught here or by the bounded park timeout), then
                # block on the doorbell.
                self._sweep_pending(force=True)
                self._recv_parked = True
                if not self._poller_active:
                    parked[flag] = 1
                if any(c.pending() for _p, c in cons):
                    self._recv_parked = False
                    parked[flag] = 0
                    spin = 0
                    continue
                ready, _, _ = select.select(
                    [self._door_r, self._wake_r], [], [], park_s)
                self._recv_parked = False
                parked[flag] = 0
                spin = 0
                if self._door_r in ready:
                    try:
                        os.read(self._door_r, 4096)
                    except OSError:
                        pass
                    if stats is not None:
                        stats.add(wire_ring_wakeups=1)
        except BaseException as exc:
            if not self._closing and self.world is not None:
                self.world.fail(self.local_rank, exc)

    def _recv_main_socket(self) -> None:
        sel = selectors.DefaultSelector()
        sel.register(self._wake_r, selectors.EVENT_READ, None)
        for p, s in self._socks.items():
            sel.register(s, selectors.EVENT_READ, p)
        open_peers = set(self._socks)
        try:
            while not self._closing:
                for key, _ in sel.select(timeout=0.25):
                    peer = key.data
                    if peer is None:
                        return  # woken by close()
                    try:
                        chunk = key.fileobj.recv(_RECV_CHUNK)
                    except OSError:
                        if self._closing:
                            return
                        chunk = b""
                    if not chunk:
                        sel.unregister(key.fileobj)
                        open_peers.discard(peer)
                        continue
                    try:
                        self._feed(peer, chunk)
                    except BaseException as exc:
                        if self._closing:
                            return
                        if self.world is not None:
                            self.world.fail(self.local_rank, exc)
                        return
                if not open_peers:
                    return
        finally:
            sel.close()

    def _translate(self, peer: int, ctrl: bytearray) -> None:
        """Rewrite post-fork handler ids to this process's ids."""
        if ctrl[2] != CODEC_NESTED_AM \
                and _U16.unpack_from(ctrl, 4)[0] < self._agreed:
            return  # flat frame, pre-agreed id: nothing to rewrite
        names = self._peer_names[peer]
        for site in _handler_sites(ctrl):
            hid = _U16.unpack_from(ctrl, site)[0]
            if hid < self._agreed:
                continue
            name = names.get(hid)
            if name is None:
                raise PgasError(
                    f"proc conduit: rank {peer} used handler id {hid} "
                    f"without advertising it"
                )
            lid = handler_code(name)
            if lid != hid:
                _U16.pack_into(ctrl, site, lid)


@am_handler("__proc_done__")
def _proc_done_handler(ctx, am: ActiveMessage) -> None:
    """Survivable-death finalize across processes: a rank whose SPMD
    body returned broadcasts this so peers' directory stubs show it
    done-not-dead (the thread backend reads the flag from shared state;
    here it must cross the wire)."""
    world = ctx.world
    if 0 <= am.src_rank < world.n_ranks:
        peer = world.ranks[am.src_rank]
        peer.body_done = True
        peer.done = True
    world.poke_all()
