"""A distributed hash map, sharded across ranks by key hash.

Design
------
* **Sharding** — :func:`shard_of` maps a key to a *shard id* by a
  stable CRC32: str/bytes/int keys hash their raw bytes directly, other
  types fall back to hashing the pickled key.  The shard id space is
  fixed at construction (one shard per rank); which rank *serves* a
  shard is dynamic — a per-client shard table maps shard -> (primary,
  backup), seeded from the construction rendezvous and repaired on
  redirects, failovers, and refreshes.
* **Owner-side storage** — each rank keeps its hosted shard states in
  scratch space, mutated only by AM handlers (or the host's own local
  fast path) under the rank's handler lock, so every mutation is
  serialized at the shard's primary exactly like the paper's
  owner-queued locks.
* **Primary/backup replication** — with ``replicas=1`` every mutation
  is applied at the primary and synchronously logged to the shard's
  backup (fixed-layout ``kv_repl`` records) *before* the client is
  acked, so an acknowledged write survives the death of either rank.
  Per-shard ``repl_epoch`` numbers fence the protocol: a promoted
  backup bumps its repl_epoch, and a deposed (falsely-suspected)
  primary whose log arrives with a stale repl_epoch is rejected with
  :class:`KvStalePrimary` and drops the shard.
* **Failover** — the reliability layer's failure detector feeds
  :meth:`World.mark_dead`; death subscribers and ``dead_ranks`` checks
  let clients fail over to the backup, which self-promotes on the
  first write it receives for a dead primary's shard (bumping
  repl_epoch + epoch, choosing a new backup, re-replicating, and
  republishing its roles through the Directory).
* **Batched ops** — ``multi_get``/``multi_put`` group keys by serving
  rank and issue **one AM per server**, all in flight concurrently —
  the AM-level analogue of the indexed conduit batching contract;
  coalescing lands in the ``kv_multi_ops``/``kv_batched_keys``
  CommStats counters.
* **Read-through cache + read-from-replica** — with ``cache=True``
  each rank memoizes fetched values per shard.  Every shard keeps one
  ``epoch``, bumped on any mutation (and on promotion/migration) and
  piggybacked on every reply; a client observing a newer epoch drops
  that shard's cached entries.  With ``read_replicas=True`` reads
  also round-robin across primary and backup (and are served from a
  locally-hosted backup copy without touching the wire), riding the
  same epoch invalidation.
* **Exactly-once update()** — read-modify-write travels with a
  per-client op-id; the primary records the result of each applied op
  and **replicates the dedup record with the data**, so a client that
  retries after a lost reply — even against a freshly promoted backup
  or a migrated shard — gets the recorded result back instead of a
  second application.
* **Live rebalancing** — :meth:`DistHashMap.rebalance` migrates a
  shard to a chosen rank: the primary freezes the shard (racing ops
  are redirected), ships a full snapshot *including the in-flight
  exactly-once records*, leaves a redirect tombstone, and tells the
  old backup to drop its stale copy.

Consistency model: relaxed.  A ``get`` may return a stale cached (or
replica) value until the client next contacts the shard's primary;
primary-side operations are linearizable per key.  With ``replicas=1``
every *acknowledged* write survives one rank death.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import time
import zlib
from collections import OrderedDict
from typing import Any, Callable, Iterable, Mapping

from repro.core import collectives
from repro.core.collectives import _copy_value as _copy
from repro.core.directory import Directory
from repro.core.world import RankState, current, try_current
from repro.telemetry import tracing
from repro.errors import CommTimeout, PeerFailure, PgasError, RankDead
from repro.gasnet.am import am_handler
from repro.gasnet.wire import preencode, tagged

_MISSING = object()

#: Owner-side per-map state lives in the rank's scratch space (the same
#: pattern as the distributed work queues).
_SCRATCH_KEY = "kv_maps"

#: Applied-update results each shard retains: the exactly-once dedup
#: window for client-level retries after a lost reply.
APPLIED_WINDOW = 4096

#: Redirect/failover hops a single client op will chase before giving
#: up (each hop re-resolves the shard table, possibly via the
#: Directory; convergence normally takes one or two).
_MAX_HOPS = 64

#: Named read-modify-write ops resolvable at the owner (no pickling of
#: code objects needed).  ``update()`` also accepts any picklable
#: callable ``fn(old, *args) -> new``.
UPDATE_OPS: dict[str, Callable] = {
    "add": lambda old, arg: old + arg,
    "sub": lambda old, arg: old - arg,
    "mul": lambda old, arg: old * arg,
    "max": lambda old, arg: max(old, arg),
    "min": lambda old, arg: min(old, arg),
    "append": lambda old, arg: old + [arg],
}


def shard_of(key: Any, nshards: int) -> int:
    """Shard id of ``key``: a stable CRC32 of the key's bytes.

    Stable across runs (unlike ``hash()``, which is salted for str),
    so layouts — and therefore benchmarks — are reproducible.  The
    common key types hash their raw bytes directly; anything else keeps
    the original pickled-key fallback, so existing placements of
    exotic keys are unchanged.
    """
    t = type(key)
    if t is str:
        raw = key.encode("utf-8")
    elif t is bytes:
        raw = key
    elif t is int:
        raw = key.to_bytes((key.bit_length() + 8) // 8, "little",
                           signed=True)
    else:
        raw = pickle.dumps(key, protocol=4)
    return zlib.crc32(raw) % nshards


def _resolve_update(op) -> Callable:
    if callable(op):
        return op
    try:
        return UPDATE_OPS[op]
    except (KeyError, TypeError):
        raise PgasError(
            f"unknown update op {op!r}; pass a callable or one of "
            f"{sorted(UPDATE_OPS)}"
        ) from None


def _traced(name: str) -> Callable:
    """Open a causal trace root span around a client kv op.

    Every AM the op sends (the request, a replication hop, retries
    after failover) inherits this span's trace id via the wire-frame
    trailer, so the whole chain — including handler spans on other
    ranks and kv_failover/kv_promote flight events — is one trace.
    No-op (one extra call) when telemetry is inactive.
    """

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            ctx = try_current()
            if ctx is None or not ctx.telemetry.active:
                return fn(self, *args, **kwargs)
            with tracing.span(ctx.telemetry, name):
                return fn(self, *args, **kwargs)

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# protocol exceptions (ship by reference in error replies)
# ---------------------------------------------------------------------------

class KvRedirect(PgasError):
    """The contacted rank does not serve this shard (any more); the
    client should retry at ``hint`` (or refresh its shard table)."""

    def __init__(self, sid: int, hint: int | None = None):
        where = f"; try rank {hint}" if hint is not None else ""
        super().__init__(f"shard {sid} is not served here{where}")
        self.sid = sid
        self.hint = hint


class KvStalePrimary(PgasError):
    """A replication log arrived from a deposed primary: the shard was
    promoted elsewhere under a newer repl_epoch."""

    def __init__(self, sid: int, new_primary: int | None = None):
        where = (f"; new primary is rank {new_primary}"
                 if new_primary is not None else "")
        super().__init__(
            f"stale primary for shard {sid}: a newer replica epoch "
            f"exists{where}")
        self.sid = sid
        self.new_primary = new_primary


class KvOwnerDead(PgasError):
    """A kv op addressed a dead rank and the map has no live replica to
    fail over to — names the op, the dead owner, and the keys hit."""

    def __init__(self, op: str, owner: int, keys, original):
        keys = list(keys)
        shown = ", ".join(repr(k)[:32] for k in keys[:8])
        if len(keys) > 8:
            shown += f", ... ({len(keys)} keys total)"
        super().__init__(
            f"{op}: owner rank {owner} is dead and no live replica is "
            f"available; affected keys: [{shown}] ({original})")
        self.owner = owner
        self.keys = keys
        self.original = original


# ---------------------------------------------------------------------------
# owner side: shard state + replication
# ---------------------------------------------------------------------------

def _new_shard(primary: int, backup: int | None, role: str) -> dict:
    return {
        "store": {},                 # key -> value (this copy's truth)
        "epoch": 0,                  # bumped on every mutation
        "applied": OrderedDict(),    # (src, op_id) -> (epoch, value)
        "repl_epoch": 0,             # bumped on promotion/migration
        "role": role,                # "primary" | "backup"
        "primary": primary,
        "backup": backup,
    }


def _map_state(ctx: RankState, map_id: int) -> dict:
    """This rank's view of map ``map_id`` (create on first touch)."""
    tbl = ctx.scratch.setdefault(_SCRATCH_KEY, {})
    st = tbl.get(map_id)
    if st is None:
        st = tbl[map_id] = {
            "nshards": ctx.world.n_ranks,
            "replicas": 0,
            "dir_id": None,
            "shards": {},            # sid -> shard state
            "moved": {},             # sid -> new primary (tombstones)
        }
    return st


def _snapshot(sh: dict, as_primary: bool) -> dict:
    """A full shard snapshot for ``kv_install`` — store, epochs, and
    the exactly-once dedup records (update() retries must keep deduping
    at the shard's new home)."""
    return {
        "store": dict(sh["store"]),
        "applied": [(src, op_id, ep, val)
                    for (src, op_id), (ep, val) in sh["applied"].items()],
        "epoch": sh["epoch"],
        "repl_epoch": sh["repl_epoch"],
        "primary": sh["primary"],
        "backup": sh["backup"],
        "as_primary": as_primary,
    }


def _pick_backup(ctx: RankState, start: int, exclude) -> int | None:
    """Next live rank after ``start`` (cyclic) outside ``exclude``."""
    n = ctx.world.n_ranks
    dead = ctx.world.dead_ranks
    for i in range(1, n):
        r = (start + i) % n
        if r not in dead and r not in exclude:
            return r
    return None


def _roles_of(st: dict) -> tuple:
    """This rank's shard claims for the Directory: one
    ``(sid, is_primary, repl_epoch, epoch, backup)`` tuple per hosted
    shard."""
    roles = []
    for sid, sh in sorted(st["shards"].items()):
        roles.append((sid, 1 if sh["role"] == "primary" else 0,
                      sh["repl_epoch"], sh["epoch"],
                      -1 if sh["backup"] is None else sh["backup"]))
    return tuple(roles)


def _publish_roles(ctx: RankState, map_id: int, st: dict) -> None:
    """Update this rank's Directory slot in place — handlers can't run
    the collective publish path, but the slot is just a scratch entry."""
    if st["dir_id"] is not None:
        ctx.dir_table[st["dir_id"]] = preencode(
            ("DistHashMap", map_id, _roles_of(st)))


def _promote(ctx: RankState, map_id: int, st: dict, sid: int,
             sh: dict) -> None:
    """Backup -> primary: the old primary is dead.  Bump repl_epoch (to
    fence its stale logs) and epoch (to invalidate client caches), pick
    a new backup, re-replicate, republish roles."""
    old = sh["primary"]
    sh["role"] = "primary"
    sh["primary"] = ctx.rank
    sh["repl_epoch"] += 1
    sh["epoch"] += 1
    nb = (_pick_backup(ctx, ctx.rank, {ctx.rank})
          if st["replicas"] else None)
    sh["backup"] = nb
    ctx.stats.add(kv_promotions=1)
    tel = ctx.telemetry
    if tel.active:
        tel.flight_event(
            "kv_promote", src=ctx.rank, dst=old,
            detail=f"shard {sid} repl_epoch={sh['repl_epoch']}",
        )
    _publish_roles(ctx, map_id, st)
    if nb is not None:
        # Fire-and-forget full install: per-(src, dst) FIFO puts it
        # ahead of any later incremental kv_repl records we send to the
        # same backup.
        ctx.send_am(nb, "kv_install", args=(map_id, sid),
                    payload=_snapshot(sh, as_primary=False))


def _replicate(ctx: RankState, map_id: int, st: dict, sid: int,
               sh: dict, records: list) -> None:
    """Synchronously log ``records`` to the shard's backup before the
    caller acks the client.  A dead backup is replaced with a blocking
    full install (which already contains the new mutations); a
    KvStalePrimary rejection means *we* were deposed — drop the shard,
    tombstone, and re-raise so the client retries at the new primary."""
    if not st["replicas"]:
        return
    guard = 0
    while True:
        if ctx.rank in ctx.world.dead_ranks:
            # We were declared dead (e.g. partitioned) mid-replication:
            # stop acting as primary — repl_epoch fencing makes any
            # promoted backup reject our stale log anyway.
            raise RankDead(
                f"rank {ctx.rank} declared dead while replicating "
                f"shard {sid}"
            )
        guard += 1
        if guard > 2 * ctx.world.n_ranks + 2:
            sh["backup"] = None  # churn exhausted every candidate
            return
        backup = sh["backup"]
        if backup is None or backup == ctx.rank \
                or backup in ctx.world.dead_ranks:
            nb = _pick_backup(ctx, ctx.rank, {ctx.rank})
            sh["backup"] = nb
            if nb is None:
                return  # sole survivor: nothing to replicate onto
            fut = ctx.send_am(nb, "kv_install", args=(map_id, sid),
                              payload=_snapshot(sh, as_primary=False),
                              expect_reply=True)
            try:
                fut.get()
            except (RankDead, PeerFailure):
                sh["backup"] = None
                continue
            _publish_roles(ctx, map_id, st)
            return  # the install already carries the new records
        fut = ctx.send_am(backup, "kv_repl",
                          args=(map_id, sid, sh["repl_epoch"]),
                          payload=records, expect_reply=True)
        ctx.stats.add(kv_repl_records=len(records))
        try:
            fut.get()
            return
        except (RankDead, PeerFailure):
            sh["backup"] = None
            continue
        except KvStalePrimary as exc:
            st["shards"].pop(sid, None)
            st["moved"][sid] = (exc.new_primary
                                if exc.new_primary is not None else backup)
            _publish_roles(ctx, map_id, st)
            raise


def _get_state_shard(ctx: RankState, map_id: int, sid: int,
                     write: bool) -> tuple[dict, dict]:
    """Resolve a request to a hosted shard, or raise the protocol
    exception that repairs the client's table.  A write reaching a
    backup whose primary is dead triggers promotion right here — that
    is the automatic-failover moment."""
    st = _map_state(ctx, map_id)
    sh = st["shards"].get(sid)
    if sh is None:
        raise KvRedirect(sid, st["moved"].get(sid))
    if "moving_to" in sh:
        raise KvRedirect(sid, sh["moving_to"])
    if sh["role"] != "primary":
        if write:
            if sh["primary"] in ctx.world.dead_ranks:
                _promote(ctx, map_id, st, sid, sh)
            else:
                raise KvRedirect(sid, sh["primary"])
        else:
            ctx.stats.add(kv_replica_reads=1)
    return st, sh


def _apply_put(sh: dict, items: dict) -> int:
    sh["store"].update(items)
    sh["epoch"] += 1
    return sh["epoch"]


def _apply_delete(sh: dict, keys: list) -> tuple[int, int]:
    store = sh["store"]
    n = 0
    for k in keys:
        if k in store:
            del store[k]
            n += 1
    if n:
        sh["epoch"] += 1
    return sh["epoch"], n


def _record_applied(sh: dict, dedup: tuple, rec: tuple) -> None:
    applied = sh["applied"]
    applied[dedup] = rec
    while len(applied) > APPLIED_WINDOW:
        applied.popitem(last=False)


def _apply_update(sh: dict, src: int, op_id: int, key: Any,
                  fn: Callable, args: tuple, default: Any,
                  has_default: bool) -> tuple[int, Any, bool]:
    """Apply ``fn(old, *args)``, exactly once per (src, op_id): a
    duplicate (client retry after a lost reply — possibly landing on a
    promoted backup) gets the recorded result back without
    re-applying.  Returns (epoch, new, freshly_applied)."""
    dedup = (src, op_id)
    hit = sh["applied"].get(dedup)
    if hit is not None:
        return hit[0], hit[1], False
    store = sh["store"]
    if key in store:
        old = store[key]
    elif has_default:
        old = default
    else:
        raise KeyError(key)
    new = fn(old, *args)
    store[key] = new
    sh["epoch"] += 1
    rec = (sh["epoch"], new)
    _record_applied(sh, dedup, rec)
    return rec[0], rec[1], True


# ---------------------------------------------------------------------------
# AM handlers
# ---------------------------------------------------------------------------
# Request args are ``(map_id, sid, ...)``; ``sid == -1`` marks a
# batched request whose keys the server groups by shard itself.  Reply
# args lead with per-shard epoch pairs — ``(k, sid0, ep0, ..., extra)``
# — so clients invalidate caches at shard granularity.  Payloads travel
# through the fixed-layout codecs (kv_items/kv_keys/kv_found/kv_repl/
# kv_state) bound in the wire registry.

@am_handler("kv_put")
def _kv_put_handler(ctx: RankState, am) -> None:
    map_id, sid = am.args
    items = am.payload
    if sid >= 0:
        groups = {sid: items}
    else:
        nshards = _map_state(ctx, map_id)["nshards"]
        groups = {}
        for k, v in items.items():
            groups.setdefault(shard_of(k, nshards), {})[k] = v
    pairs = []
    for s in sorted(groups):
        chunk = groups[s]
        st, sh = _get_state_shard(ctx, map_id, s, write=True)
        epoch = _apply_put(sh, chunk)
        _replicate(ctx, map_id, st, s, sh, [("put", chunk, epoch)])
        pairs += (s, epoch)
    ctx.reply(am, args=(len(groups), *pairs))


@am_handler("kv_get")
def _kv_get_handler(ctx: RankState, am) -> None:
    map_id, sid = am.args
    keys = am.payload
    found = []
    epochs: dict[int, int] = {}
    if sid >= 0:
        _st, sh = _get_state_shard(ctx, map_id, sid, write=False)
        store = sh["store"]
        found = [(True, store[k]) if k in store else (False, None)
                 for k in keys]
        epochs[sid] = sh["epoch"]
    else:
        nshards = _map_state(ctx, map_id)["nshards"]
        for k in keys:
            s = shard_of(k, nshards)
            _st, sh = _get_state_shard(ctx, map_id, s, write=False)
            store = sh["store"]
            found.append((True, store[k]) if k in store else (False, None))
            epochs[s] = sh["epoch"]
    pairs = []
    for s in sorted(epochs):
        pairs += (s, epochs[s])
    ctx.reply(am, args=(len(epochs), *pairs),
              payload=tagged("kv_found", found))


@am_handler("kv_del")
def _kv_del_handler(ctx: RankState, am) -> None:
    map_id, sid = am.args
    keys = am.payload
    if sid >= 0:
        groups = {sid: keys}
    else:
        nshards = _map_state(ctx, map_id)["nshards"]
        groups = {}
        for k in keys:
            groups.setdefault(shard_of(k, nshards), []).append(k)
    pairs = []
    total = 0
    for s in sorted(groups):
        st, sh = _get_state_shard(ctx, map_id, s, write=True)
        epoch, n = _apply_delete(sh, groups[s])
        total += n
        if n:
            _replicate(ctx, map_id, st, s, sh,
                       [("del", groups[s], epoch)])
        pairs += (s, epoch)
    ctx.reply(am, args=(len(groups), *pairs, total))


@am_handler("kv_update")
def _kv_update_handler(ctx: RankState, am) -> None:
    map_id, sid, op_id = am.args
    key, op, fargs, default, has_default = am.payload
    st, sh = _get_state_shard(ctx, map_id, sid, write=True)
    epoch, new, fresh = _apply_update(
        sh, am.src_rank, op_id, key, _resolve_update(op), fargs,
        default, has_default,
    )
    if fresh:
        # The dedup record rides with the data: a retry that lands on
        # the promoted backup still replays the recorded result.
        _replicate(ctx, map_id, st, sid, sh,
                   [("upd", key, new, am.src_rank, op_id, epoch)])
    ctx.reply(am, args=(1, sid, epoch), payload=new)


@am_handler("kv_repl")
def _kv_repl_handler(ctx: RankState, am) -> None:
    """Backup side of the replication log.  Rejects stale primaries by
    repl_epoch; otherwise replays the records into the local copy."""
    map_id, sid, repl_epoch = am.args
    st = _map_state(ctx, map_id)
    sh = st["shards"].get(sid)
    if sh is None:
        raise KvStalePrimary(sid, st["moved"].get(sid))
    if repl_epoch < sh["repl_epoch"]:
        raise KvStalePrimary(
            sid, ctx.rank if sh["role"] == "primary" else sh["primary"])
    store = sh["store"]
    for rec in am.payload:
        kind = rec[0]
        if kind == "put":
            store.update(rec[1])
            sh["epoch"] = max(sh["epoch"], rec[2])
        elif kind == "del":
            for k in rec[1]:
                store.pop(k, None)
            sh["epoch"] = max(sh["epoch"], rec[2])
        else:  # ("upd", key, value, src, op_id, epoch)
            _, key, value, src, op_id, epoch = rec
            store[key] = value
            _record_applied(sh, (src, op_id), (epoch, value))
            sh["epoch"] = max(sh["epoch"], epoch)
    ctx.reply(am, args=(sh["repl_epoch"],))


@am_handler("kv_install")
def _kv_install_handler(ctx: RankState, am) -> None:
    """Install a full shard snapshot: re-replication onto a new backup,
    or (``as_primary``) the receiving half of a live migration."""
    map_id, sid = am.args
    state = am.payload
    st = _map_state(ctx, map_id)
    cur = st["shards"].get(sid)
    if cur is not None and cur["repl_epoch"] > state["repl_epoch"]:
        # A stale install (an old primary racing a newer promotion).
        if am.token is not None:
            ctx.reply(am, args=(0, sid, cur["epoch"]))
        return
    applied: OrderedDict = OrderedDict()
    for src, op_id, ep, val in state["applied"]:
        applied[(src, op_id)] = (ep, val)
    as_primary = state["as_primary"]
    sh = {
        "store": state["store"],
        "epoch": state["epoch"],
        "applied": applied,
        "repl_epoch": state["repl_epoch"],
        "role": "primary" if as_primary else "backup",
        "primary": ctx.rank if as_primary else state["primary"],
        "backup": state["backup"],
    }
    st["shards"][sid] = sh
    st["moved"].pop(sid, None)
    if as_primary:
        # Migration target: fresh epoch (invalidate caches), new
        # backup, re-replicate, announce.
        sh["epoch"] += 1
        nb = (_pick_backup(ctx, ctx.rank, {ctx.rank})
              if st["replicas"] else None)
        sh["backup"] = nb
        if nb is not None:
            ctx.send_am(nb, "kv_install", args=(map_id, sid),
                        payload=_snapshot(sh, as_primary=False))
    _publish_roles(ctx, map_id, st)
    if am.token is not None:
        ctx.reply(am, args=(1, sid, sh["epoch"]))


@am_handler("kv_migrate")
def _kv_migrate_handler(ctx: RankState, am) -> None:
    """Primary side of rebalance(): freeze, ship, tombstone."""
    map_id, sid, to = am.args
    st, sh = _get_state_shard(ctx, map_id, sid, write=True)
    if to == ctx.rank:
        ctx.reply(am, args=(1, sid, sh["epoch"]))
        return
    if to in ctx.world.dead_ranks:
        raise PgasError(f"rebalance: target rank {to} is dead")
    # Freeze: ops racing the migration are redirected at `to` (the
    # install below precedes their arrival there — tiny retry window
    # covered by the client's redirect chase).
    sh["moving_to"] = to
    try:
        state = _snapshot(sh, as_primary=True)
        state["repl_epoch"] = sh["repl_epoch"] + 1
        fut = ctx.send_am(to, "kv_install", args=(map_id, sid),
                          payload=state, expect_reply=True)
        fut.get()
    except BaseException:
        del sh["moving_to"]  # unfreeze; we still own the shard
        raise
    old_backup = sh["backup"]
    new_re = sh["repl_epoch"] + 1
    st["shards"].pop(sid, None)
    st["moved"][sid] = to
    ctx.stats.add(kv_migrations=1)
    if ctx.telemetry.active:
        ctx.telemetry.flight_event(
            "kv_migrate", src=ctx.rank, dst=to, detail=f"shard {sid}")
    _publish_roles(ctx, map_id, st)
    if old_backup is not None and old_backup != to \
            and old_backup not in ctx.world.dead_ranks:
        ctx.send_am(old_backup, "kv_drop",
                    args=(map_id, sid, new_re, to))
    ctx.reply(am, args=(1, sid, 0))


@am_handler("kv_drop")
def _kv_drop_handler(ctx: RankState, am) -> None:
    """Drop a stale (pre-migration) shard copy, repl_epoch-guarded."""
    map_id, sid, repl_epoch, new_primary = am.args
    st = _map_state(ctx, map_id)
    sh = st["shards"].get(sid)
    if sh is not None and sh["repl_epoch"] < repl_epoch:
        st["shards"].pop(sid, None)
        st["moved"][sid] = new_primary
        _publish_roles(ctx, map_id, st)


@am_handler("kv_epoch")
def _kv_epoch_handler(ctx: RankState, am) -> None:
    map_id, sid = am.args
    st = _map_state(ctx, map_id)
    if sid >= 0:
        sh = st["shards"].get(sid)
        if sh is None:
            raise KvRedirect(sid, st["moved"].get(sid))
        ctx.reply(am, args=(1, sid, sh["epoch"]))
        return
    pairs = []
    n = 0
    for s, sh in sorted(st["shards"].items()):
        if sh["role"] == "primary" and "moving_to" not in sh:
            pairs += (s, sh["epoch"])
            n += 1
    ctx.reply(am, args=(n, *pairs))


@am_handler("kv_size")
def _kv_size_handler(ctx: RankState, am) -> None:
    (map_id,) = am.args
    st = _map_state(ctx, map_id)
    total = sum(len(sh["store"]) for sh in st["shards"].values()
                if sh["role"] == "primary" and "moving_to" not in sh)
    ctx.reply(am, args=(total,))


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------

class DistHashMap:
    """Hash-sharded distributed map; collective constructor.

    >>> m = DistHashMap(replicas=1)  # on every rank
    >>> m.put("user:1", {"n": 1})    # primary + synchronous backup log
    >>> m.multi_get(keys)            # one AM per serving rank

    Parameters
    ----------
    cache:
        Enable the per-rank read-through cache (epoch-invalidated).
    retry_attempts:
        Client-level retries of an op whose reply timed out (only
        reachable under a reliability layer with per-op deadlines).
        ``update`` stays exactly-once across retries via owner-side
        op-id dedup; put/delete are idempotent.
    replicas:
        0 (default) for the classic single-copy map; 1 to log every
        mutation synchronously to a backup rank before acking, making
        acknowledged writes survive one rank death (ignored at 1 rank).
    read_replicas:
        Round-robin reads across primary and backup (and serve reads
        from a locally-hosted backup copy without an AM) — spreads a
        hot shard's read load over two ranks at the cost of slightly
        staler reads.  Requires ``replicas=1``.
    """

    def __init__(self, cache: bool = True, retry_attempts: int = 4,
                 replicas: int = 0, read_replicas: bool = False):
        if replicas not in (0, 1):
            raise PgasError("only replicas=0 or replicas=1 is supported")
        ctx = current()
        mid = next(ctx.world._dir_ids) if ctx.rank == 0 else None
        self.map_id = collectives.bcast(mid, root=0)
        self.nranks = ctx.world.n_ranks
        self.nshards = self.nranks
        self.replicas = replicas if self.nranks > 1 else 0
        self.read_replicas = bool(read_replicas) and self.replicas > 0
        self.retry_attempts = max(1, int(retry_attempts))
        self._op_seq = itertools.count(1)
        self._rr = 0
        self._cache_enabled = bool(cache)
        self._cache: dict[int, dict] = {s: {} for s in range(self.nshards)}
        self.cache_hits = 0
        self.cache_misses = 0
        self.failovers = 0
        self.failover_latencies: list[float] = []
        self._pending_deaths: list[int] = []
        self._dir = Directory()
        with ctx._handler_lock:
            st = _map_state(ctx, self.map_id)
            st["nshards"] = self.nshards
            st["replicas"] = self.replicas
            st["dir_id"] = self._dir.dir_id
            me = ctx.rank
            if me not in st["shards"]:
                st["shards"][me] = _new_shard(
                    primary=me,
                    backup=((me + 1) % self.nranks)
                    if self.replicas else None,
                    role="primary")
            if self.replicas:
                p = (me - 1) % self.nranks
                if p != me and p not in st["shards"]:
                    st["shards"][p] = _new_shard(
                        primary=p, backup=me, role="backup")
            roles = _roles_of(st)
        # Construction rendezvous: publish (type, id, roles) and fetch
        # every rank's slot with one concurrent lookup_all.  Catches
        # misordered collective construction (rank A built a map where
        # rank B built a queue — the id bcasts would silently cross)
        # and seeds the shard table + per-shard epoch view.
        self._dir.publish(("DistHashMap", self.map_id, roles))
        collectives.barrier()
        infos = self._dir.lookup_all(cached=False)
        for r, info in enumerate(infos):
            kind, mid_r = info[0], info[1]
            if kind != "DistHashMap" or mid_r != self.map_id:
                raise PgasError(
                    f"rank {r} constructed {kind}#{mid_r} where this rank "
                    f"constructed DistHashMap#{self.map_id}; collective "
                    f"constructors must run in the same order on all ranks"
                )
        self._table: dict[int, tuple[int, int | None]] = {}
        self._epochs: dict[int, int] = {}
        self._ingest_roles(infos)
        for sid in range(self.nshards):
            self._table.setdefault(
                sid, (sid % self.nranks,
                      ((sid + 1) % self.nranks) if self.replicas
                      else None))
        # Failure-notification hook: deaths recorded by the runtime /
        # reliability detector flip this client's table at its next op.
        ctx.world.on_rank_death(self._on_rank_death)

    # -- plumbing ----------------------------------------------------------
    def shard_of_key(self, key: Any) -> int:
        return shard_of(key, self.nshards)

    def owner_of(self, key: Any) -> int:
        """The rank currently serving ``key``'s shard as primary (per
        this client's shard table)."""
        sid = shard_of(key, self.nshards)
        return self._table.get(sid, (sid % self.nranks, None))[0]

    def _on_rank_death(self, rank: int, exc: BaseException) -> None:
        # Runs on the failure detector's thread: just enqueue; the
        # table flip happens on the owning rank's own thread at its
        # next map operation.
        self._pending_deaths.append(rank)

    def _drain_deaths(self) -> None:
        while self._pending_deaths:
            r = self._pending_deaths.pop()
            for sid, (p, b) in list(self._table.items()):
                if p == r and b is not None and b != r:
                    self._table[sid] = (b, None)
                elif b == r:
                    self._table[sid] = (p, None)

    def _note_epoch(self, sid: int, epoch: int) -> None:
        """Piggybacked epoch from a reply: a newer value invalidates
        everything cached from that shard."""
        if epoch > self._epochs.get(sid, -1):
            self._epochs[sid] = epoch
            if self._cache_enabled:
                self._cache[sid].clear()

    def _note_reply(self, args: tuple) -> tuple:
        """Parse a ``(k, sid0, ep0, ...)`` reply header; returns the
        trailing extras (e.g. kv_del's deleted-count)."""
        k = args[0]
        for i in range(k):
            self._note_epoch(args[1 + 2 * i], args[2 + 2 * i])
        return args[1 + 2 * k:]

    def _ingest_roles(self, infos) -> None:
        """Fold published role claims into the shard table: per shard,
        the primary claim with the highest repl_epoch wins."""
        best: dict[int, tuple] = {}
        for r, info in enumerate(infos):
            if not info:
                continue
            for sid, is_primary, repl_epoch, epoch, backup in info[2]:
                if not is_primary:
                    continue
                cur = best.get(sid)
                if cur is None or repl_epoch > cur[0]:
                    best[sid] = (repl_epoch, r,
                                 None if backup < 0 else backup, epoch)
        for sid, (_re, prim, backup, epoch) in best.items():
            self._table[sid] = (prim, backup if backup != prim else None)
            self._note_epoch(sid, epoch)

    def _refresh_table(self, ctx: RankState) -> None:
        """Re-read live ranks' Directory slots and rebuild the shard
        table (the post-promotion client repair path)."""
        dead = ctx.world.dead_ranks
        futs = {}
        for r in range(self.nranks):
            if r == ctx.rank or r in dead:
                continue
            futs[r] = ctx.send_am(r, "dir_get",
                                  args=(self._dir.dir_id,),
                                  expect_reply=True)
        infos: list = [None] * self.nranks
        infos[ctx.rank] = self._dir.lookup(ctx.rank, cached=False)
        for r, fut in futs.items():
            try:
                _args, obj = fut.get()
            except (RankDead, PeerFailure, CommTimeout):
                continue
            infos[r] = obj
        self._ingest_roles(infos)

    def _failover(self, ctx: RankState, sid: int, dead_rank: int,
                  what: str, t_fail: float | None) -> float:
        """Repoint ``sid`` away from ``dead_rank``; starts the failover
        clock and counters on the first call of an op."""
        if t_fail is None:
            t_fail = time.perf_counter()
            ctx.stats.add(kv_failovers=1)
            self.failovers += 1
            if ctx.telemetry.active:
                ctx.telemetry.flight_event(
                    "kv_failover_start", src=ctx.rank, dst=dead_rank,
                    detail=f"{what} shard {sid}",
                )
        primary, backup = self._table.get(
            sid, (sid % self.nranks, None))
        dead = ctx.world.dead_ranks
        if primary == dead_rank and backup is not None \
                and backup not in dead:
            self._table[sid] = (backup, None)
        elif backup == dead_rank:
            self._table[sid] = (primary, None)
        else:
            ctx.advance()
            self._refresh_table(ctx)
        return t_fail

    def _end_failover(self, ctx: RankState, t_fail: float | None,
                      what: str) -> None:
        if t_fail is None:
            return
        dt = time.perf_counter() - t_fail
        self.failover_latencies.append(dt)
        tel = ctx.telemetry
        if tel.full:
            tel.record_latency("kv_failover", dt)
        if tel.active:
            tel.flight_event(
                "kv_failover", src=ctx.rank, dst=-1,
                detail=f"{what} recovered in {dt * 1e6:.0f}us",
            )

    def _follow_redirect(self, ctx: RankState, exc) -> None:
        hint = getattr(exc, "hint", None)
        if hint is None:
            hint = getattr(exc, "new_primary", None)
        sid = exc.sid
        if hint is not None and hint not in ctx.world.dead_ranks:
            _p, b = self._table.get(sid, (None, None))
            self._table[sid] = (hint, b if b != hint else None)
        else:
            ctx.advance()
            self._refresh_table(ctx)

    def _shard_request(self, ctx: RankState, sid: int, handler: str,
                       extra_args: tuple, payload, what: str,
                       keys: list, read: bool = False):
        """One shard-targeted request with bounded retry, redirect
        chasing, and (with replication) client-side failover."""
        tel = ctx.telemetry
        attempt = 0
        hops = 0
        t_fail = None
        while True:
            self._drain_deaths()
            primary, backup = self._table.get(
                sid, (sid % self.nranks, None))
            dead = ctx.world.dead_ranks
            target = primary
            if read and self.read_replicas and backup is not None \
                    and backup not in dead:
                self._rr += 1
                if self._rr & 1:
                    target = backup
            if target in dead:
                if not self.replicas:
                    raise KvOwnerDead(
                        what, target, keys,
                        RankDead(f"rank {target} is dead"))
                t_fail = self._failover(ctx, sid, target, what, t_fail)
                hops += 1
                if hops > _MAX_HOPS:
                    raise KvOwnerDead(
                        what, target, keys,
                        RankDead(f"no live replica found for shard "
                                 f"{sid} after {hops} attempts"))
                continue
            fut = ctx.send_am(target, handler,
                              args=(self.map_id, sid, *extra_args),
                              payload=payload, expect_reply=True)
            try:
                reply_args, reply_payload = fut.get()
            except CommTimeout:
                attempt += 1
                if attempt >= self.retry_attempts:
                    raise
                tel.flight_event(
                    "kv_retry", src=ctx.rank, dst=target, detail=what,
                )
                continue
            except (RankDead, PeerFailure) as exc:
                if not self.replicas:
                    raise KvOwnerDead(what, target, keys, exc) from exc
                t_fail = self._failover(ctx, sid, target, what, t_fail)
                hops += 1
                if hops > _MAX_HOPS:
                    raise KvOwnerDead(what, target, keys, exc) from exc
                continue
            except (KvRedirect, KvStalePrimary) as exc:
                hops += 1
                if hops > _MAX_HOPS:
                    raise
                self._follow_redirect(ctx, exc)
                continue
            self._end_failover(ctx, t_fail, what)
            return reply_args, reply_payload

    def _local_primary(self, ctx: RankState,
                       sid: int) -> tuple[dict, dict] | None:
        """This rank's primary copy of ``sid`` (None if not hosted /
        not primary / mid-migration).  Caller must re-check under the
        handler lock before mutating."""
        st = _map_state(ctx, self.map_id)
        sh = st["shards"].get(sid)
        if sh is not None and sh["role"] == "primary" \
                and "moving_to" not in sh:
            return st, sh
        return None

    # -- point ops ---------------------------------------------------------
    @_traced("kv_put")
    def put(self, key: Any, value: Any) -> None:
        """Store ``key -> value`` at its shard's primary (last writer
        wins); with ``replicas=1`` the write is also logged to the
        backup before this call returns."""
        ctx = current()
        tel = ctx.telemetry
        t0 = time.perf_counter() if tel.full else 0.0
        sid = shard_of(key, self.nshards)
        self._drain_deaths()
        ctx.stats.add(kv_puts=1)
        if self._local_primary(ctx, sid) is not None:
            try:
                with ctx._handler_lock:
                    hit = self._local_primary(ctx, sid)
                    if hit is not None:
                        st, sh = hit
                        epoch = _apply_put(sh, {key: _copy(value)})
                        _replicate(ctx, self.map_id, st, sid, sh,
                                   [("put", {key: value}, epoch)])
                        ctx.stats.add(local_accesses=1)
                        self._note_epoch(sid, epoch)
                        if tel.full:
                            tel.record_latency(
                                "kv_put", time.perf_counter() - t0)
                        return
            except KvStalePrimary:
                pass  # deposed under us: fall through to the wire path
        if tel.active:
            tel.flight_event("kv_put", src=ctx.rank,
                             dst=self._table.get(sid, (sid, None))[0],
                             detail=repr(key)[:48])
        args, _pl = self._shard_request(
            ctx, sid, "kv_put", (), {key: value},
            what=f"kv_put({key!r})", keys=[key],
        )
        self._note_reply(args)
        if self._cache_enabled:
            self._cache[sid][key] = _copy(value)  # write-through
        if tel.full:
            tel.record_latency("kv_put", time.perf_counter() - t0)

    @_traced("kv_get")
    def get(self, key: Any, default: Any = _MISSING) -> Any:
        """Fetch ``key`` (cache first); KeyError unless ``default``."""
        ctx = current()
        tel = ctx.telemetry
        t0 = time.perf_counter() if tel.full else 0.0
        sid = shard_of(key, self.nshards)
        ctx.stats.add(kv_gets=1)
        self._drain_deaths()
        # Local fast path: a hosted primary — or, with read_replicas, a
        # hosted backup copy — serves the read without touching the
        # wire.
        st = _map_state(ctx, self.map_id)
        sh = st["shards"].get(sid)
        if sh is not None and "moving_to" not in sh \
                and (sh["role"] == "primary" or self.read_replicas):
            with ctx._handler_lock:
                sh = st["shards"].get(sid)
                if sh is not None and "moving_to" not in sh \
                        and (sh["role"] == "primary"
                             or self.read_replicas):
                    present = key in sh["store"]
                    val = _copy(sh["store"][key]) if present else None
                    ctx.stats.add(local_accesses=1, kv_replica_reads=int(
                        sh["role"] != "primary"))
                    if tel.full:
                        tel.record_latency(
                            "kv_get", time.perf_counter() - t0)
                    if present:
                        return val
                    if default is not _MISSING:
                        return default
                    raise KeyError(key)
        if self._cache_enabled:
            cached = self._cache[sid]
            if key in cached:
                self.cache_hits += 1
                ctx.stats.add(kv_cache_hits=1)
                if tel.full:
                    tel.record_latency("kv_get",
                                       time.perf_counter() - t0)
                # Copy on the way out: gets hand back private values
                # everywhere, so a caller mutating its result can never
                # corrupt the cache (or, via the SMP by-reference
                # conduit, the owner's store).
                return _copy(cached[key])
            self.cache_misses += 1
            ctx.stats.add(kv_cache_misses=1)
        if tel.active:
            tel.flight_event("kv_get", src=ctx.rank,
                             dst=self._table.get(sid, (sid, None))[0],
                             detail=repr(key)[:48])
        args, payload = self._shard_request(
            ctx, sid, "kv_get", (), [key],
            what=f"kv_get({key!r})", keys=[key], read=True,
        )
        [(found, val)] = payload
        self._note_reply(args)
        if found and self._cache_enabled:
            self._cache[sid][key] = val
            val = _copy(val)  # the cached object stays private
        if tel.full:
            tel.record_latency("kv_get", time.perf_counter() - t0)
        if found:
            return val
        if default is not _MISSING:
            return default
        raise KeyError(key)

    @_traced("kv_del")
    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns whether it was present."""
        ctx = current()
        sid = shard_of(key, self.nshards)
        self._drain_deaths()
        ctx.stats.add(kv_deletes=1)
        if self._local_primary(ctx, sid) is not None:
            try:
                with ctx._handler_lock:
                    hit = self._local_primary(ctx, sid)
                    if hit is not None:
                        st, sh = hit
                        epoch, n = _apply_delete(sh, [key])
                        if n:
                            _replicate(ctx, self.map_id, st, sid, sh,
                                       [("del", [key], epoch)])
                        ctx.stats.add(local_accesses=1)
                        self._note_epoch(sid, epoch)
                        return n > 0
            except KvStalePrimary:
                pass
        if ctx.telemetry.active:
            ctx.telemetry.flight_event(
                "kv_del", src=ctx.rank,
                dst=self._table.get(sid, (sid, None))[0],
                detail=repr(key)[:48],
            )
        args, _pl = self._shard_request(
            ctx, sid, "kv_del", (), [key],
            what=f"kv_del({key!r})", keys=[key],
        )
        (n,) = self._note_reply(args)
        return n > 0

    @_traced("kv_update")
    def update(self, key: Any, op, *args, default: Any = _MISSING) -> Any:
        """Atomic read-modify-write at the primary; returns the new
        value.

        ``op`` is a name from :data:`UPDATE_OPS` or a picklable callable
        ``fn(old, *args) -> new``.  ``default`` seeds a missing key.
        Exactly-once even when the reply is lost and the call retries —
        including a retry that lands on a freshly promoted backup: the
        dedup record replicates with the data, so the new primary
        replays the recorded result instead of re-applying.
        """
        ctx = current()
        tel = ctx.telemetry
        t0 = time.perf_counter() if tel.full else 0.0
        sid = shard_of(key, self.nshards)
        op_id = next(self._op_seq)
        has_default = default is not _MISSING
        self._drain_deaths()
        ctx.stats.add(kv_updates=1)
        if self._local_primary(ctx, sid) is not None:
            try:
                with ctx._handler_lock:
                    hit = self._local_primary(ctx, sid)
                    if hit is not None:
                        st, sh = hit
                        epoch, new, fresh = _apply_update(
                            sh, ctx.rank, op_id, key,
                            _resolve_update(op),
                            tuple(_copy(a) for a in args),
                            _copy(default) if has_default else None,
                            has_default,
                        )
                        if fresh:
                            _replicate(
                                ctx, self.map_id, st, sid, sh,
                                [("upd", key, new, ctx.rank, op_id,
                                  epoch)])
                        new = _copy(new)
                        ctx.stats.add(local_accesses=1)
                        self._note_epoch(sid, epoch)
                        if tel.full:
                            tel.record_latency(
                                "kv_put", time.perf_counter() - t0)
                        return new
            except KvStalePrimary:
                pass
        _resolve_update(op)  # fail fast on a bogus name
        if tel.active:
            tel.flight_event("kv_update", src=ctx.rank,
                             dst=self._table.get(sid, (sid, None))[0],
                             detail=repr(key)[:48])
        payload = (key, op, args, default if has_default else None,
                   has_default)
        rargs, new = self._shard_request(
            ctx, sid, "kv_update", (op_id,), payload,
            what=f"kv_update({key!r})#op{op_id}", keys=[key],
        )
        self._note_reply(rargs)
        if self._cache_enabled:
            self._cache[sid][key] = _copy(new)
        if tel.full:
            tel.record_latency("kv_put", time.perf_counter() - t0)
        return new

    # -- batched ops -------------------------------------------------------
    def _group_by_target(self, ctx: RankState, keys) -> dict[int, list]:
        """Group keys by the rank currently serving their shard (the
        failover-aware replacement for group-by-owner)."""
        dead = ctx.world.dead_ranks
        groups: dict[int, list] = {}
        for k in keys:
            sid = shard_of(k, self.nshards)
            primary, backup = self._table.get(
                sid, (sid % self.nranks, None))
            target = primary
            if target in dead and self.replicas and backup is not None \
                    and backup not in dead:
                target = backup
            groups.setdefault(target, []).append(k)
        return groups

    def _multi_fail(self, ctx: RankState, op: str, target: int,
                    ks: list, exc, t_fail, hops: int):
        """Shared RankDead/PeerFailure handling for the batched ops:
        fail fast (with the kv diagnostic) when unreplicated, otherwise
        repoint every affected shard and signal a retry."""
        if not self.replicas:
            raise KvOwnerDead(op, target, ks, exc) from exc
        if hops > _MAX_HOPS:
            raise KvOwnerDead(op, target, ks, exc) from exc
        for sid in {shard_of(k, self.nshards) for k in ks}:
            t_fail = self._failover(ctx, sid, target, op, t_fail)
        return t_fail

    @_traced("kv_multi_get")
    def multi_get(self, keys: Iterable[Any],
                  default: Any = _MISSING) -> list:
        """Fetch many keys with **one AM per serving rank**, issued
        concurrently; returns values aligned with ``keys``.

        Cache hits and locally-hosted keys never touch the wire; only
        the remaining misses are coalesced.  KeyError on any missing
        key unless ``default`` is given.  If a serving rank dies
        mid-op: with replication the affected keys retry against the
        promoted backup; without it the op fails fast with a
        diagnostic naming the dead owner and the keys it held.
        """
        keys = list(keys)
        if not keys:
            return []
        ctx = current()
        tel = ctx.telemetry
        t0 = time.perf_counter() if tel.full else 0.0
        self._drain_deaths()
        out: list = [_MISSING] * len(keys)
        missing: list = []
        key_pos: dict[Any, list[int]] = {}
        st = _map_state(ctx, self.map_id)
        for pos, k in enumerate(keys):
            sid = shard_of(k, self.nshards)
            sh = st["shards"].get(sid)
            if sh is not None and "moving_to" not in sh \
                    and (sh["role"] == "primary" or self.read_replicas):
                with ctx._handler_lock:
                    present = k in sh["store"]
                    val = _copy(sh["store"][k]) if present else None
                ctx.stats.add(local_accesses=1, kv_replica_reads=int(
                    sh["role"] != "primary"))
                if present:
                    out[pos] = val
                else:
                    missing.append(k)
                    out[pos] = None if default is _MISSING else default
                continue
            if self._cache_enabled and k in self._cache[sid]:
                self.cache_hits += 1
                ctx.stats.add(kv_cache_hits=1)
                out[pos] = _copy(self._cache[sid][k])
                continue
            if self._cache_enabled:
                self.cache_misses += 1
                ctx.stats.add(kv_cache_misses=1)
            key_pos.setdefault(k, []).append(pos)
        ctx.stats.add(kv_gets=len(keys))
        pending = list(key_pos)
        first_round = True
        attempt = 0
        hops = 0
        t_fail = None
        while pending:
            groups = self._group_by_target(ctx, pending)
            if first_round:
                first_round = False
                ctx.stats.add(kv_multi_ops=len(groups),
                              kv_batched_keys=len(pending))
                if tel.active:
                    tel.flight_event(
                        "kv_multi_get", src=ctx.rank, dst=-1,
                        detail=(f"{len(pending)} keys -> "
                                f"{len(groups)} servers"),
                    )
            dead = ctx.world.dead_ranks
            # Issue every server's AM before gathering any reply — the
            # round trips overlap instead of serializing.
            futs = {
                t: ctx.send_am(t, "kv_get", args=(self.map_id, -1),
                               payload=ks, expect_reply=True)
                for t, ks in groups.items() if t not in dead
            }
            next_pending: list = []
            for t, ks in groups.items():
                fut = futs.get(t)
                if fut is None:  # dead before send, no live fallback
                    hops += 1
                    t_fail = self._multi_fail(
                        ctx, "multi_get", t, ks,
                        RankDead(f"rank {t} is dead"), t_fail, hops)
                    next_pending += ks
                    continue
                try:
                    rargs, payload = fut.get()
                except CommTimeout:
                    attempt += 1
                    if attempt >= self.retry_attempts:
                        raise CommTimeout(
                            f"multi_get: rank {t} unreachable after "
                            f"{attempt} attempts ({len(ks)} keys)")
                    next_pending += ks
                    continue
                except (RankDead, PeerFailure) as exc:
                    hops += 1
                    t_fail = self._multi_fail(
                        ctx, "multi_get", t, ks, exc, t_fail, hops)
                    next_pending += ks
                    continue
                except (KvRedirect, KvStalePrimary) as exc:
                    hops += 1
                    if hops > _MAX_HOPS:
                        raise
                    self._follow_redirect(ctx, exc)
                    next_pending += ks
                    continue
                self._note_reply(rargs)
                for k, (ok, val) in zip(ks, payload):
                    sid = shard_of(k, self.nshards)
                    if ok and self._cache_enabled:
                        self._cache[sid][k] = val
                        # keep the cached object private to the cache
                        val = _copy(val)
                    for pos in key_pos[k]:
                        if ok:
                            out[pos] = val
                        else:
                            out[pos] = (None if default is _MISSING
                                        else default)
                    if not ok:
                        missing.append(k)
            pending = next_pending
        self._end_failover(ctx, t_fail, "multi_get")
        if tel.full:
            tel.record_latency("kv_multi", time.perf_counter() - t0)
        if missing and default is _MISSING:
            raise KeyError(missing[0])
        return out

    @_traced("kv_multi_put")
    def multi_put(self, items) -> None:
        """Store many pairs with one AM per serving rank (concurrent).

        ``items`` is a mapping or an iterable of ``(key, value)``.
        Observes no write-through (a bulk load would evict the working
        set); the epoch bumps invalidate affected shards' caches.
        Under rank death: replicated maps retry the affected chunk
        against the promoted backup (server-side grouping by shard
        keeps the retry idempotent); unreplicated maps fail fast
        naming the dead owner and its keys.
        """
        pairs = list(items.items()) if isinstance(items, Mapping) \
            else list(items)
        if not pairs:
            return
        ctx = current()
        tel = ctx.telemetry
        t0 = time.perf_counter() if tel.full else 0.0
        self._drain_deaths()
        data: dict = {}
        for k, v in pairs:
            data[k] = v  # within one batch the last write wins
        ctx.stats.add(kv_puts=len(pairs))
        st = _map_state(ctx, self.map_id)
        by_sid: dict[int, dict] = {}
        for k, v in data.items():
            by_sid.setdefault(shard_of(k, self.nshards), {})[k] = v
        remote: dict = {}
        for sid, chunk in by_sid.items():
            if self._local_primary(ctx, sid) is None:
                remote.update(chunk)
                continue
            applied = False
            try:
                with ctx._handler_lock:
                    hit = self._local_primary(ctx, sid)
                    if hit is not None:
                        stt, sh = hit
                        epoch = _apply_put(
                            sh, {k: _copy(v) for k, v in chunk.items()})
                        applied = True
                        _replicate(ctx, self.map_id, stt, sid, sh,
                                   [("put", chunk, epoch)])
                        ctx.stats.add(local_accesses=len(chunk))
                        self._note_epoch(sid, epoch)
            except KvStalePrimary:
                applied = False  # deposed: re-send through the wire path
            if not applied:
                remote.update(chunk)
        pending = list(remote)
        first_round = True
        attempt = 0
        hops = 0
        t_fail = None
        while pending:
            groups = self._group_by_target(ctx, pending)
            if first_round:
                first_round = False
                ctx.stats.add(kv_multi_ops=len(groups),
                              kv_batched_keys=len(pending))
                if tel.active:
                    tel.flight_event(
                        "kv_multi_put", src=ctx.rank, dst=-1,
                        detail=(f"{len(pending)} keys -> "
                                f"{len(groups)} servers"),
                    )
            dead = ctx.world.dead_ranks
            futs = {
                t: ctx.send_am(t, "kv_put", args=(self.map_id, -1),
                               payload={k: remote[k] for k in ks},
                               expect_reply=True)
                for t, ks in groups.items() if t not in dead
            }
            next_pending: list = []
            for t, ks in groups.items():
                fut = futs.get(t)
                if fut is None:
                    hops += 1
                    t_fail = self._multi_fail(
                        ctx, "multi_put", t, ks,
                        RankDead(f"rank {t} is dead"), t_fail, hops)
                    next_pending += ks
                    continue
                try:
                    rargs, _pl = fut.get()
                except CommTimeout:
                    attempt += 1
                    if attempt >= self.retry_attempts:
                        raise CommTimeout(
                            f"multi_put: rank {t} unreachable after "
                            f"{attempt} attempts ({len(ks)} keys)")
                    next_pending += ks
                    continue
                except (RankDead, PeerFailure) as exc:
                    hops += 1
                    t_fail = self._multi_fail(
                        ctx, "multi_put", t, ks, exc, t_fail, hops)
                    next_pending += ks
                    continue
                except (KvRedirect, KvStalePrimary) as exc:
                    hops += 1
                    if hops > _MAX_HOPS:
                        raise
                    self._follow_redirect(ctx, exc)
                    next_pending += ks
                    continue
                self._note_reply(rargs)
            pending = next_pending
        self._end_failover(ctx, t_fail, "multi_put")
        if tel.full:
            tel.record_latency("kv_multi", time.perf_counter() - t0)

    # -- rebalancing -------------------------------------------------------
    def rebalance(self, shard: int, to: int) -> None:
        """Migrate ``shard`` to rank ``to`` (live): the current primary
        freezes the shard, ships a snapshot **including the in-flight
        exactly-once update records**, leaves a redirect tombstone, and
        the target re-replicates onto a fresh backup.  Racing ops chase
        the redirect; acknowledged writes are never lost."""
        ctx = current()
        sid = int(shard)
        to = int(to)
        if not 0 <= sid < self.nshards:
            raise PgasError(f"rebalance: no such shard {sid}")
        if not 0 <= to < self.nranks:
            raise PgasError(f"rebalance: no such rank {to}")
        if to in ctx.world.dead_ranks:
            raise PgasError(f"rebalance: target rank {to} is dead")
        if ctx.telemetry.active:
            ctx.telemetry.flight_event(
                "kv_rebalance", src=ctx.rank, dst=to,
                detail=f"shard {sid}")
        self._shard_request(
            ctx, sid, "kv_migrate", (to,), None,
            what=f"kv_migrate(shard {sid} -> rank {to})", keys=[],
        )
        self._table[sid] = (to, None)
        if self._cache_enabled:
            self._cache[sid].clear()

    # -- cache control -----------------------------------------------------
    def refresh(self) -> None:
        """Revalidate this client's view: with replication, re-read the
        shard table from the Directory (post-promotion repair); with
        caching, fetch every live rank's shard epochs with concurrently
        issued AMs and drop stale entries (the explicit fence of the
        relaxed consistency model).  After refresh() returns, reads see
        every write acknowledged before the failover."""
        ctx = current()
        self._drain_deaths()
        if self.replicas:
            self._refresh_table(ctx)
        if not self._cache_enabled:
            return
        dead = ctx.world.dead_ranks
        futs = {
            r: ctx.send_am(r, "kv_epoch", args=(self.map_id, -1),
                           expect_reply=True)
            for r in range(self.nranks)
            if r != ctx.rank and r not in dead
        }
        for r, fut in futs.items():
            try:
                args, _pl = fut.get()
            except (RankDead, PeerFailure, CommTimeout):
                continue
            self._note_reply(args)
        st = _map_state(ctx, self.map_id)
        with ctx._handler_lock:
            for sid, sh in st["shards"].items():
                if sh["role"] == "primary":
                    self._note_epoch(sid, sh["epoch"])

    def invalidate_cache(self) -> None:
        """Drop every cached entry unconditionally."""
        for d in self._cache.values():
            d.clear()

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # -- introspection -----------------------------------------------------
    def __contains__(self, key: Any) -> bool:
        return self.get(key, default=_MISSING2) is not _MISSING2

    def local_size(self) -> int:
        """Entries in the primary shards hosted by the calling rank."""
        ctx = current()
        st = _map_state(ctx, self.map_id)
        with ctx._handler_lock:
            return sum(
                len(sh["store"]) for sh in st["shards"].values()
                if sh["role"] == "primary" and "moving_to" not in sh)

    def local_keys(self) -> list:
        ctx = current()
        st = _map_state(ctx, self.map_id)
        out: list = []
        with ctx._handler_lock:
            for sh in st["shards"].values():
                if sh["role"] == "primary" and "moving_to" not in sh:
                    out.extend(sh["store"])
        return out

    def local_shards(self) -> dict[int, str]:
        """Shard ids hosted by the calling rank -> role."""
        ctx = current()
        st = _map_state(ctx, self.map_id)
        with ctx._handler_lock:
            return {sid: sh["role"]
                    for sid, sh in sorted(st["shards"].items())}

    def size(self) -> int:
        """Global entry count over primary shards (non-collective:
        servers answer AMs concurrently; callers racing with writers
        or failovers see a fuzzy count).  Dead ranks are skipped."""
        ctx = current()
        dead = ctx.world.dead_ranks
        futs = [
            ctx.send_am(r, "kv_size", args=(self.map_id,),
                        expect_reply=True)
            for r in range(self.nranks)
            if r != ctx.rank and r not in dead
        ]
        total = self.local_size()
        for fut in futs:
            try:
                (count, *_), _pl = fut.get()
            except (RankDead, PeerFailure):
                continue
            total += count
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return (f"DistHashMap(id={self.map_id}, shards={self.nshards}, "
                f"replicas={self.replicas}, "
                f"cache={'on' if self._cache_enabled else 'off'})")


_MISSING2 = object()
