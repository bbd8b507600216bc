"""Distributed work queues with work stealing — the paper's §V-D
future work, built as an extension.

    "In the future, we hope to improve performance by implementing
    global load balancing via distributed work queues and work
    stealing.  Others have found PGAS a natural paradigm for
    implementing such schemes [Olivier & Prins]."

A :class:`DistWorkQueue` gives every rank a local deque of *items*
(picklable task descriptors, not closures).  ``get()`` pops locally
when possible and otherwise steals **half** the victim's queue
(steal-half, the standard policy for irregular loads) via an active
message served by the victim's progress engine.

Termination uses a global outstanding-items counter (an atomic cell on
rank 0): items increment it when added, decrement at ``task_done()``.
``get()`` returns ``None`` only once the counter reaches zero — i.e.
all added items have been *completed*, not merely claimed, so work
spawned by a straggler cannot be missed.  A central counter is a hot
spot at thousands of ranks (production designs split it into trees); at
this library's scales it is the honest simple choice and is documented
as such.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Iterable, Optional

import numpy as np

from repro.core import collectives
from repro.core.shared_var import SharedVar
from repro.gasnet.wire import tagged
from repro.core.world import RankState, current
from repro.errors import PeerFailure, PgasError, RankDead

_SCRATCH_KEY = "workqueues"


def _table(ctx: RankState) -> dict:
    return ctx.scratch.setdefault(_SCRATCH_KEY, {})


from repro.gasnet.am import am_handler  # noqa: E402 (grouped with use)


@am_handler("wq_steal")
def _wq_steal_handler(ctx: RankState, am) -> None:
    """Victim side: give the thief half of the local queue (older half,
    preserving this rank's locality on the newer items)."""
    (qid,) = am.args
    q: deque = _table(ctx).get(qid, deque())
    take = len(q) // 2 if len(q) > 1 else len(q)
    loot = [q.popleft() for _ in range(take)]
    stats = _table(ctx).setdefault(("stats", qid), {"stolen_from": 0})
    if loot:
        stats["stolen_from"] += len(loot)
    ctx.reply(am, payload=tagged("wq_loot", loot))


class DistWorkQueue:
    """A globally load-balanced pool of task items.  Collective ctor.

    >>> wq = DistWorkQueue()          # on every rank
    >>> wq.add_local(my_tiles)        # seed (may be arbitrarily skewed)
    >>> while (item := wq.get()) is not None:
    ...     process(item)
    ...     wq.task_done()
    """

    def __init__(self, seed: int = 0):
        ctx = current()
        qid = None
        if ctx.rank == 0:
            qid = next(ctx.world._dir_ids)
        self.qid = collectives.bcast(qid, root=0)
        self._ctx = ctx
        self._outstanding = SharedVar(np.int64, init=0, owner=0)
        _table(ctx).setdefault(self.qid, deque())
        _table(ctx).setdefault(("stats", self.qid),
                               {"stolen_from": 0})
        self.steals_attempted = 0
        self.steals_successful = 0
        self.items_processed = 0
        self._rng = np.random.default_rng(
            (seed << 16) ^ ctx.rank ^ 0x5EED
        )
        collectives.barrier()

    # -- producing ----------------------------------------------------------
    def add_local(self, items: Iterable[Any]) -> int:
        """Append items to this rank's local queue; returns the count."""
        ctx = current()
        q = _table(ctx)[self.qid]
        n = 0
        for it in items:
            q.append(it)
            n += 1
        if n:
            self._outstanding.atomic("add", n)
        return n

    # -- consuming -----------------------------------------------------------
    def _pop_local(self):
        q = _table(current()).get(self.qid)
        if q:
            return q.popleft()
        return None

    def _steal_once(self) -> bool:
        """Try one random victim; True if anything was stolen."""
        ctx = current()
        tel = ctx.telemetry
        n = ctx.world.n_ranks
        if n == 1:
            return False
        dead = ctx.world.dead_ranks
        candidates = [r for r in range(n)
                      if r != ctx.rank and r not in dead]
        if not candidates:
            return False
        victim = candidates[int(self._rng.integers(0, len(candidates)))]
        self.steals_attempted += 1
        if tel.active:
            ctx.stats.add(wq_steals_attempted=1)
        t0 = time.perf_counter()
        fut = ctx.send_am(victim, "wq_steal", args=(self.qid,),
                          expect_reply=True)
        try:
            _args, loot = fut.get()
        except (RankDead, PeerFailure):
            return False  # victim died mid-steal; nothing was claimed
        if tel.full:
            # Steal round trip: request -> loot (empty-handed included).
            tel.histogram("wq_steal_rtt").record_seconds(
                time.perf_counter() - t0
            )
        if not loot:
            return False
        _table(ctx)[self.qid].extend(loot)
        self.steals_successful += 1
        if tel.active:
            # the metrics sampler derives steal_rate_per_s from this
            ctx.stats.add(wq_steals_ok=1)
        tel.flight_event("wq_steal", src=ctx.rank, dst=victim,
                         detail=f"{len(loot)} items")
        return True

    def get(self, max_steal_rounds: int = 0) -> Optional[Any]:
        """Pop a task item, stealing when local work runs out.

        Returns ``None`` exactly when the whole pool has quiesced
        (every added item completed).  ``max_steal_rounds`` bounds the
        stealing attempts per call for testing; 0 means unbounded.
        """
        ctx = current()
        rounds = 0
        # Serve pending steal requests (and other AMs) before taking the
        # next local item — a loaded rank that never polls would starve
        # every thief (the polling-runtime contract of paper §IV).
        ctx.advance(max_items=8)
        if ctx.telemetry.full:
            # Local queue depth at claim time: the load-balance signal
            # (a heavy tail here means stealing is not keeping up).
            ctx.telemetry.record_value(
                "wq_depth", self.local_size(), unit="items"
            )
        while True:
            item = self._pop_local()
            if item is not None:
                return item
            if int(self._outstanding.value) == 0:
                return None
            if self._steal_once():
                continue
            rounds += 1
            if max_steal_rounds and rounds >= max_steal_rounds:
                return None
            ctx.advance()  # serve thieves/asyncs while we are idle

    def task_done(self, n: int = 1) -> None:
        """Mark ``n`` claimed items as completed."""
        if n < 1:
            raise PgasError("task_done requires a positive count")
        self.items_processed += n
        self._outstanding.atomic("add", -n)

    # -- introspection ----------------------------------------------------------
    def local_size(self) -> int:
        q = _table(current()).get(self.qid)
        return len(q) if q else 0

    def outstanding(self) -> int:
        """Globally outstanding (added, not yet completed) items."""
        return int(self._outstanding.value)

    def stolen_from_me(self) -> int:
        return _table(current())[("stats", self.qid)]["stolen_from"]

    def __repr__(self) -> str:  # pragma: no cover
        return f"DistWorkQueue(id={self.qid})"
