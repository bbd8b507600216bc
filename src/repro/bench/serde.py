"""Serialization microbenchmark: wire codec vs forced-pickle baseline.

The zero-copy wire layer claims two things: (1) fixed-layout AM traffic
(kv batches, steal loot, collective frames) is cheaper to encode/decode
than the pickle-everything path it replaced, and (2) nearly all frames
of a realistic workload stay on the fast path.  This bench measures
both in one process by running the identical workload twice —

* ``pickle`` mode: :func:`repro.gasnet.wire.set_force_pickle` routes
  every frame's args and payload through in-band pickle, modelling the
  pre-codec wire;
* ``codec`` mode: the normal tagged/fixed-layout encoding.

Three phases per mode:

1. **AM ping-pong** — rank 0 round-trips request/reply AMs carrying a
   bulk ndarray value (the zero-copy headline case: the codec ships a
   dtype/shape header + one out-of-band buffer where pickle embeds the
   array in the stream); per-op wall latency.
2. **KV ops** — ``DistHashMap`` puts/gets of 8–64 KiB byte values
   under int keys (the codec's bread and butter: bytes ride as
   zero-copy out-of-band views both ways), measured uncached so every
   get crosses the wire.  Puts are point ops; gets go through
   ``multi_get`` batches and report **per-key** latency — amortizing
   the thread-wakeup RTT so the serialization cost is the signal, and
   matching how the kv workload actually reads.
3. **GUPS** — the RMA-path guardrail: serialization must not tax the
   one-sided path (it shares conduit plumbing but moves no frames).

A final short full-telemetry pass in codec mode collects the ``ser``/
``deser`` histograms and the fixed-layout hit rate.  CI gates on the
p50 speedups and the hit rate (``python -m repro.bench.harness --serde
BENCH_6.json``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.gasnet.am import am_handler
from repro.gasnet.stats import aggregate
from repro.gasnet.wire import bind_handler, set_force_pickle


@dataclass
class SerdeResult:
    ranks: int
    iters: int
    # per-mode p50 latencies, microseconds ("pickle" vs "codec")
    send_am_p50_us: dict
    kv_get_p50_us: dict
    kv_put_p50_us: dict
    gups: dict
    # speedups: pickle p50 / codec p50 (>1 means the codec wins)
    send_am_speedup: float
    kv_get_speedup: float
    gups_ratio: float           # codec / pickle (>=1: no RMA-path tax)
    # codec-mode observability (full-telemetry pass)
    ser_p50_us: float
    deser_p50_us: float
    wire_frames: int
    wire_fixed: int
    pickle_fallbacks: int
    wire_fixed_rate: float
    stats: dict = field(default_factory=dict)

    @property
    def bounds(self) -> dict:
        return {
            "send_am_speedup >= 1.1": self.send_am_speedup >= 1.1,
            "kv_get_speedup >= 1.1": self.kv_get_speedup >= 1.1,
            # GUPS moves no frames; the ratio is a guardrail against a
            # serialization tax leaking into the RMA path, with head
            # room for scheduler noise on loaded CI machines.
            "gups_ratio >= 0.7": self.gups_ratio >= 0.7,
            "wire_fixed_rate >= 0.9": self.wire_fixed_rate >= 0.9,
        }

    @property
    def bounds_ok(self) -> bool:
        return all(self.bounds.values())


def _p50(lat_us: list) -> float:
    return float(np.percentile(np.asarray(lat_us), 50)) if lat_us else 0.0


def _kv_values(n: int, seed: int = 0) -> list:
    """Deterministic bytes values spanning 8–64 KiB — large enough
    that copying them in-band (the pickle baseline) costs real time."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=int(s), dtype=np.uint8).tobytes()
            for s in rng.integers(8 << 10, (64 << 10) + 1, size=n)]


@am_handler("serde_echo")
def _serde_echo(ctx, am) -> None:
    """Ping-pong target: acknowledge the ``{i: ndarray}`` request with
    its item count, so only the request carries the bulk value."""
    ctx.reply(am, args=(len(am.payload),))


# The request rides the fixed-layout kv put-batch codec, as a kv_put
# batch of the same shape would.
bind_handler("serde_echo", "kv_items")

#: Ping-pong payload element count (float64 -> 256 KiB): big enough
#: that serialization cost dominates the thread-wakeup RTT noise.
PINGPONG_ELEMS = 32768


def _phase_body(iters, kv_keys, seed):
    """One mode's workload; returns per-rank latency lists + stats."""
    me = repro.myrank()
    n = repro.ranks()
    ctx = repro.current_world().ranks[me]
    rng = np.random.default_rng((seed << 8) ^ me)
    values = _kv_values(64, seed=seed)

    # -- phase 1: AM ping-pong (rank 0 -> rank 1) with a bulk ndarray
    send_lat: list = []
    if me == 0 and n > 1:
        arr = np.arange(PINGPONG_ELEMS, dtype=np.float64)
        for i in range(iters):
            t0 = time.perf_counter()
            fut = ctx.send_am(1, "serde_echo", payload={i: arr},
                              expect_reply=True)
            fut.get()
            send_lat.append((time.perf_counter() - t0) * 1e6)
    repro.barrier()

    # -- phase 2: kv point ops, int keys, bytes values, uncached
    m = repro.DistHashMap(cache=False)
    stripe = [k for k in range(kv_keys) if k % n == me]
    put_lat: list = []
    get_lat: list = []
    for k in stripe:
        v = values[k % len(values)]
        t0 = time.perf_counter()
        m.put(k, v)
        put_lat.append((time.perf_counter() - t0) * 1e6)
    repro.barrier()
    batch = 64
    for _ in range(max(1, len(stripe) // 8)):
        sample = [int(k) for k in rng.integers(0, kv_keys, size=batch)]
        t0 = time.perf_counter()
        m.multi_get(sample)
        get_lat.append((time.perf_counter() - t0) / batch * 1e6)
    repro.barrier()
    agg = None
    if me == 0:
        agg = aggregate([r.stats for r in repro.current_world().ranks])
    return send_lat, put_lat, get_lat, agg


def run(ranks: int = 4, iters: int = 300, kv_keys: int = 1024,
        log2_table_size: int = 10, seed: int = 0,
        reps: int = 3) -> SerdeResult:
    """Run both modes and gather one result (best-of-``reps`` p50s)."""
    from repro.bench import gups

    lat: dict = {}
    gups_num: dict = {}
    stats_codec: dict = {}
    # Warm-up: first world pays thread spin-up/numpy import costs.
    repro.spmd(lambda: repro.barrier(), ranks=ranks)
    for mode in ("pickle", "codec"):
        set_force_pickle(mode == "pickle")
        try:
            # Best-of-reps per metric: scheduler noise on a threaded
            # Python world easily swamps a single rep's percentile.
            sends, puts, gets, agg = [], [], [], None
            for _ in range(reps):
                res = repro.spmd(
                    lambda: _phase_body(iters, kv_keys, seed),
                    ranks=ranks,
                )
                sends.append(_p50([u for r in res for u in r[0]]))
                puts.append(_p50([u for r in res for u in r[1]]))
                gets.append(_p50([u for r in res for u in r[2]]))
                agg = res[0][3]
            lat[mode] = (min(sends), min(puts), min(gets), agg)
            gups_num[mode] = max(
                gups.run(ranks=ranks, log2_table_size=log2_table_size,
                         variant="upcxx").gups
                for _ in range(reps)
            )
        finally:
            set_force_pickle(False)
    stats_codec = lat["codec"][3]

    # -- full-telemetry pass: ser/deser histograms (codec mode)
    holder: dict = {}

    def tel_body():
        out = _phase_body(iters // 4, kv_keys // 4, seed)
        if repro.myrank() == 0:
            holder["world"] = repro.current_world()
        return out

    repro.spmd(tel_body, ranks=ranks, telemetry="full")
    hists = holder["world"].telemetry.metrics().get("histograms", {})

    def _hist_p50(name: str) -> float:
        h = hists.get(name)
        return float(h["p50"]) / 1e3 if h else 0.0  # ns -> us

    send_p50 = {m: lat[m][0] for m in lat}
    put_p50 = {m: lat[m][1] for m in lat}
    get_p50 = {m: lat[m][2] for m in lat}
    frames = stats_codec.get("wire_frames", 0)
    fixed = stats_codec.get("wire_fixed", 0)
    return SerdeResult(
        ranks=ranks, iters=iters,
        send_am_p50_us=send_p50,
        kv_put_p50_us=put_p50,
        kv_get_p50_us=get_p50,
        gups=gups_num,
        send_am_speedup=(send_p50["pickle"] / send_p50["codec"]
                         if send_p50["codec"] else 0.0),
        kv_get_speedup=(get_p50["pickle"] / get_p50["codec"]
                        if get_p50["codec"] else 0.0),
        gups_ratio=(gups_num["codec"] / gups_num["pickle"]
                    if gups_num["pickle"] else 0.0),
        ser_p50_us=_hist_p50("ser"),
        deser_p50_us=_hist_p50("deser"),
        wire_frames=frames,
        wire_fixed=fixed,
        pickle_fallbacks=stats_codec.get("pickle_fallbacks", 0),
        wire_fixed_rate=fixed / frames if frames else 0.0,
        stats=stats_codec,
    )


def main() -> int:
    r = run()
    print(f"serde bench: {r.ranks} ranks, {r.iters} ping-pong iters")
    for name, d in (("send_am p50", r.send_am_p50_us),
                    ("kv_put  p50", r.kv_put_p50_us),
                    ("kv_get  p50", r.kv_get_p50_us)):
        print(f"  {name}   pickle {d['pickle']:8.1f} us   "
              f"codec {d['codec']:8.1f} us")
    print(f"  speedup: send_am x{r.send_am_speedup:.2f}  "
          f"kv_get x{r.kv_get_speedup:.2f}")
    print(f"  gups: pickle {r.gups['pickle'] * 1e9:.0f}  "
          f"codec {r.gups['codec'] * 1e9:.0f} updates/s "
          f"(ratio {r.gups_ratio:.2f})")
    print(f"  ser/deser p50: {r.ser_p50_us:.1f} / {r.deser_p50_us:.1f} us")
    print(f"  fixed-layout: {r.wire_fixed}/{r.wire_frames} frames "
          f"({r.wire_fixed_rate:.1%}), "
          f"{r.pickle_fallbacks} pickle fallbacks")
    print(f"  bounds: {r.bounds} -> "
          f"{'PASS' if r.bounds_ok else 'FAIL'}")
    return 0 if r.bounds_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
