"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so no state (caches,
interned handlers, allocator growth) carries from one repetition into
the next.  It prints one JSON object as its last stdout line: the raw
latency samples, the counters of the timed phase, the output-check
verdict and, in a traced repetition, the per-layer figures.

    PYTHONPATH=src python3 perfbench/rep.py --workload kv-zipf --seed 1 \\
        --seconds 3 --progress-file .perfbench_out/progress.bin
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import repro
import tracer as tracing
import workloads as wl


def _q(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _sum_stats(results: list) -> dict:
    out: dict = {}
    for r in results:
        for k, v in r["stats"].items():
            out[k] = out.get(k, 0) + v
    return out


def _ratio(num: float, den: float, absent: dict, name: str,
           why: str) -> float:
    if den:
        return num / den
    absent[name] = why
    return 0.0


def layer_metrics(workload: str, results: list, setup: dict,
                  spans_out: Path | None) -> tuple[dict, dict, dict, dict]:
    """Per-layer metrics of one traced repetition: (values, the
    numerator/denominator behind each ratio, reasons for absent ones,
    self seconds per layer summed over ranks)."""
    st = _sum_stats(results)
    absent: dict = {}
    bases: dict = {}
    durs: dict = {}
    selfs: dict = {}
    self_s: dict = dict.fromkeys(tracing.LAYERS, 0.0)
    covered = phase = 0.0
    calls = useful = 0
    rtt: list = []
    blocks_out = []
    for r in results:
        tr = r["trace"]
        a = tracing.analyse(tr["spans"], r["t_start"], r["t_end"])
        for k, v in a["self_s"].items():
            self_s[k] += v
        for k, v in a["durations"].items():
            durs.setdefault(k, []).append(v)
        for k, v in a["self_durations"].items():
            selfs.setdefault(k, []).append(v)
        covered += a["covered_s"]
        phase += r["t_end"] - r["t_start"]
        calls += tr["advance"][0]
        useful += tr["advance"][1]
        rtt += [dt for t0, dt in tr["values"].get("am.rtt", ())
                if r["t_start"] <= t0 < r["t_end"]]
        for b in tr["spans"]:
            blocks_out.append(np.column_stack(
                [b, np.full(len(b), r["rank"], dtype=np.float64)]))
    if spans_out is not None:
        # name id, start, end, parent index (within its block), op id, rank
        np.savez(spans_out, names=np.array(tracing.NAMES),
                 **{f"block{i}": b for i, b in enumerate(blocks_out)})
    durs = {k: np.concatenate(v) * 1e6 for k, v in durs.items()}
    selfs = {k: np.concatenate(v) * 1e6 for k, v in selfs.items()}

    def pct(name: str, q: float, metric: str, src=durs) -> float:
        v = src.get(name, ())
        if not len(v):
            absent[metric] = f"no {name} calls in the timed phase"
        return _q(v, q)

    def ratio(metric: str, num, den, why: str) -> float:
        bases[metric] = (num, den)
        return _ratio(num, den, absent, metric, why)

    ops = sum(r["ops"] for r in results)
    kv = wl.BODY[workload] is wl.kv_body
    m: dict = {}
    m["containers.self_us_per_op"] = ratio(
        "containers.self_us_per_op", self_s["containers"] * 1e6,
        ops if kv else 0, "no map ops in this workload")
    hits, misses = st["kv_cache_hits"], st["kv_cache_misses"]
    m["containers.cache_hit_ratio"] = ratio(
        "containers.cache_hit_ratio", hits, hits + misses,
        "no cached map reads")
    m["containers.keys_per_multi_am"] = ratio(
        "containers.keys_per_multi_am", st["kv_batched_keys"],
        st["kv_multi_ops"], "no multi_get AMs")
    m["progress.advance_calls"] = calls
    m["progress.advance_useful_ratio"] = ratio(
        "progress.advance_useful_ratio", useful, calls, "no advance calls")
    m["progress.handler_busy_s"] = float(
        np.sum(durs.get("progress.advance", ()))) / 1e6
    m["progress.wait_s"] = float(
        np.sum(selfs.get("progress.wait_until", ()))
        + np.sum(selfs.get("future.get", ()))) / 1e6
    m["am.sent"] = st["ams_sent"]
    m["am.bytes_per_am"] = ratio("am.bytes_per_am", st["am_bytes"],
                                 st["ams_sent"], "no AMs sent")
    m["am.send_us_p50"] = pct("conduit.send_am", 50, "am.send_us_p50")
    rtt_us = np.asarray(rtt) * 1e6
    rtt_src = {"AM round trip": rtt_us}
    m["am.rtt_us_p50"] = pct("AM round trip", 50, "am.rtt_us_p50", rtt_src)
    m["am.rtt_us_p99"] = pct("AM round trip", 99, "am.rtt_us_p99", rtt_src)
    m["wire.frames"] = st["wire_frames"]
    m["wire.fixed_ratio"] = ratio("wire.fixed_ratio", st["wire_fixed"],
                                  st["wire_frames"], "no wire frames")
    m["wire.pickle_fallbacks"] = st["pickle_fallbacks"]
    m["wire.encode_us_p50"] = pct("wire.encode_am", 50,
                                  "wire.encode_us_p50")
    ring_why = (None if wl.CONDUIT[workload] == "proc"
                else "smp has no ring transport")
    m["ring.frames_per_slot"] = ratio(
        "ring.frames_per_slot", st["wire_ring_frames"],
        st["wire_ring_slots"], ring_why or "no ring slots published")
    for k in ("spills", "full_backoffs", "doorbells"):
        m[f"ring.{k}"] = st[f"wire_ring_{k}"]
        if ring_why:
            absent[f"ring.{k}"] = ring_why
    m["shared_array.atomic_batch_self_us_p50"] = pct(
        "shared_array.atomic_batch", 50,
        "shared_array.atomic_batch_self_us_p50", selfs)
    updates = sum(r.get("updates", 0) for r in results)
    m["shared_array.updates_per_conduit_op"] = ratio(
        "shared_array.updates_per_conduit_op", updates,
        len(durs.get("rma.atomic_batch", ())), "no atomic_batch calls")
    m["rma.atomic_batch_us_p50"] = pct("rma.atomic_batch", 50,
                                       "rma.atomic_batch_us_p50")
    m["rma.remote_ratio"] = ratio(
        "rma.remote_ratio", st["remote_accesses"],
        st["remote_accesses"] + st["local_accesses"], "no RMA accesses")
    if "rma.atomic_batch" not in durs:
        absent["rma.remote_ratio"] = "no RMA ops in this workload"
    # each xor update reads and writes one 8-byte word
    m["rma.bytes_computed"] = updates * 16
    if not updates:
        absent["rma.bytes_computed"] = "no table updates"
    m["collectives.barrier_us_p50"] = pct(
        "collectives.barrier", 50, "collectives.barrier_us_p50")
    m["collectives.barrier_us_p99"] = pct(
        "collectives.barrier", 99, "collectives.barrier_us_p99")
    m["collectives.allreduce_us_p50"] = pct(
        "collectives.allreduce", 50, "collectives.allreduce_us_p50")
    m["arrays.ghost_exchange_us_p50"] = pct(
        "arrays.ghost_exchange", 50, "arrays.ghost_exchange_us_p50")
    m["arrays.kernel_us_p50"] = pct("kernel", 50, "arrays.kernel_us_p50")
    m["arrays.ghost_bytes_computed"] = sum(
        r.get("face_bytes", 0) * r["ops"] for r in results)
    if workload != "halo3d":
        absent["arrays.ghost_bytes_computed"] = "no ghost exchanges"
    m["setup.launch_s"] = setup["launch_s"]
    m["setup.init_s"] = setup["init_s"]
    m["trace.attributed_ratio"] = ratio(
        "trace.attributed_ratio", covered, phase, "empty timed phase")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_share"] = ratio(f"{layer}.self_share",
                                         self_s[layer], phase,
                                         "empty timed phase")
    return m, bases, absent, self_s


def run_rep(workload: str, seed: int, seconds: float, traced: bool,
            corrupt: bool, spans_out: Path | None,
            progress_file: Path) -> dict:
    inputs = wl.make_inputs(workload, seed, seconds)
    conduit = wl.CONDUIT[workload]
    # Attempted-op counters that outlive a failed or killed repetition:
    # a shared file mapping, inherited by forked rank processes, which
    # run.py reads when no result comes back.
    progress = np.memmap(progress_file, dtype=np.int64, mode="w+",
                         shape=(wl.RANKS,))
    tracer = tracing.Tracer() if traced else None
    out: dict = {"workload": workload, "seed": seed, "conduit": conduit,
                 "cpus": sorted(os.sched_getaffinity(0)), "traced": traced,
                 "error": None, "verified": False}
    t_call = time.perf_counter()
    try:
        results = repro.spmd(
            wl.BODY[workload], ranks=wl.RANKS, conduit=conduit,
            segment_size=wl.SEGMENT_SIZE, timeout=seconds + 60.0,
            kwargs=dict(inputs=inputs, seconds=seconds, tracer=tracer,
                        progress=progress, corrupt=corrupt,
                        proc=conduit == "proc"))
    except Exception as exc:  # reported as failed ops, not raised
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["attempted"] = int(sum(progress))
        return out
    results.sort(key=lambda r: r["rank"])
    verified = all(r["ok"] for r in results)
    if verified and workload == "halo3d":
        verified = wl.check_halo(inputs, results)
    out["verified"] = verified
    if not verified:
        out["error"] = "output check failed"
    out["attempted"] = int(sum(r["ops"] for r in results))
    launch = max(r["t_body"] for r in results) - t_call
    setup = max(r["t_start"] for r in results) - t_call
    out["setup"] = {"setup_s": setup, "launch_s": launch,
                    "init_s": setup - launch}
    out["phase_s"] = max(r["t_end"] for r in results) - min(
        r["t_start"] for r in results)
    out["ops"] = sum(r["ops"] for r in results)
    # steal is machine-wide, so one rank's reading covers the timed phase
    out["steal_frac"] = results[0]["steal_s"] / (
        (results[0]["t_end"] - results[0]["t_start"]) * os.cpu_count())
    work = {"gups": "updates", "halo3d": "cells"}.get(workload)
    out["work"] = (sum(r[work] for r in results) if work else out["ops"])
    lat: dict = {}
    for r in results:
        for k, v in r["lat_us"].items():
            lat.setdefault(k, []).extend(round(x, 3) for x in v)
    out["lat_us"] = lat
    out["stats"] = _sum_stats(results)
    out["rss_mb"] = max(r["rss_mb"] for r in results)
    if traced:
        m, bases, absent, self_s = layer_metrics(
            workload, results, out["setup"], spans_out)
        out["layers"] = {"values": m, "bases": bases, "absent": absent,
                         "self_s": self_s}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.BODY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage the output before its check (tests)")
    ap.add_argument("--spans-out", type=Path)
    ap.add_argument("--progress-file", type=Path, required=True,
                    help="file that counts each rank's attempted ops")
    a = ap.parse_args(argv)
    out = run_rep(a.workload, a.seed, a.seconds, a.trace, a.corrupt,
                  a.spans_out, a.progress_file)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
