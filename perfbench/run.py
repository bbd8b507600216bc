"""The repository benchmark: one command per workload, checked outputs,
every metric printed by name and unit.

    python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 10 \\
        --trace 0

Run from the repository root.  A run is up to ``REPS`` repetitions of
at least ``MIN_REP_S`` each, each in a fresh interpreter (``rep.py``)
with a deadline that kills it if it hangs; together they measure
``--seconds`` of closed-loop work at 2 ranks.  A repetition that
raises, hangs or fails its output check counts all of its attempted
operations as failed, with its error text, and the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
repetition twice at the same seed and size, untraced and then with
spans recorded around each layer's public entry points, and prints the
per-layer metrics from the traced copies plus ``trace.overhead_ratio``
(untraced over traced throughput).  Spans are written to
``.perfbench_out/`` at the repository root.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("kv-zipf", "kv-zipf-proc", "gups", "halo3d")
KV_KINDS = ("get", "put", "multi_get")

#: End-to-end metrics printed in the JSON line of every workload.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "peak_rss_mb": "MB",
}
#: Printed in the report only.  The per-kind figures and failed_frac are
#: zero or undefined on some workloads; on a shared machine op_p99_us
#: swings with the host's load between runs far more than the median does.
REPORT_ONLY = {
    "op_p99_us": "us",
    **{f"{k}_{q}_us": "us" for k in KV_KINDS for q in ("p50", "p99")},
    "failed_frac": "ratio",
}
PER_LAYER = {
    "containers.self_us_per_op": "us",
    "containers.cache_hit_ratio": "ratio",
    "containers.keys_per_multi_am": "keys/AM",
    "progress.advance_calls": "count",
    "progress.advance_useful_ratio": "ratio",
    "progress.handler_busy_s": "s",
    "progress.wait_s": "s",
    "am.sent": "count",
    "am.bytes_per_am": "B",
    "am.send_us_p50": "us",
    "am.rtt_us_p50": "us",
    "am.rtt_us_p99": "us",
    "wire.frames": "count",
    "wire.fixed_ratio": "ratio",
    "wire.pickle_fallbacks": "count",
    "wire.encode_us_p50": "us",
    "ring.frames_per_slot": "frames/slot",
    "ring.spills": "count",
    "ring.full_backoffs": "count",
    "ring.doorbells": "count",
    "shared_array.atomic_batch_self_us_p50": "us",
    "shared_array.updates_per_conduit_op": "updates/op",
    "rma.atomic_batch_us_p50": "us",
    "rma.remote_ratio": "ratio",
    "rma.bytes_computed": "B",
    "collectives.barrier_us_p50": "us",
    "collectives.barrier_us_p99": "us",
    "collectives.allreduce_us_p50": "us",
    "arrays.ghost_exchange_us_p50": "us",
    "arrays.kernel_us_p50": "us",
    "arrays.ghost_bytes_computed": "B",
    "setup.launch_s": "s",
    "setup.init_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_ratio": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in (
        "am", "arrays", "bench", "collectives", "containers", "kernel",
        "progress", "rma", "shared_array", "wire")},
}

#: Repetitions per run, and the shortest timed phase one may have: a
#: run of ``--seconds`` makes ``seconds / MIN_REP_S`` repetitions, at
#: least one and at most ``REPS``.
REPS = 8
MIN_REP_S = 1.0
#: A run must end within 180 s.  Repetitions are started only while
#: they fit in this budget, which leaves 10 s for the report; one that
#: does not fit is reported as skipped, not as failed ops, because it
#: says nothing about the program.
RUN_BUDGET_S = 170.0
#: A repetition during which the hypervisor gave more than this share of
#: the machine's CPU time to other guests (steal time) measured the host
#: as much as the program.  It is run again at the end of the run, up to
#: ``MAX_RERUNS`` times per run and while the budget allows, and the
#: medians leave it out unless every repetition was over the limit.
STEAL_LIMIT = 0.05
MAX_RERUNS = 4
#: Allowance on top of a repetition's timed phase for interpreter
#: start, process launch, set-up and the output check.
REP_SLACK_S = 45.0


def rep_count(seconds: float) -> int:
    return max(1, min(REPS, int(seconds / MIN_REP_S)))


def tail_label(n: int) -> str:
    """The highest standard percentile with at least ten samples beyond
    it, for a sample count of ``n``."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - q / 100.0) >= 10:
            return f"p{q:g}"
    return "none"


def environment(env_cleared: dict) -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = (ref_file.read_text().strip()
                      if ref_file.is_file() else ref)
        else:
            commit = ref
    return {
        "cpu_count": os.cpu_count(),
        "ranks": 2,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        # identifies the measured code where the checkout has no .git
        "src_sha256": hashlib.sha256(b"".join(
            f.read_bytes() for f in sorted((ROOT / "src").rglob("*.py"))
        )).hexdigest(),
        "cleared_env": env_cleared,
    }


def child_env() -> tuple[dict, dict]:
    """The repetitions' environment: every ``REPRO_*`` variable removed
    (the shell cannot pick the conduit, transport or ring knobs), the
    source tree first on the path, hashing fixed."""
    env = dict(os.environ)
    cleared = {k: env.pop(k) for k in list(env) if k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["PYTHONHASHSEED"] = "0"
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env, cleared


def _shm_names() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}
    except OSError:
        return set()


def _kill_group(proc: subprocess.Popen, shm_before: set) -> None:
    """Kill a repetition and every rank process it forked, wait until
    the whole process group is gone, and unlink the shared-memory
    segments the killed processes could not."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    for name in _shm_names() - shm_before:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass


def _attempted(progress_file: Path) -> int:
    try:
        return int(np.fromfile(progress_file, dtype=np.int64).sum())
    except OSError:
        return 0


def run_rep(workload: str, seed: int, seconds: float, traced: bool,
            corrupt: bool, timeout: float, env: dict,
            spans_out: Path | None) -> dict:
    progress = OUT_DIR / f"progress-{os.getpid()}.bin"
    try:
        return _run_rep(workload, seed, seconds, traced, corrupt, timeout,
                        env, spans_out, progress)
    finally:
        progress.unlink(missing_ok=True)


def _run_rep(workload, seed, seconds, traced, corrupt, timeout, env,
             spans_out, progress) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--progress-file", str(progress)]
    if traced:
        cmd.append("--trace")
    if corrupt:
        cmd.append("--corrupt")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    shm_before = _shm_names()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc, shm_before)
        return {"error": f"hung: killed after the {timeout:.0f}s "
                         f"repetition deadline",
                "attempted": _attempted(progress), "verified": False}
    except BaseException:
        _kill_group(proc, shm_before)  # interrupted: leave no rank behind
        raise
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"error": f"exit {proc.returncode} without a result: {tail}",
                "attempted": _attempted(progress), "verified": False}


def measured(reps: list) -> list:
    """The verified repetitions the medians are taken over: those under
    ``STEAL_LIMIT``, or all verified ones when none is."""
    ok = [r for r in reps if r.get("verified")]
    return [r for r in ok if not r.get("stolen")] or ok


def rep_metrics(r: dict) -> dict:
    """End-to-end figures of one verified repetition."""
    m = {"setup_s": r["setup"]["setup_s"],
         "ops_per_s": r["work"] / r["phase_s"],
         "peak_rss_mb": r["rss_mb"]}
    samples = {"op": [x for v in r["lat_us"].values() for x in v]}
    samples.update((k, r["lat_us"].get(k)) for k in KV_KINDS)
    for kind, lat in samples.items():
        if not lat:
            continue
        m[f"{kind}_p50_us"] = float(np.percentile(lat, 50))
        m[f"{kind}_p99_us"] = float(np.percentile(lat, 99))
        m[f"{kind}_n"] = len(lat)
    return m


def end_to_end(reps: list) -> tuple[dict, dict]:
    """Medians over the verified repetitions of their end-to-end
    figures (so one repetition caught by a noisy neighbour cannot move
    the result), and per sample kind the (total, smallest per-repetition)
    sample count."""
    per_rep = [rep_metrics(r) for r in measured(reps)]
    m: dict = {}
    counts: dict = {}
    for name in dict.fromkeys(k for p in per_rep for k in p):
        vs = [p[name] for p in per_rep if name in p]
        if name.endswith("_n"):
            counts[name[:-2]] = (sum(vs), min(vs))
        else:
            m[name] = statistics.median(vs)
    return m, counts


def per_layer(untraced: list, traced: list) -> tuple[dict, dict, dict]:
    good = measured(traced)
    values: dict = {}
    absent: dict = {}
    bases: dict = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        vs = [r["layers"]["values"][name] for r in good]
        values[name] = statistics.median(vs) if vs else 0.0
        whys = [r["layers"]["absent"][name] for r in good
                if name in r["layers"]["absent"]]
        if not vs:
            absent[name] = "no verified traced repetition"
        elif len(whys) == len(good):
            absent[name] = whys[0]
        b = [r["layers"]["bases"][name] for r in good
             if name in r["layers"]["bases"]]
        if b:
            # a ratio is reported over the pooled traced repetitions, so
            # that it equals the numerator and denominator printed with it
            num, den = sum(x[0] for x in b), sum(x[1] for x in b)
            bases[name] = (num, den)
            if den:
                values[name] = num / den
    u, _ = end_to_end(untraced)
    t, _ = end_to_end(traced)
    if u and t:
        values["trace.overhead_ratio"] = u["ops_per_s"] / t["ops_per_s"]
        bases["trace.overhead_ratio"] = (u["ops_per_s"], t["ops_per_s"])
    else:
        values["trace.overhead_ratio"] = 0.0
        absent["trace.overhead_ratio"] = "no verified pair of repetitions"
    return values, bases, absent


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def report(args, env_info: dict, reps: list, e2e: dict, counts: dict,
           layers: tuple | None, attempted: int, failed: int) -> None:
    p = print
    first = next((r for r in reps if "conduit" in r), {})
    p(f"perfbench {args.workload}: conduit={first.get('conduit')} ranks=2 "
      f"cpus={first.get('cpus')} seed={args.seed} seconds={args.seconds} "
      f"reps={args.reps} trace={args.trace}")
    p("environment: " + json.dumps(env_info, sort_keys=True))
    for i, r in enumerate(reps):
        tag = "traced" if r.get("traced") else "untraced"
        if r.get("error"):
            p(f"  rep {i} ({tag}): FAILED after {r.get('attempted', 0)} "
              f"attempted ops: {r['error']}")
        else:
            note = (f" (over the {STEAL_LIMIT:.0%} limit)"
                    if r.get("stolen") else "")
            p(f"  rep {i} ({tag}): {r['ops']} ops in {r['phase_s']:.3f}s, "
              f"setup {r['setup']['setup_s']:.4f}s, steal "
              f"{r['steal_frac']:.1%}{note}, verified")
    p(f"attempted {attempted}, failed {failed}")
    if layers is None:
        n, n_rep = counts.get("op", (0, 0))
        p(f"end-to-end (medians over repetitions; {n} op samples, at "
          f"least {n_rep} per repetition, whose highest percentile with "
          f">= 10 samples beyond it is {tail_label(n_rep)}):")
        for name, unit in {**END_TO_END, **REPORT_ONLY}.items():
            if name in e2e:
                kind = name.rsplit("_", 2)[0]
                extra = (f"  (n={counts[kind][0]})" if kind in counts
                         and kind != "op" else "")
                p(f"  {name:<24} {_fmt(e2e[name]):>14} {unit}{extra}")
            else:
                p(f"  {name:<24} {'absent':>14} {unit}  "
                  f"(no map ops in this workload)")
        return
    values, bases, absent = layers
    p("per-layer (traced repetitions; medians):")
    for name, unit in PER_LAYER.items():
        line = f"  {name:<40} {_fmt(values[name]):>14} {unit}"
        if name in bases:
            num, den = bases[name]
            line += f"  ({_fmt(num)} / {_fmt(den)})"
        if name in absent:
            line += f"  absent: {absent[name]}"
        p(line)
    good = measured([r for r in reps if r.get("traced")])
    if good:
        p("self time per layer (span minus child spans, summed over "
          "ranks; median over traced repetitions):")
        for layer in good[0]["layers"]["self_s"]:
            sec = statistics.median(r["layers"]["self_s"][layer]
                                    for r in good)
            p(f"  {layer:<14} {sec:10.4f} s")
    att = values.get("trace.attributed_ratio", 0.0)
    p(f"spans cover {att:.1%} of the timed phase; unattributed "
      f"{1 - att:.1%}")


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="damage each repetition's output before its "
                         "check (exercises failure accounting)")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    args.reps = rep_count(args.seconds)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    env, cleared = child_env()
    env_info = environment(cleared)
    t_run = time.monotonic()
    rep_s = args.seconds / args.reps
    OUT_DIR.mkdir(exist_ok=True)
    plan = [(k, False) for k in range(args.reps)]
    if args.trace:
        plan = [(k, t) for k in range(args.reps) for t in (False, True)]
    reps = []
    deadline = rep_s + REP_SLACK_S
    queue = [(k, traced, False) for k, traced in plan]
    reruns = 0
    while queue:
        k, traced, rerun = queue.pop(0)
        left = RUN_BUDGET_S - (time.monotonic() - t_run)
        if left < rep_s + 10.0:
            if not rerun:
                reps.append({"traced": traced, "skipped":
                             "not started: run time budget spent"})
            continue
        spans = (OUT_DIR / f"spans-{args.workload}-seed{args.seed}-rep{k}"
                 f".npz") if traced else None
        timeout = min(deadline, left - 2.0)
        r = run_rep(args.workload, args.seed * 1000 + k, rep_s, traced,
                    args.corrupt, timeout, env, spans)
        if (r.get("error") or "").startswith("hung") and timeout < deadline:
            # killed before its own deadline: the budget ran out, not
            # the program
            r = {"skipped": f"cut after {timeout:.0f}s: run time budget "
                            f"spent"}
        r["traced"] = traced
        reps.append(r)
        if r.get("verified") and r["steal_frac"] > STEAL_LIMIT:
            r["stolen"] = True
            if reruns < MAX_RERUNS:
                reruns += 1
                queue.append((k, traced, True))
    skipped = [r for r in reps if "skipped" in r]
    reps = [r for r in reps if "skipped" not in r]
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    for r in reps:
        if not r["verified"]:
            # a repetition that failed before its first op still counts
            # as one failed attempt
            r["attempted"] = max(r.get("attempted", 0), 1)
    attempted = max(1, sum(r["attempted"] for r in reps))
    failed = sum(r["attempted"] for r in reps if not r["verified"])
    correct = not failed and any(r["verified"] for r in untraced)
    e2e, counts = end_to_end(untraced)
    e2e["failed_frac"] = failed / attempted
    layers = per_layer(untraced, traced) if args.trace else None
    report(args, env_info, reps, e2e, counts, layers, attempted, failed)
    for r in skipped:
        print(f"  skipped a repetition: {r['skipped']}")
    if args.trace:
        metrics = {n: {"value": layers[0][n], "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e.get(n, 0.0), "unit": u}
                   for n, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
