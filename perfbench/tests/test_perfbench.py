"""The benchmark's own tests: smoke sizes of every workload, the metric
contract of BENCHMARK.json, and failure accounting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

#: Short enough for a single repetition.
SMOKE = ["--seconds", "0.5"]


def bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess,
                                                  dict | None]:
    p = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "7",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return p, last


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["kv-zipf", "gups", "halo3d"])
def test_smoke_workload_verifies(workload):
    p, res = bench("--workload", workload, *SMOKE)
    assert p.returncode == 0, p.stderr
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert "verified" in p.stdout


def test_smoke_ring_workload_never_crashes_the_benchmark():
    p, res = bench("--workload", "kv-zipf-proc", *SMOKE)
    assert p.returncode == 0, p.stderr
    assert res["attempted"] >= 1
    if not res["correct"]:
        # a failing repetition is charged as failed ops, with its error
        assert res["failed"] >= 1
        assert "FAILED after" in p.stdout


def test_declared_metrics_match_the_benchmark():
    s = spec()
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == run.PER_LAYER
    assert set(w["name"] for w in s["workloads"]) <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, key):
    p, res = bench("--workload", "halo3d", "--trace", trace, *SMOKE)
    assert p.returncode == 0, p.stderr
    for m in spec()[key]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert m["name"] in p.stdout
    if trace == "1":
        assert "trace.overhead_ratio" in p.stdout
        assert "unattributed" in p.stdout


def test_traced_run_names_absent_ring_metrics_on_smp():
    p, _res = bench("--workload", "kv-zipf", "--trace", "1", *SMOKE)
    assert p.returncode == 0, p.stderr
    ring = [ln for ln in p.stdout.splitlines()
            if ln.strip().startswith("ring.")]
    assert ring and all("absent: smp has no ring transport" in ln
                        for ln in ring)


@pytest.mark.parametrize("workload", ["gups", "kv-zipf", "halo3d"])
def test_corrupted_output_is_reported_as_failed_ops(workload):
    p, res = bench("--workload", workload, "--corrupt", *SMOKE)
    assert p.returncode == 0, p.stderr
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] >= 1
    assert "output check failed" in p.stdout


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p, res = bench("--workload", "kv-zipf", *SMOKE, cwd=tmp_path)
    assert p.returncode != 0
    assert res is None


def test_repetition_past_its_deadline_is_killed_and_charged():
    env, _cleared = run.child_env()
    run.OUT_DIR.mkdir(exist_ok=True)
    shm_before = run._shm_names()
    r = run.run_rep("gups", 7, 20.0, False, False, 4.0, env, None)
    assert r["verified"] is False
    assert r["error"].startswith("hung: killed")
    assert r["attempted"] >= 1  # read back from the progress file
    assert run._shm_names() <= shm_before


def test_repetition_count_follows_the_run_length():
    assert run.rep_count(0.5) == 1
    assert run.rep_count(3.0) == 3
    assert run.rep_count(20.0) == run.REPS


@pytest.mark.parametrize("broken", ["noop", "wrong_offset"])
def test_gups_check_catches_a_broken_atomic_batch(monkeypatch, broken):
    import numpy as np

    import repro

    real = repro.SharedArray.atomic_batch

    def atomic_batch(self, indices, op, operands, return_old=False):
        if broken == "wrong_offset":
            return real(self, (np.asarray(indices) + 1) % self.size, op,
                        operands)
        return None

    monkeypatch.setattr(repro.SharedArray, "atomic_batch", atomic_batch)
    inputs = wl.make_inputs("gups", 7, 0.2)
    results = repro.spmd(wl.gups_body, ranks=wl.RANKS, conduit="smp",
                         segment_size=wl.SEGMENT_SIZE,
                         kwargs=dict(inputs=inputs, seconds=0.2, tracer=None,
                                     progress=np.zeros(wl.RANKS, np.int64),
                                     corrupt=False, proc=False))
    assert results[0]["ops"] >= 1
    assert not any(r["ok"] for r in results)


def test_repetition_past_the_run_budget_is_skipped_not_failed(
        monkeypatch, capsys):
    monkeypatch.setattr(run, "RUN_BUDGET_S", 12.0)
    assert run.main(["--workload", "gups", "--seed", "7",
                     "--seconds", "2"]) == 0
    out = capsys.readouterr().out
    res = json.loads(out.strip().splitlines()[-1])
    assert "skipped a repetition: not started" in out
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


def test_medians_leave_out_repetitions_over_the_steal_limit():
    clean = {"verified": True}
    stolen = {"verified": True, "stolen": True}
    failed = {"verified": False}
    assert run.measured([clean, stolen, failed]) == [clean]
    # when every repetition was over the limit, all verified ones count
    assert run.measured([stolen, failed]) == [stolen]
