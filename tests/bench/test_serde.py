"""The serialization microbenchmark runs end to end at smoke size."""

from repro.bench import serde


def test_serde_bench_smoke():
    r = serde.run(ranks=2, iters=4, kv_keys=32, log2_table_size=6, reps=1)
    for mode in ("pickle", "codec"):
        assert r.send_am_p50_us[mode] > 0, mode
        assert r.kv_get_p50_us[mode] > 0, mode
        assert r.gups[mode] > 0, mode
    # every frame of the AM/KV workload, ping-pong included, stays on
    # the fixed-layout path in codec mode
    assert r.wire_frames > 0
    assert r.wire_fixed_rate == 1.0, r.stats
