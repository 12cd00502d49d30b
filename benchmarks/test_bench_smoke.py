"""Smoke test of the benchmark at tiny sizes, untraced and traced.

Every metric BENCHMARK.json names must be reported with its unit, and every
command and check of the run must pass.
"""

import json
from dataclasses import replace

import pytest

import bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def shrink(workload, n_stream, n_test, **flags):
    """The workload with smaller data and some `run` flags replaced or added."""
    out = list(workload.flags)
    for key, value in flags.items():
        flag = f"--{key}"
        if flag in out:
            out[out.index(flag) + 1] = value
        else:
            out += [flag, value]
    return replace(workload, n_stream=n_stream, n_test=n_test, flags=tuple(out))


W = bench.WORKLOADS
TINY = {
    "continual-d20": shrink(W["continual-d20"], 600, 100, B="128", b0="32",
                            iters="5", seeds="1,2"),
    "image-d784": replace(shrink(W["image-d784"], 600, 100, B="256", b0="64",
                                 iters="5"), side=8),
    "sliding-w255": shrink(W["sliding-w255"], 120, 40, w="7", iters="5"),
}


def test_tiny_workloads_cover_every_benchmark_workload():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"]) == sorted(W)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_reported_with_unit(workload, trace, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(bench.ROOT / "src"))
    monkeypatch.setattr(bench, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(bench, "VERIFY_MIN_S", 0.0)
    result = bench.run(workload, seed=3, seconds=0.0, trace=bool(trace),
                       workdir=tmp_path, workloads=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    from streamdp import cli, harness

    assert not hasattr(cli.replay, "__wrapped__")  # the tracer put the originals back
    assert not hasattr(harness.execute, "__wrapped__")


def test_missing_wrap_target_leaves_its_metrics_out(monkeypatch):
    import tracer

    monkeypatch.syspath_prepend(str(bench.ROOT / "src"))
    monkeypatch.setitem(tracer.TARGETS, "harness.replay", ([("streamdp.gone", "replay")], None))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == {"harness.replay"}
    metrics = tracer.layer_metrics(t)
    assert "harness.replay_self_s" not in metrics and "erm.sgd_s" in metrics


def test_host_speed_correction_scales_by_probe_speed():
    import hostspeed

    speed = hostspeed.HostSpeed()
    speed.starts = [float(i) for i in range(20)]
    speed.probes = [2 * hostspeed.REF_S] * 20  # the core ran at half speed
    probes_inside = 10 * 2 * hostspeed.REF_S  # the probes started at 5.0 .. 14.0
    assert speed.corrected(5.0, 15.0) == pytest.approx((10.0 - probes_inside) / 2)
    assert speed.corrected(5.0, 5.5) == pytest.approx((0.5 - 2 * hostspeed.REF_S) / 2)
