"""Tests of the benchmark itself: the percentile rule, span self time,
restoring the wrapped layers, and a tiny run of every workload.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import os
import sys

import pytest

import cli_pool
import run
import spans
import workloads
from fpmod import harness
from fpmod.fpmodule import FpModule
from fpmod.homtensor import HomModule
from fpmod.matrix import Mat

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


# ---------------------------------------------------------------------------
# percentile rule


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(20000) == 99.9
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(403) == 95
    assert run.tail_percentile(275) == 95
    assert run.tail_percentile(199) == 90
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(33) == 50
    assert run.tail_percentile(5) == 50


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))
    assert run.percentile(samples, 95) == 95
    assert sum(1 for s in samples if s > run.percentile(samples, 95)) == 5
    assert run.percentile(samples, 50) == 50
    assert run.percentile([7.0], 99) == 7.0


def test_tail_pools_the_latencies_of_every_pass():
    m = run.Measurement()
    m.passes = [[(0, float(v)) for v in range(base, base + 40)] for base in (0, 100, 1000)]
    assert m.tail_percentile() == 75  # of a 40-sample pass
    assert m.latency_tail() == 1009.0  # p75 of all 120 samples: the 90th
    assert m.latency_p50() == 119.5


# ---------------------------------------------------------------------------
# self time


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", fake)
    return fake


def totals(tracer):
    selfs = tracer.self_times()
    out = {}
    for j, s in enumerate(selfs):
        name = tracer.names[tracer.name[j]]
        calls, secs = out.get(name, (0, 0.0))
        out[name] = (calls + 1, secs + s)
    return out


def test_self_time_subtracts_nested_children(clock):
    tr = spans.Tracer()

    def inner():
        clock.work(2.0)

    inner = tr.wrap("inner", inner)

    def outer():
        clock.work(1.0)
        inner()
        clock.work(0.5)
        inner()

    tr.wrap("outer", outer)()
    assert totals(tr) == {"outer": (1, 1.5), "inner": (2, 4.0)}


def test_self_time_of_recursive_spans_is_not_double_counted(clock):
    tr = spans.Tracer()
    box = {}

    def rec(n):
        clock.work(1.0)
        if n:
            box["rec"](n - 1)
        clock.work(0.25)

    box["rec"] = tr.wrap("rec", rec)
    box["rec"](2)
    assert totals(tr) == {"rec": (3, 3.75)}
    assert list(tr.parent) == [-1, 0, 1]


def test_span_closes_when_the_call_raises(clock):
    tr = spans.Tracer()

    def failing():
        clock.work(1.0)
        raise ValueError("boom")

    failing = tr.wrap("failing", failing)

    def outer():
        clock.work(2.0)
        with pytest.raises(ValueError):
            failing()

    tr.wrap("outer", outer)()
    assert totals(tr) == {"outer": (1, 2.0), "failing": (1, 1.0)}


# ---------------------------------------------------------------------------
# wrapping and restoring


def fpmod_bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "fpmod" or name.startswith("fpmod."):
            out[name] = dict(vars(mod))
    for cls in (Mat, FpModule, HomModule):
        out[cls.__name__] = dict(cls.__dict__)
    out["SUITES"] = dict(harness.SUITES)
    return out


def test_tracer_patches_every_binding_and_restores_them():
    import fpmod
    from fpmod import devissage, fpmodule, limits, normal_forms

    before = fpmod_bindings()
    original_snf = normal_forms.snf
    with spans.Tracer() as tr:
        for mod in (fpmod, normal_forms, fpmodule, limits, devissage):
            assert mod.snf.perfbench_span == spans.SNF
        assert Mat.mul.perfbench_span == "matrix.Mat.mul"
        assert harness.shrink.perfbench_span == spans.SHRINK
        assert harness._run_one("snf_roundtrip", 0, harness.HarnessConfig(seed=1, trials=1)) is None
    assert tr.summary()[f"{spans.SNF}.calls"] > 0
    after = fpmod_bindings()
    for owner, attrs in before.items():
        for attr, value in attrs.items():
            assert after[owner][attr] is value, f"{owner}.{attr} not restored"
    assert normal_forms.snf is original_snf
    for attrs in after.values():
        assert not any(hasattr(v, "perfbench_span") for v in attrs.values())


# ---------------------------------------------------------------------------
# smoke runs


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's pass so one pass takes a second or less;
    returns the cli-requests pool of one request per subcommand."""
    configs = {
        "harness-broad": harness.HarnessConfig(seed=0, trials=1, max_gens=3, max_entry=6),
        "harness-tail": harness.HarnessConfig(seed=42, trials=1),
    }
    monkeypatch.setattr(workloads, "HARNESS_CONFIGS", configs)
    first = {}
    for entry in cli_pool.load_pool(workloads.CliWorkload.POOL):
        first.setdefault(entry["cmd"], entry)
    pool = list(first.values())
    monkeypatch.setattr(cli_pool, "load_pool", lambda path: pool)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setenv("FPMOD_PURE", "1")
    return pool


def result_of(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    before = fpmod_bindings()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    report, result = result_of(capsys, argv)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert report["env"]["backend"] == "pure" and report["failed_frac"]["value"] == 0.0
    if trace:
        assert result["metrics"]["harness.shrink.calls"]["value"] == 0
        assert report["slowest"]
        after = fpmod_bindings()
        assert all(after[o][a] is v for o, attrs in before.items() for a, v in attrs.items())


def test_changed_traffic_is_flagged(tiny, capsys):
    report, result = result_of(capsys, ["--workload", "harness-tail", "--seed", "1", "--seconds", "0"])
    assert report["traffic"]["changed"] is True
    assert result["correct"]


def test_failed_check_counts_as_failed(tiny, capsys, monkeypatch):
    wrong = [dict(e, expect={"wrong": True}) for e in tiny]
    monkeypatch.setattr(cli_pool, "load_pool", lambda path: wrong)
    report, result = result_of(capsys, ["--workload", "cli-requests", "--seed", "1", "--seconds", "0"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(cli_pool.COMMANDS)
    assert report["failed_frac"]["value"] == 1.0


def test_bare_directory_fails_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "harness-broad", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
