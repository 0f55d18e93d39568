"""tools/bench_pairs.py: the per-workload summary of alternating pairs."""

import importlib.util
import json
import os
import statistics

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"throughput_per_s": "higher", "latency_p50_ms": "lower"}


def _run(pair, side, tput, p50, attempted=100, failed=0, correct=True, rss=30.0):
    metrics = {"throughput_per_s": {"value": tput}, "latency_p50_ms": {"value": p50},
               "peak_rss_mb": {"value": rss}}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"pair": pair, "side": side, "seed": pair, "ran_first": True, "result": result}


def test_wins_count_by_direction():
    runs = [
        _run(0, "parent", 100, 2.0), _run(0, "change", 120, 1.5),  # change better on both
        _run(1, "parent", 100, 2.0), _run(1, "change", 90, 2.5),  # change worse on both
        _run(2, "parent", 110, 1.0), _run(2, "change", 130, 3.0),  # better throughput only
    ]
    out = bench_pairs.summarize(runs, BETTER)
    assert out["throughput_per_s"]["change_wins"] == 2
    assert out["latency_p50_ms"]["change_wins"] == 1
    assert out["throughput_per_s"]["pairs"] == 3
    assert out["throughput_per_s"]["parent_median"] == 100
    assert out["throughput_per_s"]["change_median"] == 120
    assert out["throughput_per_s"]["ratio"] == 1.2
    assert out["throughput_per_s"]["parent_iqr"] == 5
    assert out["latency_p50_ms"]["change_range"] == [1.5, 3.0]


def test_per_pair_ratios_beside_the_ratio_of_medians():
    # the series drifts: the medians' ratio reads 0.7 while the pairs,
    # run side by side, read even
    runs = [
        _run(0, "parent", 100, 2.0), _run(0, "change", 100, 2.0),
        _run(1, "parent", 150, 2.0), _run(1, "change", 105, 1.0),
        _run(2, "parent", 200, 2.0), _run(2, "change", 220, 4.0),
    ]
    out = bench_pairs.summarize(runs, BETTER)
    tput = out["throughput_per_s"]
    assert tput["ratio"] == 0.7
    assert tput["pair_ratio_median"] == 1.0
    assert tput["pair_ratio_range"] == [0.7, 1.1]
    assert tput["change_wins"] == 1
    p50 = out["latency_p50_ms"]
    assert p50["pair_ratio_median"] == 1.0 and p50["pair_ratio_range"] == [0.5, 2.0]
    assert p50["change_wins"] == 1


def test_peak_rss_per_thousand_attempted_per_run():
    runs = [
        _run(1, "change", 100, 2.0, attempted=4000, rss=40.0),
        _run(1, "parent", 100, 2.0, attempted=2000, rss=36.0),
        _run(0, "parent", 100, 2.0, attempted=1000, rss=30.0),
        _run(0, "change", 100, 2.0, attempted=3000, rss=33.0),
        {"pair": 2, "side": "change", "seed": 2, "ran_first": True, "result": None},
    ]
    out = bench_pairs.summarize(runs, BETTER)["rss_per_1k_attempted"]
    assert out == {"parent": [30.0, 18.0], "change": [11.0, 10.0]}


def _rss_runs(change_extra_mb):
    """Four pairs in which both sides hold 20 MB plus 1 MB per 1,000
    inputs, the change attempting twice as many as the parent and
    holding change_extra_mb more at every input count."""
    runs = []
    for pair, attempted in enumerate((1000, 2000, 3000, 4000)):
        runs.append(_run(pair, "parent", 100, 2.0, attempted=attempted, rss=20 + attempted / 1000))
        runs.append(_run(pair, "change", 200, 2.0, attempted=2 * attempted,
                         rss=20 + change_extra_mb + 2 * attempted / 1000))
    return runs


def test_rss_compared_at_the_parents_inputs():
    # the change's median RSS reads 25 MB to the parent's 22.5 MB, at the
    # same memory per input
    runs = _rss_runs(0)
    assert statistics.median(r["result"]["metrics"]["peak_rss_mb"]["value"]
                             for r in runs if r["side"] == "change") == 25
    out = bench_pairs.summarize(runs, BETTER)["rss_at_parent_attempted"]
    assert out["parent_median_attempted"] == 2500
    assert out["parent_median_rss_mb"] == 22.5
    assert out["change_fitted_rss_mb"] == 22.5 and out["ratio"] == 1.0
    line = {"intercept_mb": 20.0, "mb_per_1k_attempted": 1.0}
    assert out["lines"] == {"parent": line, "change": line}
    out = bench_pairs.summarize(_rss_runs(1), BETTER)["rss_at_parent_attempted"]
    assert out["change_fitted_rss_mb"] == 23.5 and out["ratio"] == round(23.5 / 22.5, 4)


def test_rss_at_parent_attempted_needs_three_runs_with_spread():
    def runs(attempted, sides=("parent", "change")):
        return [_run(p, side, 100, 2.0, attempted=a) for p, a in enumerate(attempted) for side in sides]

    assert bench_pairs.summarize(runs((1000, 2000, 3000)), BETTER)["rss_at_parent_attempted"]
    two = runs((1000, 2000))
    assert bench_pairs.summarize(two, BETTER)["rss_at_parent_attempted"] is None
    # a run without a result is no point of the fit
    two_and_failed = two + runs((3000,), ["parent"]) + [
        {"pair": 2, "side": "change", "seed": 2, "ran_first": True, "result": None}]
    assert bench_pairs.summarize(two_and_failed, BETTER)["rss_at_parent_attempted"] is None
    no_spread = runs((1000, 1000, 1000))
    assert bench_pairs.summarize(no_spread, BETTER)["rss_at_parent_attempted"] is None


METRICS = {"throughput_per_s": {"better": "higher", "bound": 0.25},
           "latency_p50_ms": {"better": "lower", "bound": 0.25}}


def _marked(parent, change):
    """The marked summary of pairs of (throughput, p50) runs."""
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change)):
        runs += [_run(pair, "parent", *a), _run(pair, "change", *b)]
    out = bench_pairs.summarize(runs, BETTER)
    bench_pairs.mark_bounds(out, METRICS)
    return out["throughput_per_s"], out["latency_p50_ms"]


def test_within_bound_allows_the_bound_in_the_worse_direction():
    parent = [(100, 2.0)] * 3
    tput, p50 = _marked(parent, [(76, 2.4)] * 3)  # 24% and 20% worse
    assert tput["within_bound"] and p50["within_bound"]
    tput, p50 = _marked(parent, [(74, 2.6)] * 3)  # 26% and 30% worse
    assert not tput["within_bound"] and not p50["within_bound"]
    tput, p50 = _marked(parent, [(200, 0.5)] * 3)  # better is always within
    assert tput["within_bound"] and p50["within_bound"]


def test_resolved_needs_a_narrow_parent_or_a_clean_separation():
    # the parent's quartiles 100 and 150 lie 50 apart, wider than 25% of
    # its median 120, on both metrics
    wide = [(80, 1.0), (100, 2.0), (120, 3.0), (150, 4.0), (200, 5.0)]
    tput, p50 = _marked(wide, [(110, 2.5)] * 5)
    assert tput["parent_iqr"] == 50 and tput["within_bound"] and not tput["resolved"]
    assert not p50["resolved"]
    # every change run better than every parent run resolves it
    tput, p50 = _marked(wide, [(210, 0.5), (220, 0.9)] + [(250, 0.6)] * 3)
    assert tput["resolved"] and p50["resolved"]
    # so does a parent spread within the bound, whichever way the change moves
    narrow = [(100, 2.0), (101, 2.1), (102, 2.2), (103, 2.3), (104, 2.4)]
    tput, p50 = _marked(narrow, [(50, 9.0)] * 5)
    assert tput["resolved"] and not tput["within_bound"]
    assert p50["resolved"] and not p50["within_bound"]
    # below three pairs there is no spread to judge
    tput, p50 = _marked(wide[:2], [(110, 2.5)] * 2)
    assert tput["resolved"] is None and p50["resolved"] is None


def test_one_run_has_zero_iqr():
    out = bench_pairs.summarize([_run(0, "parent", 100, 2.0), _run(0, "change", 90, 2.0)], BETTER)
    assert out["throughput_per_s"]["parent_iqr"] == 0
    assert out["throughput_per_s"]["change_wins"] == 0
    assert out["latency_p50_ms"]["change_wins"] == 0  # a tie is no win


def test_outcomes_total_failed_and_correct_per_side():
    runs = [
        _run(0, "parent", 100, 2.0, attempted=200, failed=0),
        _run(0, "change", 120, 1.5, attempted=240, failed=3, correct=False),
        _run(1, "change", 110, 1.5, attempted=260, failed=1),
        _run(1, "parent", 100, 2.0, attempted=200, failed=0),
    ]
    out = bench_pairs.summarize(runs, BETTER)["outcomes"]
    assert out["parent"] == {
        "runs": 2, "failed_runs": 0, "attempted": 400, "failed": 0, "failed_share": 0.0,
        "correct": 2,
    }
    assert out["change"]["runs"] == 2
    assert out["change"]["attempted"] == 500 and out["change"]["failed"] == 4
    assert out["change"]["failed_share"] == pytest.approx(0.008)
    assert out["change"]["correct"] == 1


def test_a_side_without_runs_is_left_out_of_the_metrics():
    out = bench_pairs.summarize([_run(0, "parent", 100, 2.0)], BETTER)
    assert "throughput_per_s" not in out
    assert out["outcomes"]["change"] == {
        "runs": 0, "failed_runs": 0, "attempted": 0, "failed": 0, "failed_share": None,
        "correct": 0,
    }


def _checkout(tmp_path, name, body):
    """A directory whose perfbench/run.py is the given script."""
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(body)
    return str(root)


def test_a_run_that_exits_nonzero_is_kept_and_counted_failed(tmp_path):
    line = {"correct": True, "attempted": 50, "failed": 0,
            "metrics": {"throughput_per_s": {"value": 100.0}, "latency_p50_ms": {"value": 2.0}}}
    dirs = {
        "parent": _checkout(tmp_path, "parent", f"print({json.dumps(json.dumps(line))})\n"),
        "change": _checkout(tmp_path, "change", "import sys\nsys.exit(3)\n"),
    }
    runs = []
    bench_pairs.run_pairs(dirs, "harness-tail", [7, 8], 1, runs, lambda: None)
    assert [(r["pair"], r["side"], r["exit_code"]) for r in runs] == [
        (0, "parent", 0), (0, "change", 3), (1, "change", 3), (1, "parent", 0),
    ]
    assert all(r["result"] is None for r in runs if r["side"] == "change")
    out = bench_pairs.summarize(runs, BETTER)
    assert out["outcomes"]["change"]["runs"] == 2
    assert out["outcomes"]["change"]["failed_runs"] == 2
    assert out["outcomes"]["change"]["correct"] == 0
    assert out["outcomes"]["parent"]["failed_runs"] == 0
    assert out["outcomes"]["parent"]["attempted"] == 100
    assert "throughput_per_s" not in out  # no pair has both sides


def test_git_revision_is_none_outside_a_checkout(tmp_path):
    assert bench_pairs.git_revision(str(tmp_path)) is None


def _gain(parent, change, metric="throughput_per_s"):
    """gain_shown of metric over pairs whose runs read the one given
    value on both metrics."""
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change)):
        runs += [_run(pair, "parent", a, a), _run(pair, "change", b, b)]
    return bench_pairs.summarize(runs, BETTER)[metric]["gain_shown"]


def test_gain_shown_needs_ten_pairs_nine_wins_and_a_gap_past_the_iqr():
    # the parent's quartiles lie 4.5 apart (IQR of 100..109)
    parent = list(range(100, 110))
    assert _gain(parent, [p + 10 for p in parent])
    # the same runs are a loss where lower is better
    assert not _gain(parent, [p + 10 for p in parent], "latency_p50_ms")
    assert _gain(parent, [p - 10 for p in parent], "latency_p50_ms")
    # 8 wins in 10, however large the gain
    assert not _gain(parent, [p + 50 for p in parent[:8]] + parent[8:])
    # 10 wins, but the medians differ by 4, within the IQR
    assert not _gain(parent, [p + 4 for p in parent])
    # 9 wins and a tie: the tie counts for neither side
    assert _gain(parent, [p + 10 for p in parent[:9]] + parent[9:])
    # below 10 pairs there is no verdict
    assert _gain(parent[:9], [p + 10 for p in parent[:9]]) is None
