"""Alternating parent/change benchmark pairs, written to one BENCH_<tag>.json.

Each side is a separate checkout of the repository.  For every pair the
same `perfbench/run.py --trace 0` command runs once in each checkout on
the same seed, for the run_seconds that BENCHMARK.json sets, and the side
that runs first alternates from pair to pair.
Every run's exit code and result line (the last stdout line of run.py)
are kept; a run that exits nonzero is kept with no result.  Each
end-to-end metric is summarized over the pairs: both sides' medians and
ranges, the change/parent ratio of the medians, the median and range of
the per-pair change/parent ratios, the parent's interquartile distance,
and in how many pairs the change was better.  The ratio of medians is
not a paired statistic: when the machine drifts within a series it can
disagree with the per-pair ratios, which compare runs made side by side.
The summary's "outcomes" entry gives each side's totals over its runs:
runs that exited nonzero, inputs attempted and failed, the failed share,
and how many runs reported correct.  Its "rss_per_1k_attempted" entry
gives each run's peak_rss_mb per 1,000 inputs attempted, in pair order:
a run that keeps every result grows with the inputs it attempts, so a
faster run can read higher on peak_rss_mb at the same memory per input.
Its "rss_at_parent_attempted" entry compares RSS at equal inputs: each
side's peak_rss_mb is fitted as a line in attempted over that side's
runs, and the change's line is read at the parent's median attempted,
beside the parent's median peak_rss_mb.  It is null when a side has
fewer than 3 runs or no spread in attempted.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --plan harness-tail:10:201 --plan harness-broad:5:101 \\
        --confirm harness-tail:1:9101 --tag hnf_replay --out BENCH_hnf_replay.json

A plan is WORKLOAD:PAIRS:FIRST_SEED (seeds FIRST_SEED, FIRST_SEED+1, ...).
--confirm takes the same form, for pairs on seeds not used while the
change was written; they are kept and summarized apart.  The file is
rewritten after every run, so an interrupted series keeps what it measured,
and an existing file is extended: its runs stay and new pairs are numbered
after them.  The file records the parent checkout's HEAD as the parent, or
null if the parent is not a git checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """(exit code, result): the result is the last stdout line of run.py,
    or None when the run exited nonzero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr[-2000:])
        return proc.returncode, None
    return 0, json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(dirs, workload, seeds, seconds, runs, save):
    first = len({r["pair"] for r in runs})  # a later plan continues the numbering
    for pair, seed in enumerate(seeds, start=first):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            code, result = run_once(dirs[side], workload, seed, seconds)
            runs.append({"pair": pair, "side": side, "seed": seed, "ran_first": side == order[0],
                         "exit_code": code, "result": result})
            save()
            done = (f"{result['metrics']['throughput_per_s']['value']:.1f}/s "
                    f"failed {result['failed']}" if result else f"exited {code}")
            print(f"{workload} pair {pair} seed {seed} {side}: {done}", flush=True)


def outcomes(runs):
    """Per side: runs, runs that exited nonzero, inputs attempted and
    failed, failed share, correct runs.  A run that exited nonzero has
    no result, so it counts as failed and not as correct."""
    out = {}
    for side in SIDES:
        side_runs = [r for r in runs if r["side"] == side]
        results = [r["result"] for r in side_runs if r["result"] is not None]
        attempted = sum(res["attempted"] for res in results)
        failed = sum(res["failed"] for res in results)
        out[side] = {
            "runs": len(side_runs),
            "failed_runs": len(side_runs) - len(results),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else None,
            "correct": sum(bool(res["correct"]) for res in results),
        }
    return out


def rss_per_1k_attempted(runs):
    """Per side, each run's peak_rss_mb per 1,000 attempted inputs, in
    pair order; runs without a result, an attempt or an RSS reading are
    left out."""
    out = {}
    for side in SIDES:
        results = [r["result"] for r in sorted(runs, key=lambda r: r["pair"])
                   if r["side"] == side and r["result"] and r["result"]["attempted"]]
        out[side] = [round(1000 * res["metrics"]["peak_rss_mb"]["value"] / res["attempted"], 4)
                     for res in results if "peak_rss_mb" in res["metrics"]]
    return out


def rss_at_parent_attempted(runs):
    """The change's fitted peak_rss_mb at the parent's median attempted
    inputs, its ratio to the parent's median peak_rss_mb, and each
    side's least-squares line (intercept in MB, slope in MB per 1,000
    attempted); None when a side has fewer than 3 runs with an RSS
    reading, or all of them attempted the same number of inputs."""
    lines, points = {}, {}
    for side in SIDES:
        points[side] = [(r["result"]["attempted"], r["result"]["metrics"]["peak_rss_mb"]["value"])
                        for r in runs if r["side"] == side and r["result"]
                        and "peak_rss_mb" in r["result"]["metrics"]]
        xs = [x for x, _ in points[side]]
        if len(xs) < 3 or len(set(xs)) < 2:
            return None
        lines[side] = statistics.linear_regression(xs, [y for _, y in points[side]])
    at = statistics.median(x for x, _ in points["parent"])
    parent_rss = statistics.median(y for _, y in points["parent"])
    slope, intercept = lines["change"]
    fitted = intercept + slope * at
    return {
        "parent_median_attempted": at,
        "parent_median_rss_mb": parent_rss,
        "change_fitted_rss_mb": round(fitted, 4),
        "ratio": round(fitted / parent_rss, 4),
        "lines": {side: {"intercept_mb": round(b, 4), "mb_per_1k_attempted": round(1000 * a, 4)}
                  for side, (a, b) in lines.items()},
    }


def summarize(runs, better):
    """Per metric: medians, ranges and quartile spread of each side, the
    per-pair ratios, and wins; under "outcomes", each side's
    attempted/failed/correct totals; under "rss_per_1k_attempted", each
    run's peak RSS per 1,000 attempted inputs; under
    "rss_at_parent_attempted", the change's fitted RSS at the parent's
    inputs."""
    pairs = sorted({r["pair"] for r in runs})
    value = {(r["pair"], r["side"]): r["result"]["metrics"] for r in runs if r["result"]}
    out = {"outcomes": outcomes(runs), "rss_per_1k_attempted": rss_per_1k_attempted(runs),
           "rss_at_parent_attempted": rss_at_parent_attempted(runs)}
    for name, direction in better.items():
        vals = {side: [value[p, side][name]["value"] for p in pairs if (p, side) in value]
                for side in SIDES}
        if not vals["parent"] or not vals["change"]:
            continue
        wins, ratios = 0, []
        for p in pairs:
            if (p, "parent") in value and (p, "change") in value:
                a, b = value[p, "parent"][name]["value"], value[p, "change"][name]["value"]
                wins += b < a if direction == "lower" else b > a
                if a:
                    ratios.append(b / a)
        q1, _, q3 = (statistics.quantiles(vals["parent"], n=4, method="inclusive")
                     if len(vals["parent"]) > 1 else vals["parent"] * 3)
        pm, cm = statistics.median(vals["parent"]), statistics.median(vals["change"])
        out[name] = {
            "parent_median": pm,
            "change_median": cm,
            "ratio": round(cm / pm, 4) if pm else None,
            "pair_ratio_median": round(statistics.median(ratios), 4) if ratios else None,
            "pair_ratio_range": [round(min(ratios), 4), round(max(ratios), 4)] if ratios else None,
            "change_wins": wins,
            "pairs": len(pairs),
            "parent_iqr": round(q3 - q1, 4),
            "parent_range": [min(vals["parent"]), max(vals["parent"])],
            "change_range": [min(vals["change"]), max(vals["change"])],
        }
    return out


def git_revision(checkout):
    """The short hash of the checkout's HEAD, or None if git cannot tell
    (say, a `git archive` copy)."""
    try:
        out = subprocess.run(["git", "-C", checkout, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--plan", action="append", default=[], help="WORKLOAD:PAIRS:FIRST_SEED")
    ap.add_argument("--confirm", action="append", default=[], help="WORKLOAD:PAIRS:FIRST_SEED")
    ap.add_argument("--tag", required=True)
    ap.add_argument("--describe", default="", help="one line on what the change does")
    ap.add_argument("--machine", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(dirs["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    else:
        doc = new_doc(args, git_revision(dirs["parent"]), seconds)

    def save():
        for section in ("workloads", "confirmation"):
            for entry in doc[section].values():
                entry["summary"] = summarize(entry["runs"], better)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    for section, plans in (("workloads", args.plan), ("confirmation", args.confirm)):
        for plan in plans:
            workload, pairs, first = plan.split(":")
            entry = doc[section].setdefault(workload, {"runs": [], "summary": {}})
            run_pairs(dirs, workload, range(int(first), int(first) + int(pairs)),
                      seconds, entry["runs"], save)


def new_doc(args, parent_rev, seconds):
    return {
        "tag": args.tag,
        "change": args.describe,
        "parent": parent_rev,
        "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                   f"--seconds {seconds} --trace 0",
        "protocol": "alternating parent/change pairs on one seed each, the first side "
                    "alternating from pair to pair; each side runs from its own checkout",
        "machine": args.machine or f"{platform.machine()}, {os.cpu_count()} cpus, "
                                   f"Python {platform.python_version()}",
        "summary_fields": "medians over pairs; ratio is the change/parent ratio of the medians, "
                          "pair_ratio_median and pair_ratio_range summarize the per-pair "
                          "change/parent ratios; change_wins counts pairs where the change is "
                          "better; parent_iqr is the distance between the parent's quartiles; "
                          "rss_per_1k_attempted is each run's peak_rss_mb per 1,000 attempted "
                          "inputs, in pair order; rss_at_parent_attempted reads the change's "
                          "least-squares line of peak_rss_mb in attempted at the parent's median "
                          "attempted, and gives its ratio to the parent's median peak_rss_mb",
        "workloads": {},
        "confirmation": {},
    }


if __name__ == "__main__":
    main()
