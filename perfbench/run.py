"""fpmod benchmark: three closed-loop workloads, end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload harness-broad --seed 1 --seconds 20 --trace 0

Workloads: harness-broad, harness-tail, cli-requests (see workloads.py).
The timed loop runs whole passes over the workload's inputs until at least
--seconds have gone by; outputs are checked after the loop.

--trace 0 prints the end-to-end metrics: setup_s (median of several
set-ups, each a fresh interpreter importing fpmod plus generating the
workload's inputs), throughput_per_s, latency_p50_ms, latency_tail_ms (the
highest percentile with at least ten of a pass's latencies beyond it, taken
over the latencies of every pass) and peak_rss_mb.  --trace 1 runs the loop
untraced and then traced, and prints the per-layer metrics (spans.py); the
spans are written to perfbench/out/.

The second-to-last stdout line is a JSON report (environment, failed
fraction, tail percentile, traffic fingerprint, slowest instances); the
last line is the result: {"correct", "attempted", "failed", "metrics"}.
fpmod is imported from ./src and always with FPMOD_PURE=1, so every result
is from the same pure-Python backend.
"""

import argparse
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("harness-broad", "harness-tail", "cli-requests")
SETUP_REPS = 9
SLOWEST_K = 5
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def tail_percentile(n):
    """Highest of the conventional percentiles with at least TAIL_BEYOND of
    n samples beyond it; the median when n is too small for any."""
    return next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= TAIL_BEYOND), 50)


def percentile(samples, p):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


class Measurement:
    """Latencies of the whole passes of one timed loop."""

    def __init__(self):
        self.passes = []  # per pass: [(key, seconds)]
        self.results = []  # (key, result) for the workload's check
        self.wall = 0.0

    @property
    def count(self):
        return len(self.results)

    def throughput(self):
        return self.count / self.wall

    def latencies(self):
        return [dt for p in self.passes for _key, dt in p]

    def latency_p50(self):
        return statistics.median(self.latencies())

    def tail_percentile(self):
        """The tail percentile for one pass.  Every pass of a workload has
        the same size, so the percentile does not change with the number
        of passes, which grows as the program gets faster."""
        return tail_percentile(len(self.passes[0]))

    def latency_tail(self):
        """The tail percentile of every latency of the loop, pooled over
        its passes: a single pass puts the percentile on one or two
        inputs, and timing noise reorders them from pass to pass."""
        return percentile(self.latencies(), self.tail_percentile())


def measure(workload, seconds, tracer=None):
    m = Measurement()
    clock = time.perf_counter
    start = clock()
    while True:
        lat = []
        if tracer is not None:
            tracer.new_pass()
        for key in workload.next_pass():
            if tracer is not None:
                tracer.current_instance = key
            t0 = clock()
            result = workload.run_one(key)
            lat.append((key, clock() - t0))
            m.results.append((key, result))
        m.passes.append(lat)
        if clock() - start >= seconds:
            break
    m.wall = clock() - start
    return m


def fpmod_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["FPMOD_PURE"] = "1"
    return env


def set_up(workloads, name, seed, reps):
    """(workload, median set-up seconds) over reps fresh set-ups."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fpmod"], cwd=ROOT, env=fpmod_env(), check=True)
        workload = workloads.make(name, seed, OUT)
        workload.setup()
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def environment(fpmod):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": getattr(fpmod, "BACKEND", None),
        "FPMOD_PURE": os.environ.get("FPMOD_PURE"),
    }


def traffic_report(name, workload):
    """The run's traffic fingerprint against the recorded one."""
    if workload.traffic is None:
        return None
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        recorded = json.load(fh).get(name)
    changed = recorded != workload.traffic
    if changed:
        print(
            f"perfbench: WARNING {name} traffic differs from the recorded fingerprint; "
            "timings are not comparable with runs on the recorded traffic",
            file=sys.stderr,
        )
    return dict(workload.traffic, recorded=recorded, changed=changed)


def slowest(workload, m, tracer, k=SLOWEST_K):
    """The k slowest inputs of a traced loop, with their largest SNF."""
    worst = {}
    for p in m.passes:
        for key, dt in p:
            worst[key] = max(worst.get(key, 0.0), dt)
    out = []
    for key in sorted(worst, key=worst.get, reverse=True)[:k]:
        _cells, shape, bits = tracer.per_instance.get(key, [0, (0, 0), 0])
        out.append(
            {"instance": workload.label(key), "latency_ms": worst[key] * 1e3, "snf_shape": list(shape), "peak_bits": bits}
        )
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args):
    os.environ["FPMOD_PURE"] = "1"
    sys.path.insert(0, SRC)
    import fpmod
    import spans
    import workloads

    if getattr(fpmod, "BACKEND", "pure") != "pure":
        raise SystemExit("perfbench: fpmod did not load the pure backend")
    os.makedirs(OUT, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    report["env"] = environment(fpmod)
    if args.trace:
        workload, _ = set_up(workloads, args.workload, args.seed, 1)
        plain = measure(workload, args.seconds)
        with spans.Tracer() as tracer:
            traced = measure(workload, args.seconds, tracer)
        runs = [plain, traced]
        values = tracer.summary()
        values["trace.wall_s"] = traced.wall
        values["trace.throughput_delta_per_s"] = traced.throughput() - plain.throughput()
        metrics = {name: metric(values[name], unit) for name, unit in spans.per_layer_metric_units()}
        report["slowest"] = slowest(workload, traced, tracer)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        with gzip.open(spans_path, "wt") as fh:
            tracer.write_spans(fh)
        report["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        workload, setup_s = set_up(workloads, args.workload, args.seed, SETUP_REPS)
        m = measure(workload, args.seconds)
        runs = [m]
        values = {
            "setup_s": setup_s,
            "throughput_per_s": m.throughput(),
            "latency_p50_ms": m.latency_p50() * 1e3,
            "latency_tail_ms": m.latency_tail() * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    report["latency_tail"] = {
        "percentile": runs[0].tail_percentile(),
        "samples_per_pass": len(runs[0].passes[0]),
        "samples": len(runs[0].latencies()),
    }
    attempted = sum(m.count for m in runs)
    failed = workload.count_failed([r for m in runs for r in m.results])
    report["failed_frac"] = metric(failed / attempted, "frac")
    report["traffic"] = traffic_report(args.workload, workload)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fpmod", "__init__.py")):
        print(f"perfbench: no fpmod source under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
