"""The benchmark's workloads.

Each workload is a closed loop with one client: the next instance or
request starts when the previous one has returned.  A workload hands out
its inputs in passes (one pass is the whole instance set, or one drawn
request stream), runs one input through fpmod's public entry point, and
checks the results after the timed loop.

- harness-broad: ``fpmod harness`` at its CLI defaults (seed 0, 25 trials
  x 11 suites, max_gens 3, max_entry 6, the five default rings).  Many
  millisecond-sized instances and no coefficient blow-up, so per-call
  overhead in rings/matrix/normal_forms dominates.
- harness-tail: ``HarnessConfig(seed=42, trials=3)`` with the library
  defaults (max_gens 4, max_entry 10), the config of acceptance
  criterion 10.  One domination instance spends nearly all of the time
  in one SNF whose transforms grow to hundreds of thousands of bits.
- cli-requests: the 403 single JSON requests of the committed request
  pool (cli_pool.py) through ``fpmod.cli.run_command``; the only workload
  that goes through jsonio/cli.

Every workload has a fixed input set, and the benchmark seed shuffles the
order of every pass.  The harness seeds are pinned because the instance
set is what defines a harness workload: a random harness seed can draw a
30 s instance, or none, and then runs on different seeds would measure
different work.
"""

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

from fpmod import harness
from fpmod.cli import run_command
from fpmod.jsonio import dumps

import cli_pool
import spans

HARNESS_CONFIGS = {
    "harness-broad": harness.HarnessConfig(seed=0, trials=25, max_gens=3, max_entry=6),
    "harness-tail": harness.HarnessConfig(seed=42, trials=3),
}


def run_request(argv):
    """One CLI invocation in-process: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue()


def harness_traffic(cfg):
    """Digest of the generated instance stream and its peak entry bits."""
    digest = hashlib.sha256()
    peak = 0
    for suite in sorted(harness.SUITES):
        gen, _ = harness.SUITES[suite]
        for index in range(cfg.trials):
            inst = gen(random.Random(harness.derived_seed(cfg.seed, suite, index)), cfg)
            digest.update(dumps([suite, index, inst]).encode())
            peak = max([peak] + [spans.rows_bits(rows) for rows in inst["mats"].values()])
    return {"digest": digest.hexdigest(), "gen_peak_bits": peak}


class HarnessWorkload:
    """Harness instances through the per-instance path, generation to check."""

    def __init__(self, cfg, seed):
        self.cfg = cfg
        self.keys = [(s, i) for s in sorted(harness.SUITES) for i in range(self.cfg.trials)]
        self.rng = random.Random(seed)
        self.traffic = None

    def setup(self):
        self.traffic = harness_traffic(self.cfg)

    def next_pass(self):
        order = list(range(len(self.keys)))
        self.rng.shuffle(order)
        return order

    def run_one(self, key):
        suite, index = self.keys[key]
        return harness._run_one(suite, index, self.cfg) is None

    def count_failed(self, results):
        return sum(1 for _key, passed in results if not passed)

    def label(self, key):
        suite, index = self.keys[key]
        return f"{suite}#{index}"


class CliWorkload:
    """Requests from the pool, each read from its own input file."""

    POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_pool.json")

    def __init__(self, seed, out_dir):
        self.rng = random.Random(seed)
        self.doc_dir = os.path.join(out_dir, "cli-docs")
        self.pool = self.argv = None
        self.traffic = None

    def setup(self):
        self.pool = cli_pool.load_pool(self.POOL)
        os.makedirs(self.doc_dir, exist_ok=True)
        self.argv = []
        for i, entry in enumerate(self.pool):
            path = os.path.join(self.doc_dir, f"{i}.json")
            with open(path, "w") as fh:
                json.dump(entry["doc"], fh)
            self.argv.append([entry["cmd"], "--input", path] + entry["argv"])

    def next_pass(self):
        order = list(range(len(self.pool)))
        self.rng.shuffle(order)
        return order

    def run_one(self, key):
        return run_request(self.argv[key])

    def count_failed(self, results):
        verdicts = {}
        failed = 0
        for key, (code, text) in results:
            if (key, code, text) not in verdicts:
                verdicts[key, code, text] = cli_pool.check_response(self.pool[key], code, text)
            failed += not verdicts[key, code, text]
        return failed

    def label(self, key):
        return f"{self.pool[key]['cmd']}#{key}"


def make(name, seed, out_dir):
    if name == "cli-requests":
        return CliWorkload(seed, out_dir)
    return HarnessWorkload(HARNESS_CONFIGS[name], seed)
