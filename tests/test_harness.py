"""Harness determinism, instance generation, shrinking, fault injection."""

import hashlib
import json
import re
import time

import pytest

from fpmod.errors import FpmodError, InputError
from fpmod.harness import (
    HarnessConfig,
    SUITES,
    _judge,
    _run_one,
    derived_seed,
    parse_ring_name,
    report_json,
    run_harness,
    shrink,
)


def test_config_validation():
    with pytest.raises(FpmodError):
        HarnessConfig(seed=1, trials=-1)
    with pytest.raises(FpmodError):
        HarnessConfig(seed=1, trials=1, max_gens=9)
    with pytest.raises(FpmodError):
        HarnessConfig(seed=1, trials=1, max_gens=7)
    assert HarnessConfig(seed=1, trials=1, max_gens=6).max_gens == 6
    with pytest.raises(FpmodError):
        HarnessConfig(seed=1, trials=1, max_entry=99)
    with pytest.raises(FpmodError):
        HarnessConfig(seed=1, trials=1, rings=())


def test_config_checks_its_ring_names():
    # a ring the harness cannot build is refused when the config is made,
    # not when a generator first picks it
    with pytest.raises(InputError, match=r"^ring 'Reals': "):
        HarnessConfig(seed=1, trials=1, rings=("Integers", "Reals"))


@pytest.mark.parametrize(
    "suites, clause",
    [([], "no suites named"), (["snf_roundtrip", "nope"], "unknown suites: ['nope']")],
    ids=["empty", "unknown"],
)
def test_run_harness_checks_its_suite_names(suites, clause):
    with pytest.raises(InputError) as exc:
        run_harness(HarnessConfig(seed=1, trials=0), suites)
    assert str(exc.value) == clause


def test_derived_seeds_are_stable_and_distinct():
    a = derived_seed(42, "snf_roundtrip", 0)
    assert a == derived_seed(42, "snf_roundtrip", 0)
    assert a != derived_seed(42, "snf_roundtrip", 1)
    assert a != derived_seed(43, "snf_roundtrip", 0)
    assert a != derived_seed(42, "other", 0)


def test_parse_ring_name():
    assert str(parse_ring_name("Integers")) == "Integers"
    assert str(parse_ring_name("IntegersMod(6)")) == "IntegersMod(6)"
    assert str(parse_ring_name("PrimeField(5)")) == "PrimeField(5)"


def test_instance_streams_deterministic():
    import random

    cfg = HarnessConfig(seed=5, trials=1)
    for name, (gen, _check) in SUITES.items():
        i1 = gen(random.Random(derived_seed(5, name, 0)), cfg)
        i2 = gen(random.Random(derived_seed(5, name, 0)), cfg)
        assert i1 == i2, name


def test_instance_stream_digest():
    """The generated instances of the default CLI config are pinned: a
    change to a generator or to its order of random draws moves them."""
    import hashlib
    import random

    from fpmod.jsonio import dumps

    cfg = HarnessConfig(seed=0, trials=25, max_gens=3, max_entry=6)
    h = hashlib.sha256()
    for name in sorted(SUITES):
        gen, _check = SUITES[name]
        for i in range(cfg.trials):
            h.update(dumps([name, i, gen(random.Random(derived_seed(0, name, i)), cfg)]).encode())
    assert h.hexdigest() == "f266ca38641df0e01a283e3d15009d425507c9ab90e0290344edeb387e689905"


def test_suites_pickle():
    import pickle
    import random

    cfg = HarnessConfig(seed=5, trials=1)
    copy = pickle.loads(pickle.dumps(SUITES))
    assert list(copy) == list(SUITES)
    for name, (gen, _check) in copy.items():
        i1 = gen(random.Random(derived_seed(5, name, 0)), cfg)
        i2 = SUITES[name][0](random.Random(derived_seed(5, name, 0)), cfg)
        assert i1 == i2, name


def test_report_independent_of_evaluation_order():
    cfg = HarnessConfig(seed=42, trials=2)
    suites = ["snf_roundtrip", "ml_identity_tower", "flat_eq_projective"]
    together, code = run_harness(cfg, suites)
    assert code == 0
    for suite in reversed(suites):
        alone, code = run_harness(cfg, [suite])
        assert code == 0
        assert report_json(alone["suites"][suite]) == report_json(together["suites"][suite])


def test_zero_trials_empty_report():
    report, code = run_harness(HarnessConfig(seed=1, trials=0))
    assert code == 0 and report["failures_total"] == 0
    assert all(v["failures"] == [] for v in report["suites"].values())


def test_shrinking_minimizes():
    """A deliberately failing check (entry 8 present anywhere) shrinks to a
    single surviving entry of minimal magnitude."""

    def check(inst):
        rows = inst["mats"]["A"]
        if not rows or not rows[0]:
            return None
        return not any(abs(e) >= 4 for row in rows for e in row)

    inst = {"ring": "Integers", "mats": {"A": [[8, 1], [2, 16]]}}
    assert check(inst) is False
    small = shrink(inst, check)
    rows = small["mats"]["A"]
    entries = [e for row in rows for e in row]
    assert sum(1 for e in entries if e != 0) == 1
    assert max(abs(e) for e in entries) in (4, 5, 6, 7)


def test_fault_injection_produces_shrunk_failure(monkeypatch):
    """Corrupting the flatness decider makes the characterization suite
    fail with a serialized, shrunk counterexample."""
    from fpmod import homtensor

    monkeypatch.setattr(homtensor, "is_flat", lambda M: True)
    cfg = HarnessConfig(seed=3, trials=6, rings=("Integers",))
    report, code = run_harness(cfg, ["flat_eq_projective"])
    failures = report["suites"]["flat_eq_projective"]["failures"]
    assert code == 1 and failures
    first = failures[0]
    assert "instance" in first and "shrunk" in first
    # the shrunk instance still exhibits the failure
    _gen, check = SUITES["flat_eq_projective"]
    assert check(first["shrunk"]) is False


def test_report_contains_no_timing():
    report, _ = run_harness(HarnessConfig(seed=1, trials=0))
    text = report_json(report)
    assert "time" not in text and "elapsed" not in text


@pytest.mark.parametrize("runs", [1, 3])
def test_slowest_instances_go_to_stderr_only(capsys, runs):
    # repeated runs in one process name their own slowest instances and
    # leave the report bytes unchanged
    for _ in range(runs):
        report, code = run_harness(HarnessConfig(seed=3, trials=2))
        # the report bytes of this configuration, re-recorded once when
        # each suite's invalid count joined the report
        digest = hashlib.sha256(report_json(report).encode()).hexdigest()
        assert code == 0
        assert digest == "116483264b0cf76a3f21f44bb732e0ccab7b9e390b1b86251db95e0547721210"
        pattern = r"^harness: slow instance (\w+) #(\d+) (\d+\.\d+)s$"
        slow = re.findall(pattern, capsys.readouterr().err, re.M)
        assert len(slow) == 5
        assert all(name in SUITES and int(i) < 2 for name, i, _ in slow)
        seconds = [float(s) for _, _, s in slow]
        assert seconds == sorted(seconds, reverse=True)


def test_invalid_instances_are_counted_not_failed():
    # a check that returns None skips its instance: the report counts it
    # per suite, and _run_one reads it as no failure, like a pass
    cfg = HarnessConfig(seed=0, trials=25, max_gens=3, max_entry=6)  # the CLI defaults
    report, code = run_harness(cfg)
    assert code == 0
    invalid = {s: v["invalid"] for s, v in report["suites"].items() if v["invalid"]}
    assert invalid == {"devissage_roundtrip": 1, "domination_cross_oracle": 1, "summand_devissage": 1}
    for suite, index in (("devissage_roundtrip", 4), ("domination_cross_oracle", 6), ("summand_devissage", 1)):
        assert _judge(suite, index, cfg) == (None, None)
        assert _run_one(suite, index, cfg) is None
    assert _judge("snf_roundtrip", 0, cfg) == (True, None)
    report, _ = run_harness(HarnessConfig(seed=42, trials=3))  # acceptance criterion 10
    assert all(v["invalid"] == 0 for v in report["suites"].values())


def test_domination_heavy_instance_passes_quickly():
    # seed 42 #2: its heaviest system is the unsolvable 52x76 integer
    # retraction check of the pushout's inr in dominates_via_pushout
    start = time.perf_counter()
    assert _run_one("domination_cross_oracle", 2, HarnessConfig(seed=42, trials=3)) is None
    assert time.perf_counter() - start < 10


def test_kernel_cokernel_pass_computes_no_invariants(monkeypatch):
    # the kernel's inclusion is checked monic by one containment, not by
    # presenting its kernel and reading the invariants
    from fpmod.fpmodule import FpModule

    computed = []
    invariants = FpModule.invariants

    def count(M):
        computed.append(M)
        return invariants(M)

    monkeypatch.setattr(FpModule, "invariants", count)
    cfg = HarnessConfig(seed=0, trials=25, max_gens=3, max_entry=6)
    assert [_run_one("kernel_cokernel", i, cfg) for i in range(cfg.trials)] == [None] * cfg.trials
    assert not computed
