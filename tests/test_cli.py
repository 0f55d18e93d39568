"""CLI dispatch, JSON round trips, exit codes, and fault injection."""

import json
import time

import pytest

from fpmod.cli import run_command
from fpmod.errors import InputError
from fpmod.fpmodule import free_module, zero_module
from fpmod.harness import DEFAULT_RINGS, parse_ring_name
from fpmod.jsonio import (
    decode_input,
    decode_mat,
    decode_scalar,
    dumps,
    encode_mat,
    encode_module,
    encode_ring,
    encode_scalar,
)
from fpmod.matrix import Mat
from fpmod.rings import ZZ, QQ, ZI, Zmod


def run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


def write(tmp_path, doc):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_scalar_roundtrips():
    from fractions import Fraction

    for ring, vals in (
        (ZZ, [0, -7, 12345678901234567890]),
        (QQ, [Fraction(3, 2), Fraction(-1, 7)]),
        (ZI, [(3, -4), (0, 0)]),
        (Zmod(6), [0, 5]),
    ):
        for v in vals:
            assert decode_scalar(ring, encode_scalar(ring, v)) == ring.canon(v)


def test_mat_roundtrip():
    A = Mat.from_ints(ZZ, [[1, -2], [3, 4]])
    assert decode_mat(ZZ, encode_mat(A)).entries == A.entries


def test_decode_rejects_ragged():
    with pytest.raises(InputError):
        decode_mat(ZZ, [["1", "2"], ["3"]])


def test_decode_input_validates_references():
    with pytest.raises(InputError):
        decode_input(
            {
                "ring": {"kind": "Integers"},
                "morphisms": {"f": {"source": "missing", "target": "missing", "matrix": [["1"]]}},
            }
        )


@pytest.mark.parametrize(
    "entry, where",
    [
        ({"morphisms": {"f": {"source": "X", "target": "M", "matrix": [["1"]]}}}, "morphisms.f.source"),
        ({"morphisms": {"f": {"source": "M", "target": "X", "matrix": [["1"]]}}}, "morphisms.f.target"),
        ({"towers": {"T": {"object": "X", "step": [["1"]]}}}, "towers.T.object"),
    ],
)
def test_unknown_module_is_named_where_it_is_referenced(entry, where):
    doc = {"ring": {"kind": "Integers"}, "modules": {"M": {"generators": "1"}}, **entry}
    with pytest.raises(InputError, match=rf"^{where}: unknown module 'X'$"):
        decode_input(doc)


def test_snf_subcommand(tmp_path, capsys):
    path = write(
        tmp_path,
        {"ring": {"kind": "Integers"}, "modules": {"M": {"relations": [["2", "0"], ["0", "3"]]}}},
    )
    code, out = run(capsys, ["snf", "--input", path])
    assert code == 0
    assert out["invariant_factors"] == ["1", "6"]


def test_dominates_subcommand(tmp_path, capsys):
    path = write(
        tmp_path,
        {
            "ring": {"kind": "Integers"},
            "modules": {"Z": {"generators": "1"}},
            "morphisms": {
                "f": {"source": "Z", "target": "Z", "matrix": [["2"]]},
                "g": {"source": "Z", "target": "Z", "matrix": [["1"]]},
            },
        },
    )
    code, out = run(capsys, ["dominates", "--input", path])
    assert code == 0
    assert out == {"dominates": False, "pushout_agrees": True}


@pytest.mark.parametrize(
    "module, clause",
    [
        ({"generators": "-2"}, "modules.M.generators: -2 is negative"),
        (
            {"generators": "5", "relations": [["2"]]},
            "modules.M.generators: 5 generators, but 'relations' has 1 rows",
        ),
    ],
    ids=["negative", "disagrees"],
)
def test_module_generators_are_checked(tmp_path, capsys, module, clause):
    path = write(tmp_path, {"ring": {"kind": "Integers"}, "modules": {"M": module}})
    code, out = run(capsys, ["projtest", "--input", path])
    assert code == 2
    assert out == {"error": "InputError", "clause": clause}


@pytest.mark.parametrize("name", DEFAULT_RINGS)
def test_encoded_modules_decode(name):
    # the zero module encodes as {"relations": []}, a matrix with no rows
    ring = parse_ring_name(name)
    for M in (zero_module(ring), free_module(ring, 2)):
        doc = {"ring": encode_ring(ring), "modules": {"M": encode_module(M)}}
        assert decode_input(doc).modules["M"] == M


def test_hom_output_is_valid_input(tmp_path, capsys):
    doc = {"ring": {"kind": "Integers"}, "modules": {"A": {"relations": [["2"]]}, "B": {"generators": "1"}}}
    code, out = run(capsys, ["hom", "--input", write(tmp_path, doc)])
    assert code == 0
    assert out == {"hom": {"ring": {"kind": "Integers"}, "relations": []},
                   "invariants": {"torsion": [], "free_rank": "0"}}
    code, again = run(capsys, ["invariants", "--input", write(tmp_path, {**doc, "modules": {"H": out["hom"]}})])
    assert code == 0 and again == out["invariants"]


def test_hom_of_the_five_generator_fixture_within_budget(tmp_path, capsys):
    """M = Z/2 + Z/264 presented on five generators, so Hom(M, M) is
    Z/2^3 + Z/264.  Its Smith kernel had not answered after 15 s; the 2 s
    budget is not to be loosened."""
    rels = [["4", "-1", "2", "4", "1"], ["1", "3", "0", "4", "-4"], ["2", "4", "-2", "4", "4"],
            ["-1", "2", "-4", "3", "1"], ["4", "-1", "4", "2", "3"]]
    doc = {"ring": {"kind": "Integers"}, "modules": {"A": {"relations": rels}, "B": {"relations": rels}}}
    path = write(tmp_path, doc)
    start = time.perf_counter()
    code, out = run(capsys, ["hom", "--input", path])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out["invariants"] == {"torsion": ["2", "2", "2", "264"], "free_rank": "0"}
    assert elapsed < 2.0, f"fpmod hom took {elapsed:.2f} s"


@pytest.mark.parametrize(
    "module, clause",
    [
        ({}, "modules.M: need 'relations' (or 'generators' for free)"),
        ({"relations": [], "generators": "2"}, "modules.M.generators: 2 generators, but 'relations' has 0 rows"),
    ],
    ids=["neither", "empty_relations_disagree"],
)
def test_module_needs_relations_or_generators(tmp_path, capsys, module, clause):
    path = write(tmp_path, {"ring": {"kind": "Integers"}, "modules": {"M": module}})
    code, out = run(capsys, ["invariants", "--input", path])
    assert code == 2
    assert out == {"error": "InputError", "clause": clause}


_TOWER_LIFT = {
    "ring": {"kind": "Integers"},
    "modules": {"Z2": {"relations": [["2"]]}, "Z4": {"relations": [["4"]]}},
    "morphisms": {
        "fmap": {"source": "Z2", "target": "Z4", "matrix": [["2"]]},
        "gmap": {"source": "Z4", "target": "Z2", "matrix": [["1"]]},
        "id2": {"source": "Z2", "target": "Z2", "matrix": [["1"]]},
        "id4": {"source": "Z4", "target": "Z4", "matrix": [["1"]]},
    },
    "towers": {
        name: {"step": step, "direction": "backward"}
        for name, step in (("A", "id2"), ("B", "id4"), ("C", "id2"))
    },
}


@pytest.mark.parametrize(
    "command, doc, clause",
    [
        ("invariants", {"modules": [1, 2]}, "modules: expected an object of named entries"),
        ("hom", {"morphisms": ["f"]}, "morphisms: expected an object of named entries"),
        ("ml-tower", {"towers": "T"}, "towers: expected an object of named entries"),
        ("devissage", {"modules": {"M": {"generators": "2"}}, "parts": 5}, "parts: expected a list"),
        ("tower-lift", dict(_TOWER_LIFT, c_family=3), "c_family: expected a list"),
        ("invariants", {"ring": {"kind": ["x"]}}, "ring.kind: expected a string"),
        (
            "invariants",
            {"modules": {"M": {"ring": {"kind": ["x"]}, "generators": "1"}}},
            "modules.M.ring.kind: expected a string",
        ),
    ],
    ids=["modules", "morphisms", "towers", "parts", "c_family", "ring_kind", "module_ring_kind"],
)
def test_malformed_document_shapes_exit2(tmp_path, capsys, command, doc, clause):
    path = write(tmp_path, {"ring": {"kind": "Integers"}, **doc})
    code, out = run(capsys, [command, "--input", path])
    assert code == 2
    assert out == {"error": "InputError", "clause": clause}


def test_malformed_json_exit2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"ring": {"kind": "Integers",')
    code, out = run(capsys, ["invariants", "--input", str(p)])
    assert code == 2
    assert out["error"] == "InputError" and "line" in out["clause"]


def test_not_well_defined_exit2(tmp_path, capsys):
    path = write(
        tmp_path,
        {
            "ring": {"kind": "Integers"},
            "modules": {"A": {"relations": [["2"]]}, "B": {"relations": [["4"]]}},
            "morphisms": {"f": {"source": "A", "target": "B", "matrix": [["1"]]}},
        },
    )
    code, out = run(capsys, ["univinj", "--input", path])
    assert code == 2
    assert out["error"] == "NotWellDefined"


def test_ml_tower_subcommand(tmp_path, capsys):
    path = write(
        tmp_path,
        {
            "ring": {"kind": "Integers"},
            "modules": {"Z4": {"relations": [["4"]]}},
            "towers": {"T": {"object": "Z4", "step": [["2"]], "direction": "forward"}},
        },
    )
    code, out = run(capsys, ["ml-tower", "--input", path, "--horizon", "6"])
    assert code == 0
    assert out["status"] == "ML" and out["witness_level"] == 2


_LIFT = {
    "modules": {
        "M": {"generators": "1"},
        "N": {"relations": [["0"], ["2"]]},
        "F": {"generators": "1"},
        "G": {"generators": "1"},
    },
    "morphisms": {
        "f": {"source": "M", "target": "N", "matrix": [["1"], ["0"]]},
        "pi": {"source": "N", "target": "M", "matrix": [["1", "0"]]},
        "g": {"source": "F", "target": "M", "matrix": [["2"]]},
        "h": {"source": "G", "target": "N", "matrix": [["1"], ["1"]]},
        "k": {"source": "F", "target": "G", "matrix": [["2"]]},
    },
}
_DEVISSAGE = {"modules": {"M": {"relations": [["0"], ["6"]]}}, "parts": [[["1"], ["0"]], [["0"], ["1"]]]}


@pytest.mark.parametrize(
    "command, doc, extra, expected",
    [
        (
            # 0 -> Z/2 -> Z/4 -> Z/2 -> 0 with identity steps; the horizon
            # is the family's length minus one
            "tower-lift",
            dict(_TOWER_LIFT, c_family=[[["1"]], [["1"]], [["1"]]]),
            [],
            {"b_family": [[["1"]], [["1"]], [["1"]]]},
        ),
        (
            "enlarge-free",
            {"modules": {"M": {"generators": "1"}}, "psi": [["2", "3"]], "N": [["0"], ["0"]]},
            [],
            {"enlarged": [["3"], ["-2"]]},
        ),
        (
            "inv-stab",
            {
                "modules": {"Z4": {"relations": [["4"]]}},
                "towers": {"T": {"object": "Z4", "step": [["2"]], "direction": "backward"}},
            },
            ["--horizon", "5"],
            {"horizon": 5, "stabilization_level": 2, "status": "ML"},
        ),
        # F = G = Z, N = Z + Z/2 with retraction pi of f; h o k = f o g in N
        ("lift", _LIFT, [], {"lift": [["1"]]}),
        (
            "devissage",
            _DEVISSAGE,
            [],
            {
                "stages": [[[], []], [["1"], ["0"]], [["1", "0"], ["0", "1"]]],
                "complements": [[["1"], ["0"]], [["0"], ["1"]]],
            },
        ),
        (
            "devissage",
            dict(_DEVISSAGE, idempotent=[["1", "0"], ["0", "0"]]),
            [],
            {
                "image_module": {"ring": {"kind": "Integers"}, "relations": [["0"], ["1"]]},
                "parts": [[["1"], ["0"]]],
            },
        ),
        (
            "tensor",
            {"modules": {"A": {"relations": [["2"]]}, "B": {"relations": [["4"]]}}},
            [],
            {
                "tensor": {"ring": {"kind": "Integers"}, "relations": [["2", "4"]]},
                "invariants": {"free_rank": "0", "torsion": ["2"]},
            },
        ),
        (
            # Z/2 + Z/5 over Z[i]: putting the diagonal in divisor order takes a repair
            "basechange",
            {
                "map": {"source": {"kind": "Integers"}, "target": {"kind": "GaussianIntegers"}},
                "modules": {"M": {"relations": [["2", "0"], ["0", "5"]]}},
            },
            [],
            {
                "extended": {
                    "ring": {"kind": "GaussianIntegers"},
                    "relations": [
                        [{"re": "2", "im": "0"}, {"re": "0", "im": "0"}],
                        [{"re": "0", "im": "0"}, {"re": "5", "im": "0"}],
                    ],
                },
                "invariants": {"free_rank": "0", "torsion": [{"re": "10", "im": "0"}]},
            },
        ),
        (
            "basechange",
            {
                "map": {"source": {"kind": "Integers"}, "target": {"kind": "IntegersMod", "modulus": "4"}},
                "modules": {"M": {"relations": [["6"]]}},
            },
            [],
            {
                "extended": {"ring": {"kind": "IntegersMod", "modulus": "4"}, "relations": [["2"]]},
                "invariants": {"free_rank": "0", "torsion": ["2"]},
            },
        ),
        (
            # Z/2 <- Z -> Z/4
            "pushout",
            {
                "modules": {"Z": {"generators": "1"}, "Z2": {"relations": [["2"]]}, "Z4": {"relations": [["4"]]}},
                "morphisms": {
                    "f": {"source": "Z", "target": "Z2", "matrix": [["1"]]},
                    "g": {"source": "Z", "target": "Z4", "matrix": [["1"]]},
                },
            },
            [],
            {
                "object": {"ring": {"kind": "Integers"}, "relations": [["2", "0", "1"], ["0", "4", "-1"]]},
                "invariants": {"free_rank": "0", "torsion": ["2"]},
                "inl": [["1"], ["0"]],
                "inr": [["0"], ["1"]],
            },
        ),
        (
            # a split mono: the retraction is a solve_linear solution
            "univinj",
            {
                "modules": {"M": {"generators": "1"}, "N": {"generators": "2"}},
                "morphisms": {"f": {"source": "M", "target": "N", "matrix": [["5"], ["3"]]}},
            },
            [],
            {"pure": True, "retraction": [["-1", "2"]]},
        ),
        (
            # 2: Z -> Z is not pure: tensoring with Z/2 kills 1
            "univinj",
            {
                "modules": {"M": {"generators": "1"}},
                "morphisms": {"f": {"source": "M", "target": "M", "matrix": [["2"]]}},
            },
            [],
            {
                "pure": False,
                "counterexample": {"probe": {"ring": {"kind": "Integers"}, "relations": [["2"]]}, "element": [["-1"]]},
            },
        ),
    ],
    ids=[
        "tower-lift",
        "enlarge-free",
        "inv-stab",
        "lift",
        "devissage",
        "devissage-idempotent",
        "tensor",
        "basechange-gaussian",
        "basechange-mod4",
        "pushout",
        "univinj-split",
        "univinj-probe",
    ],
)
def test_subcommand_output_pinned(tmp_path, capsys, command, doc, extra, expected):
    path = write(tmp_path, {"ring": {"kind": "Integers"}, **doc})
    code, out = run(capsys, [command, "--input", path] + extra)
    assert code == 0
    assert out == expected


def test_tower_step_must_be_an_endomorphism_exit2(tmp_path, capsys):
    doc = {
        "ring": {"kind": "Integers"},
        "modules": {"Z4": {"relations": [["4"]]}, "Z2": {"relations": [["2"]]}},
        "morphisms": {"s": {"source": "Z4", "target": "Z2", "matrix": [["1"]]}},
        "towers": {"T": {"step": "s"}},
    }
    code, out = run(capsys, ["ml-tower", "--input", write(tmp_path, doc)])
    assert code == 2
    assert out == {"error": "PreconditionViolation", "clause": "tower step must be an endomorphism of its source"}


def test_projchar_subcommand(tmp_path, capsys):
    path = write(
        tmp_path,
        {"ring": {"kind": "IntegersMod", "modulus": "6"}, "modules": {"M": {"relations": [["2"]]}}},
    )
    code, out = run(capsys, ["projchar", "--input", path])
    assert code == 0
    assert out["flat"] and out["projective"] and out["consistent"]


def test_descend_subcommand(tmp_path, capsys):
    path = write(
        tmp_path,
        {
            "ring": {"kind": "Integers"},
            "map": {"source": {"kind": "Integers"}, "target": {"kind": "GaussianIntegers"}},
            "modules": {"M": {"relations": [["2"]]}},
        },
    )
    code, out = run(capsys, ["descend", "--input", path])
    assert code == 0
    assert out["equivalence_holds"]


@pytest.mark.parametrize("where", ["ring", "map.source"])
def test_modulus_on_integers_exit2(tmp_path, capsys, where):
    doc = {
        "ring": {"kind": "Integers"},
        "map": {"source": {"kind": "Integers"}, "target": {"kind": "GaussianIntegers"}},
        "modules": {"M": {"relations": [["2"]]}},
    }
    (doc["ring"] if where == "ring" else doc["map"]["source"])["modulus"] = "7"
    code, out = run(capsys, ["descend", "--input", write(tmp_path, doc)])
    assert code == 2
    assert out["error"] == "InputError" and out["clause"].startswith(where + ":")


def test_decider_disagreement_exit1(tmp_path, capsys, monkeypatch):
    """Fault injection: a corrupted split-search decider must surface as an
    internal error (exit 1), never as a result."""
    from fpmod import homtensor

    monkeypatch.setattr(homtensor, "_projective_by_split_search", lambda M: True)
    path = write(
        tmp_path,
        {"ring": {"kind": "Integers"}, "modules": {"M": {"relations": [["2"]]}}},
    )
    code = run_command(["projtest", "--input", path])
    captured = capsys.readouterr()
    assert code == 1
    assert "DeciderDisagreement" in captured.err


def test_harness_subcommand_small(capsys):
    code = run_command(
        ["harness", "--seed", "7", "--trials", "1", "--suites", "snf_roundtrip,ml_identity_tower"]
    )
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["failures_total"] == 0
    assert set(report["suites"]) == {"snf_roundtrip", "ml_identity_tower"}


def test_harness_seed_is_only_an_option(capsys, monkeypatch):
    # the environment does not set the seed: --seed defaults to 0
    monkeypatch.setenv("FPMOD_SEED", "not-a-seed")
    assert run_command(["harness", "--trials", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == "0"


def test_unknown_suite_exit2(capsys):
    code = run_command(["harness", "--trials", "1", "--suites", "nope"])
    assert code == 2


def test_harness_has_no_parallelism_option(capsys):
    code = run_command(["harness", "--trials", "0", "--parallelism", "2"])
    assert code == 2
    assert "--parallelism" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["snf", "--input", "in.json", "--horizon", "3"],
        ["snf", "--input", "in.json", "--output", "json"],
        ["harness", "--trials", "0", "--output", "json"],
        ["tower-lift", "--input", "in.json", "--horizon", "2"],
    ],
    ids=["snf-horizon", "snf-output", "harness-output", "tower-lift-horizon"],
)
def test_options_nothing_reads_are_refused(capsys, argv):
    # --horizon belongs to ml-tower and inv-stab only; tower-lift's
    # horizon is the length of its family
    assert run_command(argv) == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("name", ["IntegersMod(x)", "PrimeField()", "Integers(7)", "Reals"])
def test_harness_bad_ring_name_exit2(capsys, name):
    code, out = run(capsys, ["harness", "--trials", "1", "--rings", f"Integers,{name}"])
    assert code == 2
    assert out["error"] == "InputError"
    assert out["clause"].startswith(f"ring {name!r}: ")


@pytest.mark.parametrize("rings", [",", ""])
def test_harness_empty_rings_exit2(capsys, rings):
    code, out = run(capsys, ["harness", "--trials", "1", "--rings", rings])
    assert code == 2
    assert out["error"] == "FpmodError"
    assert "ring" in out["clause"]


@pytest.mark.parametrize("suites", [",", ""])
def test_harness_empty_suites_exit2(capsys, suites):
    code, out = run(capsys, ["harness", "--trials", "1", "--suites", suites])
    assert code == 2
    assert out == {"error": "InputError", "clause": "no suites named"}


def test_harness_repeated_suites_exit2(capsys):
    # a suite named twice would run twice and be counted once
    suites = "snf_roundtrip,ml_identity_tower,snf_roundtrip"
    code, out = run(capsys, ["harness", "--trials", "1", "--suites", suites])
    assert code == 2
    assert out == {"error": "InputError", "clause": "suites named more than once: ['snf_roundtrip']"}


def test_harness_report_names_rings_canonically(capsys):
    # a ring is reported as str(RingDesc) however it was spelled, and the
    # report is the one of the canonical spelling
    argv = ["harness", "--seed", "3", "--trials", "2", "--suites", "snf_roundtrip,flat_eq_projective"]
    code, canonical = run(capsys, argv + ["--rings", "Integers,IntegersMod(6),Rationals"])
    assert code == 0 and canonical["rings"] == ["Integers", "IntegersMod(6)", "Rationals"]
    code, spelled = run(capsys, argv + ["--rings", "Integers, IntegersMod(06) , Rationals"])
    assert code == 0 and spelled == canonical


@pytest.mark.parametrize(
    "rings, repeated",
    [
        ("Integers,Integers", "Integers"),
        ("Integers, Rationals,Rationals ", "Rationals"),
        ("IntegersMod(6),IntegersMod(06)", "IntegersMod(6)"),
    ],
)
def test_harness_repeated_rings_exit2(capsys, rings, repeated):
    # a ring named twice, in any spelling, would be drawn twice as often
    code, out = run(capsys, ["harness", "--trials", "1", "--rings", rings])
    assert code == 2
    assert out == {"error": "InputError", "clause": f"rings named more than once: [{repeated!r}]"}


@pytest.mark.parametrize(
    "modulus, code, error",
    [
        (str(2**61 - 1), 0, None),
        (str(10**25 + 7), 2, "PrimalityUndecided"),
        ("1000000016000000063", 2, "InputError"),  # (10^9+7)(10^9+9)
    ],
)
def test_large_prime_field_moduli(tmp_path, capsys, modulus, code, error):
    doc = {
        "ring": {"kind": "PrimeField", "modulus": modulus},
        "modules": {"M": {"relations": [["2", "3"], ["4", "6"]]}},
    }
    got, out = run(capsys, ["invariants", "--input", write(tmp_path, doc)])
    assert got == code
    if error:
        assert out["error"] == error
    else:
        assert out == {"free_rank": "1", "torsion": []}


@pytest.mark.parametrize("cmd", ["flattest", "projtest"])
def test_large_prime_modulus_answers(tmp_path, capsys, cmd):
    # trial division up to the square root would take ~10^9 steps
    doc = {
        "ring": {"kind": "IntegersMod", "modulus": "1000000000000000003"},
        "modules": {"M": {"relations": [["2"]]}},
    }
    start = time.perf_counter()
    code, out = run(capsys, [cmd, "--input", write(tmp_path, doc)])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "error" not in out


@pytest.mark.parametrize("cmd", ["flattest", "projtest"])
def test_unfactorable_modulus_exit2(tmp_path, capsys, cmd):
    # flatness checks each prime of n, which needs its factorization;
    # projectivity by invariants needs only gcds, and agrees with the
    # split search
    doc = {
        "ring": {"kind": "IntegersMod", "modulus": str(100003 * 100019)},
        "modules": {"M": {"relations": [["2"]]}},
    }
    start = time.perf_counter()
    code, out = run(capsys, [cmd, "--input", write(tmp_path, doc)])
    if cmd == "projtest":
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out == {"projective": True}
    else:
        assert code == 2
        assert out["error"] == "FactorizationTooHard"
