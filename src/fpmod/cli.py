"""Command-line interface: JSON in, JSON out.

Exit codes: 0 success, 2 input error (with a machine-readable diagnostic
naming the violated clause and location), 1 internal invariant failure
(a decider disagreement or broken postcondition — a bug, never a property
of valid input).
"""

import argparse
import sys

from .errors import FpmodError, InputError, InternalError
from . import descent as _descent
from . import devissage as _devissage
from . import fpmodule as _fp
from . import harness as _harness
from . import homtensor as _ht
from . import limits as _limits
from . import normal_forms as _nf
from . import purity as _purity
from . import pushout as _po
from .jsonio import (
    decode_mat,
    dumps,
    encode_invariants,
    encode_mat,
    encode_module,
    encode_scalar,
    load_input,
)


def _need(doc, kind):
    """The sole object of the given kind."""
    table = getattr(doc, kind)
    if len(table) == 1:
        return next(iter(table.values()))
    raise InputError(f"need exactly one entry in {kind!r}; got {len(table)}")


def _list_param(doc, name, command):
    """The list parameter name, which command needs."""
    value = doc.params.get(name)
    if value is None:
        raise InputError(f"{command} needs a {name!r} parameter")
    if not isinstance(value, list):
        raise InputError(f"{name}: expected a list")
    return value


def _two_morphisms(doc):
    names = sorted(doc.morphisms)
    if "f" in doc.morphisms and "g" in doc.morphisms:
        return doc.morphisms["f"], doc.morphisms["g"]
    if len(names) == 2:
        return doc.morphisms[names[0]], doc.morphisms[names[1]]
    raise InputError("need morphisms named 'f' and 'g'")


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a JSON-ready dict)


def cmd_snf(doc, args):
    M = _need(doc, "modules")
    sf = _nf.snf(M.lifted_rels())
    ring = sf.D.ring
    return {
        "invariant_factors": [encode_scalar(ring, d) for d in sf.invariant_factors],
        "D": encode_mat(sf.D),
        "U": encode_mat(sf.U),
        "V": encode_mat(sf.V),
    }


def cmd_invariants(doc, args):
    return encode_invariants(_need(doc, "modules"))


def cmd_hom(doc, args):
    names = sorted(doc.modules)
    if len(names) != 2:
        raise InputError("hom needs exactly two modules")
    H = _ht.hom_module(doc.modules[names[0]], doc.modules[names[1]])
    return {"hom": encode_module(H.underlying), "invariants": encode_invariants(H.underlying)}


def cmd_tensor(doc, args):
    names = sorted(doc.modules)
    if len(names) != 2:
        raise InputError("tensor needs exactly two modules")
    T = _ht.tensor(doc.modules[names[0]], doc.modules[names[1]])
    return {"tensor": encode_module(T), "invariants": encode_invariants(T)}


def cmd_basechange(doc, args):
    if doc.map is None:
        raise InputError("basechange needs a 'map' entry")
    M = _need(doc, "modules")
    ext = _ht.base_change(doc.map, M)
    return {"extended": encode_module(ext), "invariants": encode_invariants(ext)}


def cmd_pushout(doc, args):
    f, g = _two_morphisms(doc)
    P = _po.pushout(f, g)
    return {
        "object": encode_module(P.object),
        "invariants": encode_invariants(P.object),
        "inl": encode_mat(P.inl.mat),
        "inr": encode_mat(P.inr.mat),
    }


def cmd_univinj(doc, args):
    f = _need(doc, "morphisms")
    v = _purity.is_universally_injective(f)
    out = {"pure": v.pure}
    if v.retraction is not None:
        out["retraction"] = encode_mat(v.retraction.mat)
    if v.counterexample is not None:
        Q, elem = v.counterexample
        out["counterexample"] = {"probe": encode_module(Q), "element": encode_mat(elem)}
    return out


def cmd_dominates(doc, args):
    f, g = _two_morphisms(doc)
    v = _purity.dominates(f, g)
    out = {"dominates": v.dominates, "pushout_agrees": v.pushout_agrees}
    if v.factor is not None:
        out["factor"] = encode_mat(v.factor.mat)
    return out


def cmd_lift(doc, args):
    f = doc.morphism("f")
    pi = doc.morphism("pi")
    g = doc.morphism("g")
    h = doc.morphism("h")
    k = doc.morphism("k")
    phi = _purity.lift_through_univ_injective(f, pi, g, h, k)
    return {"lift": encode_mat(phi.mat)}


def cmd_ml_tower(doc, args):
    T = _need(doc, "towers")
    v = _limits.tower_ml_check(T, args.horizon)
    out = {"status": v.status, "horizon": v.horizon}
    if v.witness_level is not None:
        out["witness_level"] = v.witness_level
        out["witness"] = encode_mat(v.witness.mat)
    return out


def cmd_inv_stab(doc, args):
    T = _need(doc, "towers")
    v = _limits.inverse_tower_stabilization(T, args.horizon)
    out = {"status": v.status, "horizon": v.horizon}
    if v.stabilization_level is not None:
        out["stabilization_level"] = v.stabilization_level
    return out


def cmd_tower_lift(doc, args):
    A = doc.tower("A")
    B = doc.tower("B")
    C = doc.tower("C")
    fmap = doc.morphism("fmap")
    gmap = doc.morphism("gmap")
    ring = C.object.ring
    fam = [
        decode_mat(ring, col, f"c_family[{i}]", rows=C.object.gens, cols=1)
        for i, col in enumerate(_list_param(doc, "c_family", "tower-lift"))
    ]
    b_family = _limits.tower_surjective_lift(A, B, C, fmap, gmap, fam)
    return {"b_family": [encode_mat(b) for b in b_family]}


def cmd_enlarge_free(doc, args):
    M = _need(doc, "modules")
    psi_doc = doc.params.get("psi")
    n_doc = doc.params.get("N")
    if psi_doc is None or n_doc is None:
        raise InputError("enlarge-free needs 'psi' and 'N' parameters")
    psi = decode_mat(M.ring, psi_doc, "psi", rows=M.gens)
    N = decode_mat(M.ring, n_doc, "N", rows=psi.cols)
    Nprime, _wit = _limits.enlarge_to_free(M, psi, N)
    return {"enlarged": encode_mat(Nprime)}


def cmd_devissage(doc, args):
    amb = _need(doc, "modules")
    parts = tuple(
        _fp.SubmoduleRep(amb, decode_mat(amb.ring, p, f"parts[{i}]", rows=amb.gens))
        for i, p in enumerate(_list_param(doc, "parts", "devissage"))
    )
    D = _devissage.InternalDecomposition(amb, parts)
    e_doc = doc.params.get("idempotent")
    if e_doc is None:
        F = _devissage.decomposition_to_filtration(D)
        return {
            "stages": [encode_mat(s.gens_mat) for s in F.stages],
            "complements": [encode_mat(c.gens_mat) for c in F.complements],
        }
    e = _fp.mk_morphism(amb, amb, decode_mat(amb.ring, e_doc, "idempotent", rows=amb.gens, cols=amb.gens))
    out = _devissage.summand_devissage(D, e)
    return {
        "image_module": encode_module(out.ambient),
        "parts": [encode_mat(p.gens_mat) for p in out.parts],
    }


def cmd_descend(doc, args):
    if doc.map is None:
        raise InputError("descend needs a 'map' entry")
    M = _need(doc, "modules")
    rep = _descent.check_projectivity_descent(doc.map, M)
    return {
        "projective_base": rep.verdict_base,
        "projective_extended": rep.verdict_extended,
        "equivalence_holds": rep.equivalence_holds,
        "counterexample_flag": rep.counterexample_flag,
    }


def cmd_projtest(doc, args):
    M = _need(doc, "modules")
    return {"projective": _ht.is_projective(M)}


def cmd_flattest(doc, args):
    M = _need(doc, "modules")
    return {"flat": _ht.is_flat(M)}


def cmd_projchar(doc, args):
    rep = _descent.projchar_check(_need(doc, "modules"))
    return {
        "flat": rep.flat,
        "projective": rep.projective,
        "mittag_leffler": rep.mittag_leffler,
        "direct_sum_cyclic": rep.direct_sum_countably_generated,
        "consistent": rep.consistent,
    }


COMMANDS = {
    "snf": cmd_snf,
    "invariants": cmd_invariants,
    "hom": cmd_hom,
    "tensor": cmd_tensor,
    "basechange": cmd_basechange,
    "pushout": cmd_pushout,
    "univinj": cmd_univinj,
    "dominates": cmd_dominates,
    "lift": cmd_lift,
    "ml-tower": cmd_ml_tower,
    "inv-stab": cmd_inv_stab,
    "tower-lift": cmd_tower_lift,
    "enlarge-free": cmd_enlarge_free,
    "devissage": cmd_devissage,
    "descend": cmd_descend,
    "projtest": cmd_projtest,
    "flattest": cmd_flattest,
    "projchar": cmd_projchar,
}

# the subcommands that search a tower up to a horizon (tower-lift's is its family's length - 1)
_TOWER_COMMANDS = ("ml-tower", "inv-stab")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fpmod",
        description="exact computations with finitely presented modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="JSON input document")
        if name in _TOWER_COMMANDS:
            p.add_argument("--horizon", type=int, default=20)
    p = sub.add_parser("harness")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--max-gens", type=int, default=3)
    p.add_argument("--max-entry", type=int, default=6)
    p.add_argument("--rings", default=",".join(_harness.DEFAULT_RINGS))
    p.add_argument("--suites", default=None, help="comma-separated subset of suites")
    return parser


def run_command(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "harness":
            suites = None if args.suites is None else [s for s in args.suites.split(",") if s]
            cfg = _harness.HarnessConfig(
                seed=args.seed,
                trials=args.trials,
                max_gens=args.max_gens,
                max_entry=args.max_entry,
                rings=tuple(r for r in args.rings.split(",") if r),
            )
            report, code = _harness.run_harness(cfg, suites)
            print(_harness.report_json(report))
            return code
        doc = load_input(args.input)
        result = COMMANDS[args.command](doc, args)
        print(dumps(result))
        return 0
    except InternalError as exc:
        print(dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 1
    except InputError as exc:
        print(dumps({"error": type(exc).__name__, "clause": str(exc)}))
        return 2
    except FpmodError as exc:
        # domain-level refusals on well-formed input count as input errors
        print(dumps({"error": type(exc).__name__, "clause": str(exc)}))
        return 2
    except AssertionError as exc:
        print(dumps({"error": "BrokenPostcondition", "detail": str(exc)}), file=sys.stderr)
        return 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
