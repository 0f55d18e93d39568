"""The request pool of the cli-requests workload.

The pool is a fixed list of CLI requests (subcommand, extra arguments and
input document) with the canonical answer the CLI gave when the pool was
made.  Every pass of a run sends the whole pool, in an order drawn from
the run's seed, so runs on different seeds do the same work.

Outputs are checked semantically, never byte for byte, so a change that
returns smaller transforms or another presentation of the same module
still passes:

- canonical fields (invariant factors, boolean verdicts, ``ml-tower``
  status) must equal the stored answer;
- witnesses are checked by recomputation: ``U*A*V = D`` with U and V
  unimodular, ``factor o f = g``, ``retraction o f = id``, tensor-probe
  counterexamples, and the invariants of every returned module.
"""

import json
import random

from fpmod.errors import FpmodError, NotWellDefined
from fpmod.fpmodule import (
    compose,
    identity_morphism,
    is_zero_elem,
    mk_module,
    mk_morphism,
    mor_eq,
    mor_power,
)
from fpmod.homtensor import hom_module, tensor_mor
from fpmod.jsonio import (
    decode_input,
    decode_mat,
    decode_ring,
    encode_invariants,
    encode_mat,
    encode_scalar,
)
from fpmod.matrix import Mat
from fpmod.normal_forms import is_unimodular

COMMANDS = (
    "snf",
    "invariants",
    "hom",
    "tensor",
    "basechange",
    "pushout",
    "univinj",
    "dominates",
    "projtest",
    "flattest",
    "projchar",
    "descend",
    "ml-tower",
)
VARIANTS_PER_COMMAND = 31  # one pass is the whole pool: 13 x 31 = 403 requests

SMALL_RINGS = (
    {"kind": "Integers"},
    {"kind": "Rationals"},
    {"kind": "PrimeField", "modulus": "5"},
    {"kind": "PrimeField", "modulus": "7"},
    {"kind": "GaussianIntegers"},
    {"kind": "IntegersMod", "modulus": "6"},
    {"kind": "IntegersMod", "modulus": "12"},
)
LARGE_RINGS = (
    {"kind": "IntegersMod", "modulus": str(2**20)},
    {"kind": "IntegersMod", "modulus": str(3 * 2**18)},
    {"kind": "IntegersMod", "modulus": "1000000"},
    {"kind": "PrimeField", "modulus": "1048573"},
)
LARGE_SHARE = 0.15
INTEGERS = {"kind": "Integers"}
MAX_GENS = 4
# Subcommands that solve a Kronecker-vectorized system (Hom, split search,
# factorization) hit SNF coefficient blow-up on larger modules: at 4
# generators about 1 request in 30 runs for more than 5 s, and one
# 4-generator projtest over IntegersMod(10^6) ran past 100 s.  That is the
# blow-up harness-tail measures; in a per-request stream it would make a
# pass unbounded, so these subcommands get smaller modules.
KRONECKER_MAX_GENS = {"hom": 3, "projtest": 3, "projchar": 3, "descend": 3, "ml-tower": 2}
LARGE_MAX_GENS = 2
MAX_ENTRY = 6


def load_pool(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checking one response


def canonical(cmd, out):
    """The presentation-independent part of a response."""
    if cmd == "snf":
        return {"invariant_factors": out["invariant_factors"]}
    if cmd == "invariants":
        return {"torsion": out["torsion"], "free_rank": out["free_rank"]}
    if cmd in ("hom", "tensor", "basechange", "pushout"):
        return {"invariants": out["invariants"]}
    if cmd == "univinj":
        return {"pure": out["pure"]}
    if cmd == "dominates":
        return {"dominates": out["dominates"], "pushout_agrees": out["pushout_agrees"]}
    if cmd == "ml-tower":
        return {"status": out["status"]}
    return out  # projtest, flattest, projchar, descend: all fields are verdicts


def _mat(ring, doc, rows, cols):
    if rows == 0 or cols == 0:
        if doc != [[] for _ in range(rows)]:
            raise ValueError("bad empty matrix")
        return Mat(ring, rows, cols, ())
    return decode_mat(ring, doc, rows=rows, cols=cols)


def _module(doc):
    ring = decode_ring(doc["ring"])
    rels = doc["relations"]
    gens = len(rels)
    return mk_module(ring, _mat(ring, rels, gens, len(rels[0]) if gens else 0))


def _presented(out, key):
    """The returned module re-decoded; its invariants must match the response."""
    M = _module(out[key])
    return encode_invariants(M) == out["invariants"]


def _two(doc):
    m = doc.morphisms
    return m["f"], m["g"]


def _witness_ok(cmd, doc, out, argv):
    if cmd == "snf":
        (M,) = doc.modules.values()
        A = M.lifted_rels()
        ring = A.ring
        U = _mat(ring, out["U"], A.rows, A.rows)
        D = _mat(ring, out["D"], A.rows, A.cols)
        V = _mat(ring, out["V"], A.cols, A.cols)
        if U.mul(A).mul(V) != D or not (is_unimodular(U) and is_unimodular(V)):
            return False
        k = len(out["invariant_factors"])
        diag = [D.get(i, i) for i in range(min(A.rows, A.cols))]
        off = [D.get(i, j) for i in range(A.rows) for j in range(A.cols) if i != j]
        facs = diag[:k]
        return (
            all(ring.is_zero(e) for e in off + diag[k:])
            and [encode_scalar(ring, d) for d in facs] == out["invariant_factors"]
            and all(not ring.is_zero(d) for d in facs)
            and all(ring.exact_div(facs[i + 1], facs[i]) is not None for i in range(k - 1))
        )
    if cmd == "hom":
        return _presented(out, "hom")
    if cmd == "tensor":
        return _presented(out, "tensor")
    if cmd == "basechange":
        return _presented(out, "extended")
    if cmd == "pushout":
        f, g = _two(doc)
        P = _module(out["object"])
        if encode_invariants(P) != out["invariants"]:
            return False
        inl = mk_morphism(f.target, P, _mat(P.ring, out["inl"], P.gens, f.target.gens))
        inr = mk_morphism(g.target, P, _mat(P.ring, out["inr"], P.gens, g.target.gens))
        return mor_eq(compose(inl, f), compose(inr, g))
    if cmd == "univinj":
        (f,) = doc.morphisms.values()
        if out["pure"]:
            r = mk_morphism(f.target, f.source, _mat(f.source.ring, out["retraction"], f.source.gens, f.target.gens))
            return mor_eq(compose(r, f), identity_morphism(f.source))
        Q = _module(out["counterexample"]["probe"])
        tf = tensor_mor(f, identity_morphism(Q))
        elem = _mat(Q.ring, out["counterexample"]["element"], tf.source.gens, 1)
        return not is_zero_elem(tf.source, elem) and is_zero_elem(tf.target, tf(elem))
    if cmd == "dominates":
        f, g = _two(doc)
        if not out["dominates"]:
            return "factor" not in out
        h = mk_morphism(f.target, g.target, _mat(g.target.ring, out["factor"], g.target.gens, f.target.gens))
        return mor_eq(compose(h, f), g)
    if cmd == "ml-tower":
        if out["status"] != "ML":
            return "witness" not in out
        (T,) = doc.towers.values()
        j = out["witness_level"]
        if not 0 <= j <= int(argv[argv.index("--horizon") + 1]):
            return False
        M = T.object
        h = mk_morphism(M, M, _mat(M.ring, out["witness"], M.gens, M.gens))
        sj = mor_power(T.step, j)
        return mor_eq(compose(h, compose(T.step, sj)), sj)
    return True


def check_response(entry, code, text):
    """True iff a response has exit code 0, the stored canonical answer and
    valid witnesses."""
    if code != 0:
        return False
    try:
        out = json.loads(text)
        if canonical(entry["cmd"], out) != entry["expect"]:
            return False
        return _witness_ok(entry["cmd"], decode_input(entry["doc"]), out, entry["argv"])
    except (FpmodError, ValueError, KeyError, TypeError, AssertionError):
        return False


# ---------------------------------------------------------------------------
# making the pool


def _scalar(rng, ring):
    v = rng.randint(-MAX_ENTRY, MAX_ENTRY)
    if ring["kind"] == "Rationals" and rng.random() < 0.2:
        return {"num": str(v), "den": str(rng.randint(1, 3))}
    if ring["kind"] == "GaussianIntegers" and rng.random() < 0.3:
        return {"re": str(v), "im": str(rng.randint(-2, 2))}
    return str(v)


def _module_spec(rng, ring, max_gens=MAX_GENS):
    if ring in LARGE_RINGS:
        max_gens = min(max_gens, LARGE_MAX_GENS)
    gens = rng.randint(1, max_gens)
    rels = rng.randint(0, gens + 1)
    if rels == 0:
        return {"generators": str(gens)}
    return {"relations": [[_scalar(rng, ring) for _ in range(rels)] for _ in range(gens)]}


def _pick_ring(rng):
    return rng.choice(LARGE_RINGS if rng.random() < LARGE_SHARE else SMALL_RINGS)


def _morphism_matrix(rng, M, N):
    """A well-defined M -> N matrix: small random entries, else a Hom element."""
    ring = M.ring
    for _ in range(30):
        rows = [[rng.randint(-3, 3) for _ in range(M.gens)] for _ in range(N.gens)]
        try:
            mk_morphism(M, N, Mat.from_ints(ring, rows))
        except NotWellDefined:
            continue
        return [[str(e) for e in r] for r in rows]
    H = hom_module(M, N)
    if H.underlying.gens == 0:
        return [["0"] * M.gens for _ in range(N.gens)]
    z = Mat.from_ints(ring, [[rng.randint(-2, 2)] for _ in range(H.underlying.gens)])
    return encode_mat(H.decode(z).mat)


def _with_morphisms(rng, doc, specs):
    """Add morphisms {name: (source, target)} to doc, drawn one at a time."""
    doc.setdefault("morphisms", {})
    for name, (src, tgt) in specs.items():
        decoded = decode_input(doc)
        M, N = decoded.modules[src], decoded.modules[tgt]
        doc["morphisms"][name] = {"source": src, "target": tgt, "matrix": _morphism_matrix(rng, M, N)}
    return doc


def _candidate(rng, cmd):
    """(doc, extra argv) for one request of the given subcommand."""
    gens = KRONECKER_MAX_GENS.get(cmd, MAX_GENS)
    if cmd in ("snf", "invariants", "projtest", "flattest", "projchar"):
        ring = _pick_ring(rng)
        return {"ring": ring, "modules": {"M": _module_spec(rng, ring, gens)}}, []
    if cmd in ("hom", "tensor"):
        ring = _pick_ring(rng)
        modules = {"M": _module_spec(rng, ring, gens), "N": _module_spec(rng, ring, gens)}
        return {"ring": ring, "modules": modules}, []
    if cmd in ("basechange", "descend"):
        targets = [{"kind": "Rationals"}, {"kind": "GaussianIntegers"}]
        if cmd == "basechange":
            targets += [r for r in SMALL_RINGS + LARGE_RINGS if r["kind"] == "IntegersMod"]
        doc = {"ring": INTEGERS, "map": {"source": INTEGERS, "target": rng.choice(targets)}}
        doc["modules"] = {"M": _module_spec(rng, INTEGERS, gens)}
        return doc, []
    if cmd == "ml-tower":
        ring = _pick_ring(rng)
        doc = _with_morphisms(rng, {"ring": ring, "modules": {"M": _module_spec(rng, ring, gens)}}, {"s": ("M", "M")})
        doc["towers"] = {"T": {"step": "s", "direction": rng.choice(["forward", "backward"])}}
        return doc, ["--horizon", str(rng.randint(2, 6))]
    ring = rng.choice(SMALL_RINGS)
    if cmd == "univinj":
        doc = {"ring": ring, "modules": {"M": _module_spec(rng, ring, 2), "N": _module_spec(rng, ring, 3)}}
        if rng.random() < 0.5:
            return _with_morphisms(rng, doc, {"f": ("M", "N")}), []
        # a split mono M -> M (+) P, presented directly
        P = _module_spec(rng, ring, 2)
        decoded = decode_input({"ring": ring, "modules": {"M": doc["modules"]["M"], "P": P}})
        M, Pm = decoded.modules["M"], decoded.modules["P"]
        rels = Mat.block_diag(M.rels, Pm.rels)
        doc["modules"]["N"] = {"relations": encode_mat(rels)} if rels.cols else {"generators": str(rels.rows)}
        h = _morphism_matrix(rng, M, Pm)
        ident = [["1" if i == j else "0" for j in range(M.gens)] for i in range(M.gens)]
        doc["morphisms"] = {"f": {"source": "M", "target": "N", "matrix": ident + h}}
        return doc, []
    modules = {name: _module_spec(rng, ring, 3) for name in ("A", "B", "C")}
    doc = _with_morphisms(rng, {"ring": ring, "modules": modules}, {"f": ("A", "B")})
    if cmd == "dominates" and rng.random() < 0.5:
        # g = h o f, so g dominates f
        scratch = {"ring": ring, "modules": modules, "morphisms": dict(doc["morphisms"])}
        decoded = decode_input(_with_morphisms(rng, scratch, {"h": ("B", "C")}))
        g = compose(decoded.morphisms["h"], decoded.morphisms["f"])
        doc["morphisms"]["g"] = {"source": "A", "target": "C", "matrix": encode_mat(g.mat)}
        return doc, []
    return _with_morphisms(rng, doc, {"g": ("A", "C")}), []


def make_pool(seed, run_request):
    """VARIANTS_PER_COMMAND requests per subcommand that the CLI answers
    with exit code 0, with their canonical answers; and the number of
    drawn requests per subcommand that were refused (exit code 2).

    run_request(cmd, argv, doc) -> (exit code, stdout text).
    """
    rng = random.Random(seed)
    pool = []
    refused = dict.fromkeys(COMMANDS, 0)
    for cmd in COMMANDS:
        kept = 0
        while kept < VARIANTS_PER_COMMAND:
            try:
                doc, argv = _candidate(rng, cmd)
            except FpmodError:
                continue
            code, text = run_request(cmd, argv, doc)
            if code == 2:
                refused[cmd] += 1
                continue
            if code != 0:
                raise AssertionError(f"{cmd} exits with {code}: {doc}")
            entry = {"cmd": cmd, "argv": argv, "doc": doc, "expect": canonical(cmd, json.loads(text))}
            if not check_response(entry, code, text):
                raise AssertionError(f"{cmd} response fails its own check: {doc}")
            pool.append(entry)
            kept += 1
    return pool, refused
