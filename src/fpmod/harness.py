"""Deterministic randomized property harness.

Every suite is a pure function from a raw instance (plain dict of integer
matrices) to a pass/fail/invalid verdict.  Instances are generated from
per-(suite, index) derived seeds, so the stream is independent of
evaluation order; the report lists each suite's failures by instance
index and counts its invalid instances, and contains no timing data
(wall-clock goes to stderr), making it byte-identical across runs.

On failure the instance is shrunk: entry halving first, then generator
(row) deletion, then relation (column) deletion, first success order,
repeated to a fixed point.
"""

import hashlib
import random
import sys
import time
from dataclasses import dataclass
from functools import partial

from .errors import FpmodError, InputError, InternalError
from .matrix import Mat
from .rings import GAUSSIAN, INTEGERS, RATIONALS, RingDesc, ZI, ZZ, ring_map
from . import devissage as _devissage
from . import descent as _descent
from . import fpmodule as _fp
from . import homtensor as _ht
from . import limits as _limits
from . import normal_forms as _nf
from . import purity as _purity
from . import pushout as _po
from .jsonio import dumps


DEFAULT_RINGS = ("Integers", "IntegersMod(6)", "PrimeField(5)", "GaussianIntegers", "Rationals")


@dataclass(frozen=True)
class HarnessConfig:
    seed: int
    trials: int
    max_gens: int = 4
    max_entry: int = 10
    rings: tuple = DEFAULT_RINGS

    def __post_init__(self):
        # rings are kept under their canonical names, so the report does
        # not depend on how they were spelled
        rings = tuple(str(parse_ring_name(name)) for name in self.rings)
        repeated = sorted({r for r in rings if rings.count(r) > 1})
        if repeated:
            raise InputError(f"rings named more than once: {repeated}")
        object.__setattr__(self, "rings", rings)
        if self.trials < 0:
            raise FpmodError("trials must be >= 0")
        if not 1 <= self.max_gens <= 6:
            raise FpmodError("max_gens must be in 1..6")
        if not 1 <= self.max_entry <= 10:
            raise FpmodError("max_entry must be in 1..10")
        if not self.rings:
            raise FpmodError("rings must name at least one ring")


def parse_ring_name(name):
    """The ring of a name like "IntegersMod(6)"; an InputError names a bad one."""
    name = name.strip()
    kind, modulus = name, 0
    if "(" in name and name.endswith(")"):
        kind, arg = name[:-1].split("(", 1)
        try:
            modulus = int(arg)
        except ValueError:
            raise InputError(f"ring {name!r}: modulus {arg!r} is not an integer") from None
    try:
        return RingDesc(kind, modulus)
    except InputError as exc:
        raise type(exc)(f"ring {name!r}: {exc}") from None


def derived_seed(seed, suite, index):
    digest = hashlib.sha256(f"{seed}:{suite}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# raw-instance plumbing
#
# An instance is {"ring": name, "mats": {key: list-of-int-rows}}.  All
# randomness produces plain integers; rings reinterpret them via canon,
# so shrinking (which edits raw integers) stays ring-agnostic.


def _rand_entry(rng, bound):
    return rng.randint(-bound, bound)


def _rand_rows(rng, rows, cols, bound):
    return [[_rand_entry(rng, bound) for _ in range(cols)] for _ in range(rows)]


def _rand_module_rows(rng, cfg):
    gens = rng.randint(1, cfg.max_gens)
    rels = rng.randint(0, gens + 1)
    return _rand_rows(rng, gens, rels, cfg.max_entry)


def _module_from_rows(ring, rows):
    gens = len(rows)
    if gens == 0:
        return None
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        return None
    return _fp.mk_module(ring, Mat.from_rows(ring, rows))


def _rand_morphism(rng, cfg, src, tgt):
    """A random well-defined morphism: a random combination of the Hom
    module's generators."""
    H = _ht.hom_module(src, tgt)
    if H.gen_mats.cols == 0:
        return _fp.zero_morphism(src, tgt)
    coeffs = Mat.from_rows(
        src.ring,
        [[_rand_entry(rng, cfg.max_entry)] for _ in range(H.gen_mats.cols)],
    )
    return H.decode(coeffs)


def _pick_ring(rng, names):
    return parse_ring_name(rng.choice(list(names)))


# ---------------------------------------------------------------------------
# suites
#
# Each suite has: gen(rng, cfg) -> instance dict, and check(instance) ->
# True (pass) / False (fail) / None (invalid, e.g. after a shrink broke a
# precondition).  check must not mutate the instance.


def _gen_snf(rng, cfg):
    n = rng.randint(1, cfg.max_gens)
    m = rng.randint(1, cfg.max_gens)
    return {"ring": "Integers", "mats": {"A": _rand_rows(rng, n, m, cfg.max_entry)}}


def _minor_gcd(rows, k):
    """gcd of all k x k minors, by exact cofactor expansion (dims <= 6)."""
    import itertools
    import math

    n, m = len(rows), len(rows[0]) if rows else 0

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        total = 0
        for j in range(len(sub)):
            minor = [r[:j] + r[j + 1 :] for r in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    g = 0
    for ri in itertools.combinations(range(n), k):
        for ci in itertools.combinations(range(m), k):
            g = math.gcd(g, det([[rows[i][j] for j in ci] for i in ri]))
    return g


def _check_snf(inst):
    rows = inst["mats"]["A"]
    if not rows or not rows[0]:
        return None
    A = Mat.from_rows(ZZ, rows)
    sf = _nf.snf(A)
    if sf.U.mul(A).mul(sf.V).entries != sf.D.entries:
        return False
    if not (_nf.is_unimodular(sf.U) and _nf.is_unimodular(sf.V)):
        return False
    facs = sf.invariant_factors
    for i in range(len(facs) - 1):
        if facs[i + 1] % facs[i] != 0:
            return False
    # minor-gcd identity: prod(d_1..d_k) = gcd of k x k minors
    prod = 1
    for k, d in enumerate(facs, start=1):
        prod *= d
        if prod != _minor_gcd(rows, k):
            return False
    return True


def _gen_module(rng, cfg):
    ring = _pick_ring(rng, cfg.rings)
    return {"ring": str(ring), "mats": {"M": _rand_module_rows(rng, cfg)}}


# Morphism instances are named by specs (matrix key, source key, target
# key): a pair is one morphism f : M -> N, a span two maps f : A -> B and
# g : A -> C out of a common source.
PAIR = (("f", "M", "N"),)
SPAN = (("f", "A", "B"), ("g", "A", "C"))


def _spec_modules(specs):
    """Module keys of the specs, in order of first appearance."""
    return list(dict.fromkeys(k for _, src, tgt in specs for k in (src, tgt)))


def _gen_morphisms(rng, cfg, specs, ring_names=None):
    """Random modules, then a random morphism per spec, over one ring."""
    ring = _pick_ring(rng, ring_names or cfg.rings)
    rows = {k: _rand_module_rows(rng, cfg) for k in _spec_modules(specs)}
    mods = {k: _module_from_rows(ring, r) for k, r in rows.items()}
    for name, src, tgt in specs:
        rows[name] = _int_rows(_rand_morphism(rng, cfg, mods[src], mods[tgt]).mat)
    return {"ring": str(ring), "mats": rows}


def _decode_morphisms(inst, *specs):
    """The morphisms the specs name, or None if the (possibly shrunk)
    instance no longer describes well-defined morphisms."""
    ring = parse_ring_name(inst["ring"])
    mats = inst["mats"]
    mods = {k: _module_from_rows(ring, mats[k]) for k in _spec_modules(specs)}
    if any(M is None for M in mods.values()):
        return None
    for name, src, tgt in specs:
        rows = mats[name]
        if len(rows) != mods[tgt].gens or (rows and len(rows[0]) != mods[src].gens):
            return None
    try:
        return tuple(
            _fp.mk_morphism(mods[src], mods[tgt], Mat.from_rows(ring, mats[name]))
            for name, src, tgt in specs
        )
    except FpmodError:
        return None


def _check_kernel_cokernel(inst):
    decoded = _decode_morphisms(inst, *PAIR)
    if decoded is None:
        return None
    (f,) = decoded
    M, N = f.source, f.target
    coker, proj = _fp.cokernel(f)
    if not _fp.mor_eq(_fp.compose(proj, f), _fp.zero_morphism(M, coker)):
        return False
    K, incl = _fp.kernel(f)
    if not _fp.mor_eq(_fp.compose(f, incl), _fp.zero_morphism(K, N)):
        return False
    return _fp.is_injective(incl)


def _int_rows(A):
    """Raw integer rows of a matrix whose entries came from canon."""
    ring = A.ring
    out = []
    for i in range(A.rows):
        row = []
        for j in range(A.cols):
            e = A.get(i, j)
            if ring.kind == GAUSSIAN:
                row.append(e[0])  # generated morphism entries may mix; keep re part
            elif ring.kind == RATIONALS:
                row.append(e.numerator if e.denominator == 1 else 0)
            else:
                row.append(int(e))
        out.append(row)
    return out


def _check_pushout(inst):
    fg = _decode_morphisms(inst, *SPAN)
    if fg is None:
        return None
    f, g = fg
    P = _po.pushout(f, g)
    # universal property against the cocone into the pushout itself
    w = _po.pushout_induced(P, P.inl, P.inr)
    if not _fp.mor_eq(w, _fp.identity_morphism(P.object)):
        return False
    # over Z, base change along Z -> Q, Z[i] and Z/4 commutes with the pushout
    if f.source.ring == ZZ:
        for phi_tgt in ("Rationals", "GaussianIntegers", "IntegersMod(4)"):
            phi = ring_map(ZZ, parse_ring_name(phi_tgt))
            if not _po.pushout_base_change_check(phi, f, g):
                return False
    return True


def _check_domination(inst):
    fg = _decode_morphisms(inst, *SPAN)
    if fg is None:
        return None
    f, g = fg
    v = _purity.dominates(f, g)
    if not v.pushout_agrees:
        return False
    if v.dominates:
        if not _fp.mor_eq(_fp.compose(v.factor, f), g):
            return False
    return True


def _check_purity_descends(inst):
    decoded = _decode_morphisms(inst, *PAIR)
    if decoded is None:
        return None
    (f,) = decoded
    return _purity.purity_descends(ring_map(ZZ, ZI), f)


def _check_ml_identity(inst):
    ring = parse_ring_name(inst["ring"])
    M = _module_from_rows(ring, inst["mats"]["M"])
    if M is None:
        return None
    t = _limits.Tower(_fp.identity_morphism(M), _limits.FORWARD)
    v = _limits.tower_ml_check(t, 3)
    return v.status == _limits.ML and v.witness_level == 0


def _gen_devissage(rng, cfg):
    """A cyclic direct sum with a conjugated coordinate idempotent.

    The conjugator u = I + n is unipotent with n strictly upper
    triangular; entry n[i][j] is a multiple of d_i/gcd(d_i, d_j), which
    makes u, u^-1 and the conjugated projection all well defined.
    """
    import math

    ring_name = rng.choice(["Integers", "IntegersMod(6)", "IntegersMod(12)"])
    ring = parse_ring_name(ring_name)
    k = rng.randint(1, 3)
    if ring.kind == INTEGERS:
        choices = [0, 2, 3, 4, 6]
    else:
        n = ring.modulus
        choices = [d for d in range(1, n + 1) if n % d == 0 and d != 1]
    ds = [rng.choice(choices) for _ in range(k)]
    nil = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            di, dj = ds[i], ds[j]
            if di == 0:
                step = 1
            else:
                step = di // math.gcd(di, dj if dj != 0 else di)
            nil[i][j] = step * rng.randint(-2, 2)
    mask = [rng.randint(0, 1) for _ in range(k)]
    return {
        "ring": ring_name,
        "mats": {"diag": [ds], "nil": nil, "mask": [mask]},
    }


def _decode_devissage(inst):
    import math

    ring = parse_ring_name(inst["ring"])
    ds = inst["mats"]["diag"][0]
    nil = inst["mats"]["nil"]
    mask = inst["mats"]["mask"][0]
    k = len(ds)
    if len(nil) != k or any(len(r) != k for r in nil) or len(mask) != k:
        return None
    # keep the conjugator well defined after shrinking
    for i in range(k):
        for j in range(k):
            if j <= i and nil[i][j] != 0:
                return None
            if j > i and ds[i] != 0:
                dj = ds[j] if ds[j] != 0 else ds[i]
                if nil[i][j] % (ds[i] // math.gcd(ds[i], dj)) != 0:
                    return None
    rels_rows = [[ds[i] if i == j else 0 for j in range(k)] for i in range(k)]
    M = _fp.mk_module(ring, Mat.from_rows(ring, rels_rows))
    I = Mat.identity(ring, k)
    nmat = Mat.from_rows(ring, nil)
    u = I.add(nmat)
    # inverse of a unipotent: I - n + n^2 - ...
    uinv = I
    power = nmat
    sign = -1
    for _ in range(k):
        uinv = uinv.add(power.scale(ring.canon(sign)))
        power = power.mul(nmat)
        sign = -sign
    parts = tuple(_fp.SubmoduleRep(M, u.select_columns([i])) for i in range(k))
    D = _devissage.InternalDecomposition(M, parts)
    pmat = Mat.from_rows(ring, [[mask[i] if i == j else 0 for j in range(k)] for i in range(k)])
    emat = u.mul(pmat).mul(uinv)
    try:
        e = _fp.mk_morphism(M, M, emat)
    except FpmodError:
        return None
    return D, e


def _check_devissage_roundtrip(inst):
    decoded = _decode_devissage(inst)
    if decoded is None:
        return None
    D, _ = decoded
    if not _devissage.validate_decomposition(D):
        return None
    F = _devissage.decomposition_to_filtration(D)
    return _devissage.filtration_to_decomposition(F).parts == D.parts


def _check_summand_devissage(inst):
    decoded = _decode_devissage(inst)
    if decoded is None:
        return None
    D, e = decoded
    if not _devissage.validate_decomposition(D):
        return None
    if not _fp.mor_eq(_fp.compose(e, e), e):
        return None
    out = _devissage.summand_devissage(D, e)
    return _devissage.validate_decomposition(out)


def _gen_int_module(rng, cfg):
    return {"ring": "Integers", "mats": {"M": _rand_module_rows(rng, cfg)}}


def _check_descent(inst):
    ring = parse_ring_name(inst["ring"])
    M = _module_from_rows(ring, inst["mats"]["M"])
    if M is None:
        return None
    rep = _descent.check_projectivity_descent(ring_map(ZZ, ZI), M)
    if not rep.equivalence_holds:
        return False
    # along the non-faithful map any divergence must come from torsion
    rep_q = _descent.check_projectivity_descent(ring_map(ZZ, parse_ring_name("Rationals")), M)
    if not rep_q.equivalence_holds:
        torsion, _ = M.invariants()
        if not torsion:
            return False
    return True


def _check_flat_eq_projective(inst):
    ring = parse_ring_name(inst["ring"])
    M = _module_from_rows(ring, inst["mats"]["M"])
    if M is None:
        return None
    try:
        rep = _descent.projchar_check(M)
    except (AssertionError, InternalError):
        return False
    return rep.consistent and rep.mittag_leffler and rep.direct_sum_countably_generated


def _gen_enlarge(rng, cfg):
    n = rng.randint(1, cfg.max_gens)
    j = rng.randint(1, cfg.max_gens)
    psi = _rand_rows(rng, n, j, cfg.max_entry)
    return {"ring": "Integers", "mats": {"psi": psi}}


def _check_enlarge(inst):
    rows = inst["mats"]["psi"]
    if not rows or not rows[0]:
        return None
    M = _fp.free_module(ZZ, len(rows))
    psi = Mat.from_rows(ZZ, rows)
    # N = a couple of genuine kernel columns (possibly zero)
    full_ker = _nf.kernel_matrix(psi)
    N = full_ker if full_ker.cols <= 2 else full_ker.select_columns([0, 1])
    if N.cols == 0:
        N = Mat.zeros(ZZ, psi.cols, 1)
    try:
        Nprime, _ = _limits.enlarge_to_free(M, psi, N)
    except FpmodError:
        return False
    sf = _nf.snf(Nprime)
    return all(ZZ.is_unit(d) for d in sf.invariant_factors)


SUITES = {
    "snf_roundtrip": (_gen_snf, _check_snf),
    "kernel_cokernel": (partial(_gen_morphisms, specs=PAIR), _check_kernel_cokernel),
    "pushout_universal": (
        partial(_gen_morphisms, specs=SPAN, ring_names=("Integers", "IntegersMod(6)")),
        _check_pushout,
    ),
    "domination_cross_oracle": (partial(_gen_morphisms, specs=SPAN), _check_domination),
    "purity_descends": (
        partial(_gen_morphisms, specs=PAIR, ring_names=("Integers",)),
        _check_purity_descends,
    ),
    "ml_identity_tower": (_gen_module, _check_ml_identity),
    "devissage_roundtrip": (_gen_devissage, _check_devissage_roundtrip),
    "summand_devissage": (_gen_devissage, _check_summand_devissage),
    "descent_projectivity": (_gen_int_module, _check_descent),
    "flat_eq_projective": (_gen_module, _check_flat_eq_projective),
    "enlarge_to_free": (_gen_enlarge, _check_enlarge),
}


# ---------------------------------------------------------------------------
# shrinking


def _shrink_candidates(inst):
    """Fixed-order shrink candidates: entry halving, then generator (row)
    deletion, then relation (column) deletion."""
    names = sorted(inst["mats"])
    for name in names:
        rows = inst["mats"][name]
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if e != 0:
                    out = {k: [list(r) for r in v] for k, v in inst["mats"].items()}
                    half = e // 2 if e > 0 else -((-e) // 2)
                    out[name][i][j] = half
                    yield {"ring": inst["ring"], "mats": out}
    for name in names:
        rows = inst["mats"][name]
        if len(rows) > 1:
            for i in range(len(rows)):
                out = {k: [list(r) for r in v] for k, v in inst["mats"].items()}
                del out[name][i]
                yield {"ring": inst["ring"], "mats": out}
    for name in names:
        rows = inst["mats"][name]
        if rows and len(rows[0]) > 0:
            for j in range(len(rows[0])):
                out = {k: [list(r) for r in v] for k, v in inst["mats"].items()}
                out[name] = [r[:j] + r[j + 1 :] for r in out[name]]
                yield {"ring": inst["ring"], "mats": out}


def shrink(inst, check):
    """Greedy first-success shrinking to a fixed point."""
    current = inst
    while True:
        for cand in _shrink_candidates(current):
            try:
                verdict = check(cand)
            except FpmodError:
                verdict = None
            except AssertionError:
                verdict = False
            if verdict is False:
                current = cand
                break
        else:
            return current


# ---------------------------------------------------------------------------
# driver


def _judge(suite, index, cfg):
    """(verdict, failure record or None) of one instance; verdict None marks it invalid."""
    gen, check = SUITES[suite]
    rng = random.Random(derived_seed(cfg.seed, suite, index))
    inst = gen(rng, cfg)
    try:
        verdict = check(inst)
    except FpmodError as exc:
        return False, {"index": index, "error": type(exc).__name__, "detail": str(exc), "instance": inst}
    except AssertionError:
        verdict = False
    if verdict is False:
        return False, {"index": index, "instance": inst, "shrunk": shrink(inst, check)}
    return verdict, None


def _run_one(suite, index, cfg):
    """The failure record of one instance, or None if it passed or was invalid."""
    return _judge(suite, index, cfg)[1]


_SLOWEST_SHOWN = 5


def run_harness(cfg, suites=None):
    """Run all (or the named) suites; returns (report dict, exit code).

    Wall-clock times, the total and the slowest instances, go to stderr.
    """
    names = sorted(SUITES if suites is None else suites)
    if not names:
        raise InputError("no suites named")
    unknown = [s for s in suites or () if s not in SUITES]
    if unknown:
        raise InputError(f"unknown suites: {unknown}")
    repeated = sorted({s for s in names if names.count(s) > 1})
    if repeated:
        raise InputError(f"suites named more than once: {repeated}")
    by_suite = {s: {"trials": cfg.trials, "failures": [], "invalid": 0} for s in names}
    timings = []
    started = time.monotonic()
    for s in names:
        for i in range(cfg.trials):
            t0 = time.monotonic()
            verdict, failure = _judge(s, i, cfg)
            timings.append((time.monotonic() - t0, s, i))
            if failure is not None:
                by_suite[s]["failures"].append(failure)
            by_suite[s]["invalid"] += verdict is None
    elapsed = time.monotonic() - started
    total = sum(len(v["failures"]) for v in by_suite.values())
    report = {
        "seed": str(cfg.seed),
        "trials": cfg.trials,
        "max_gens": cfg.max_gens,
        "max_entry": cfg.max_entry,
        "rings": sorted(cfg.rings),
        "suites": by_suite,
        "failures_total": total,
    }
    print(f"harness: {len(timings)} instances in {elapsed:.2f}s", file=sys.stderr)
    for seconds, s, i in sorted(timings, key=lambda t: -t[0])[:_SLOWEST_SHOWN]:
        print(f"harness: slow instance {s} #{i} {seconds:.3f}s", file=sys.stderr)
    return report, (0 if total == 0 else 1)


def report_json(report):
    return dumps(report)
