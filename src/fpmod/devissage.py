"""Finite-length Kaplansky filtrations, internal direct sums, and the
devissage of a direct summand cut out by an idempotent.

Ordinal stages are truncated to finite length; the limit-continuity
clause is vacuous here and recorded as such by the validator.
"""

from dataclasses import dataclass, field

from .errors import (
    InvalidFiltration,
    NotIdempotent,
    NotInternal,
    NotProjective,
    PreconditionViolation,
)
from .normal_forms import snf, solve_linear
from .fpmodule import (
    FpModule,
    SubmoduleRep,
    compose,
    full_submodule,
    mor_eq,
    present_submodule,
    quotient_by,
    sub_eq,
    sub_independent,
    sub_is_zero,
    sub_leq,
    sub_sum,
    zero_submodule,
)
from .homtensor import is_projective
from .purity import solve_section


@dataclass(frozen=True)
class KaplanskyFiltration:
    ambient: FpModule
    stages: tuple  # SubmoduleRep, length L+1
    complements: tuple  # SubmoduleRep, length L
    _cache: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class InternalDecomposition:
    ambient: FpModule
    parts: tuple  # SubmoduleRep
    _cache: dict = field(default_factory=dict, compare=False, repr=False)


def validate_filtration(F):
    """(ok, first_violated_clause).  Limit continuity is vacuous at finite
    length and reported as satisfied.  The verdict is computed once per
    filtration."""
    if "valid" not in F._cache:
        F._cache["valid"] = _check_filtration(F)
    return F._cache["valid"]


def _check_filtration(F):
    L = len(F.complements)
    if len(F.stages) != L + 1:
        return False, "stage/complement length mismatch"
    if not sub_is_zero(F.stages[0]):
        return False, "zero_eq_bot"
    if not sub_leq(full_submodule(F.ambient), F.stages[L]):
        return False, "union_eq_top"
    for a in range(L):
        if not sub_leq(F.stages[a], F.stages[a + 1]):
            return False, f"monotone at {a}"
    for a in range(L):
        C = F.complements[a]
        if not sub_leq(C, F.stages[a + 1]):
            return False, f"complement not below successor at {a}"
        if not sub_independent((F.stages[a], C)):
            return False, f"complement not disjoint at {a}"
        if not sub_leq(F.stages[a + 1], sub_sum(F.stages[a], C)):
            return False, f"complement does not span successor at {a}"
    return True, None


def validate_decomposition(D):
    """True iff the parts form an internal direct sum of the ambient
    module.  The verdict is computed once per decomposition."""
    if "valid" not in D._cache:
        D._cache["valid"] = _check_decomposition(D)
    return D._cache["valid"]


def _check_decomposition(D):
    total = zero_submodule(D.ambient)
    for p in D.parts:
        total = sub_sum(total, p)
    return sub_leq(full_submodule(D.ambient), total) and sub_independent(D.parts)


def filtration_to_decomposition(F):
    ok, clause = validate_filtration(F)
    if not ok:
        raise InvalidFiltration(clause)
    D = InternalDecomposition(F.ambient, tuple(F.complements))
    if not validate_decomposition(D):
        raise InvalidFiltration("complements do not form an internal direct sum")
    return D


def decomposition_to_filtration(D):
    if not validate_decomposition(D):
        raise NotInternal("parts do not form an internal direct sum")
    stages = [zero_submodule(D.ambient)]
    for p in D.parts:
        stages.append(sub_sum(stages[-1], p))
    F = KaplanskyFiltration(D.ambient, tuple(stages), tuple(D.parts))
    ok, clause = validate_filtration(F)
    if not ok:
        raise InvalidFiltration(clause)
    return F


# ---------------------------------------------------------------------------
# summand devissage


def relative_complement(amb, A, B):
    """A relative complement of A inside B (both submodules of amb), found
    by splitting p: B -> B/A; None if no splitting exists.  C = s(B/A) for
    the section s (solve_section asserts p o s = id), and B's presented
    inclusion is injective.  So C meets A = ker p in 0, as x = s(q) in A
    gives q = p(x) = 0, and A + C = B, as b - s(p(b)) lies in ker p."""
    Bmod, inclB = present_submodule(amb, B.gens_mat)
    AinB = solve_linear(B.gens_mat.hstack(amb.rels), A.gens_mat)
    if AinB is None:
        raise PreconditionViolation("A is not contained in B")
    AinB = AinB.select_rows(range(B.gens_mat.cols))
    _, proj = quotient_by(SubmoduleRep(Bmod, AinB))
    s = solve_section(proj)
    if s is None:
        return None
    return SubmoduleRep(amb, inclB.mat.mul(s.mat))


def _express_in_parts(amb, parts, x):
    """Indices of parts touched by some expression of x in the parts."""
    big = amb.rels
    offsets = []
    for p in parts:
        offsets.append(big.cols)
        big = big.hstack(p.gens_mat)
    sol = solve_linear(big, x)
    if sol is None:
        raise NotInternal("element does not lie in the span of the parts")
    touched = []
    for idx, p in enumerate(parts):
        off = offsets[idx]
        block = sol.select_rows(range(off, off + p.gens_mat.cols))
        if not all(amb.ring.is_zero(e) for e in block.entries):
            touched.append(idx)
    return touched


def summand_devissage(D, e):
    """Devissage of im(e) for an idempotent e, via stage sets of parts
    closed under e.

    A stage S closed under e is also closed under id - e, since
    (id - e)x = x - ex, and it meets im(e) in e(S): if y = e(z) lies in
    S then y = e(y).  So e(S) + (id - e)(S) = S, and the sum is direct
    because e(S) meets (id - e)(S) inside im(e) meet ker(e) = 0.
    Returns an internal decomposition of the presented module im(e),
    built from relative complements of the successive stages e(S).
    """
    amb = D.ambient
    if not mor_eq(compose(e, e), e):
        raise NotIdempotent("e o e differs from e")
    if not validate_decomposition(D):
        raise NotInternal("input decomposition is not internal")
    parts = list(D.parts)
    used = []
    stage_sets = [tuple()]
    while len(used) < len(parts):
        seed = next(i for i in range(len(parts)) if i not in used)
        cur = sorted(used + [seed])
        frontier = [seed]
        while frontier:
            nxt = []
            for idx in frontier:
                for j in range(parts[idx].gens_mat.cols):
                    x = parts[idx].gens_mat.col_mat(j)
                    for t in _express_in_parts(amb, parts, e.mat.mul(x)):
                        if t not in cur:
                            cur.append(t)
                            nxt.append(t)
            cur.sort()
            frontier = nxt
        used = cur
        stage_sets.append(tuple(used))

    def stage_sub(idxs):
        s = zero_submodule(amb)
        for i in idxs:
            s = sub_sum(s, parts[i])
        return s

    stages = [stage_sub(s) for s in stage_sets]
    stage_n = [SubmoduleRep(amb, e.mat.mul(s.gens_mat)) for s in stages]
    for s, sn in zip(stages, stage_n):
        if not sub_leq(sn, s):
            raise NotInternal("stage is not closed under the idempotent")
    # complements of consecutive e-stages give the parts of im(e)
    n_parts_ambient = []
    for a in range(len(stages) - 1):
        if sub_eq(stage_n[a], stage_n[a + 1]):
            continue
        C = relative_complement(amb, stage_n[a], stage_n[a + 1])
        if C is None:
            raise NotInternal("no relative complement at a devissage stage")
        n_parts_ambient.append(C)
    # re-express everything inside the presented module im(e)
    n_mod, n_incl = present_submodule(amb, e.mat)
    coords = n_incl.mat.hstack(amb.rels)
    parts_in_n = []
    for C in n_parts_ambient:
        sol = solve_linear(coords, C.gens_mat)
        if sol is None:
            raise NotInternal("complement does not lie in im(e)")
        parts_in_n.append(SubmoduleRep(n_mod, sol.select_rows(range(n_mod.gens))))
    out = InternalDecomposition(n_mod, tuple(parts_in_n))
    if not validate_decomposition(out):
        raise NotInternal("devissage output failed the internal-sum check")
    return out


# ---------------------------------------------------------------------------
# cyclic decomposition of projectives


def projective_cyclic_decomposition(P):
    """Cyclic internal decomposition read off the invariant-factor form."""
    if not is_projective(P):
        raise NotProjective(f"{P} is not projective")
    cover = P.ring.cover
    sf = snf(P.lifted_rels())
    Uinv = sf.U_inverse().map_entries(lambda e: e, new_ring=P.ring)
    parts = []
    k = len(sf.invariant_factors)
    for i in range(P.gens):
        d = sf.invariant_factors[i] if i < k else None
        if d is not None and cover.is_unit(d):
            continue  # generator is annihilated by a unit: zero summand
        parts.append(SubmoduleRep(P, Uinv.select_columns([i])))
    D = InternalDecomposition(P, tuple(parts))
    if not validate_decomposition(D):
        raise NotInternal("cyclic parts failed the internal-sum check")
    return D
