"""Finite-length Kaplansky filtrations, internal direct sums, and the
devissage of a direct summand cut out by an idempotent.

Ordinal stages are truncated to finite length; the limit-continuity
clause is vacuous here and recorded as such by the validator.
"""

from dataclasses import dataclass

from .errors import (
    InvalidFiltration,
    NotIdempotent,
    NotInternal,
    NotProjective,
    PreconditionViolation,
)
from .matrix import Mat
from .normal_forms import snf, solve_linear
from .fpmodule import (
    FpModule,
    SubmoduleRep,
    compose,
    full_submodule,
    image,
    mk_module,
    mk_morphism,
    mor_eq,
    present_submodule,
    sub_eq,
    sub_intersection,
    sub_is_zero,
    sub_leq,
    sub_sum,
    zero_submodule,
)
from .homtensor import is_projective
from .purity import solve_section
from .rings import INTEGERS_MOD, ZZ


@dataclass(frozen=True)
class KaplanskyFiltration:
    ambient: FpModule
    stages: tuple  # SubmoduleRep, length L+1
    complements: tuple  # SubmoduleRep, length L


@dataclass(frozen=True)
class InternalDecomposition:
    ambient: FpModule
    parts: tuple  # SubmoduleRep


def validate_filtration(F):
    """(ok, first_violated_clause).  Limit continuity is vacuous at finite
    length and reported as satisfied."""
    L = len(F.complements)
    if len(F.stages) != L + 1:
        return False, "stage/complement length mismatch"
    if not sub_is_zero(F.stages[0]):
        return False, "zero_eq_bot"
    if not sub_eq(F.stages[L], full_submodule(F.ambient)):
        return False, "union_eq_top"
    for a in range(L):
        if not sub_leq(F.stages[a], F.stages[a + 1]):
            return False, f"monotone at {a}"
    for a in range(L):
        C = F.complements[a]
        if not sub_leq(C, F.stages[a + 1]):
            return False, f"complement not below successor at {a}"
        if not sub_is_zero(sub_intersection(F.stages[a], C)):
            return False, f"complement not disjoint at {a}"
        if not sub_eq(sub_sum(F.stages[a], C), F.stages[a + 1]):
            return False, f"complement does not span successor at {a}"
    return True, None


def validate_decomposition(D):
    total = zero_submodule(D.ambient)
    for p in D.parts:
        total = sub_sum(total, p)
    if not sub_eq(total, full_submodule(D.ambient)):
        return False
    for i, p in enumerate(D.parts):
        others = zero_submodule(D.ambient)
        for j, q in enumerate(D.parts):
            if j != i:
                others = sub_sum(others, q)
        if not sub_is_zero(sub_intersection(p, others)):
            return False
    return True


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
    by splitting the presented quotient B/A; None if no splitting exists."""
    Bmod, inclB = present_submodule(amb, B.gens_mat)
    AinB = solve_linear(B.gens_mat.hstack(amb.rels), A.gens_mat)
    if AinB is None:
        raise PreconditionViolation("A is not contained in B")
    AinB = AinB.select_rows(range(B.gens_mat.cols))
    Q = mk_module(amb.ring, Bmod.rels.hstack(AinB))
    proj = mk_morphism(Bmod, Q, Mat.identity(amb.ring, Bmod.gens))
    s = solve_section(proj)
    if s is None:
        return None
    C = SubmoduleRep(amb, inclB.mat.mul(s.mat))
    if not sub_is_zero(sub_intersection(A, C)):
        return None
    if not sub_eq(sub_sum(A, C), B):
        return None
    return C


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
    closed under e and id - e.

    Returns an internal decomposition of the presented module im(e),
    built from relative complements of the successive stage
    intersections with im(e).  Every stage is verified to split as
    (stage meet im(e)) (+) (stage meet im(id-e)).
    """
    amb = D.ambient
    if not mor_eq(compose(e, e), e):
        raise NotIdempotent("e o e differs from e")
    if not validate_decomposition(D):
        raise NotInternal("input decomposition is not internal")
    one_minus_e = mk_morphism(amb, amb, Mat.identity(amb.ring, amb.gens).sub(e.mat))
    N = image(e)
    K = image(one_minus_e)
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
                    for img in (e.mat.mul(x), one_minus_e.mat.mul(x)):
                        for t in _express_in_parts(amb, parts, img):
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
    # each stage must split along im(e) and im(id-e)
    stage_n = [sub_intersection(s, N) for s in stages]
    stage_k = [sub_intersection(s, K) for s in stages]
    for s, sn, sk in zip(stages, stage_n, stage_k):
        if not sub_eq(sub_sum(sn, sk), s):
            raise NotInternal("stage does not split along the idempotent")
        if not sub_is_zero(sub_intersection(sn, sk)):
            raise NotInternal("stage intersections are not disjoint")
    # complements of consecutive N-stages give the parts of im(e)
    n_parts_ambient = []
    for a in range(len(stages) - 1):
        if sub_eq(stage_n[a], stage_n[a + 1]):
            continue
        C = relative_complement(amb, stage_n[a], stage_n[a + 1])
        if C is None:
            raise NotInternal("no relative complement at a devissage stage")
        n_parts_ambient.append(C)
    # re-express everything inside the presented module im(e)
    n_mod, n_incl = present_submodule(amb, N.gens_mat)
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
    ring = P.ring
    sf = snf(P.lifted_rels())
    work_ring = ZZ if ring.kind == INTEGERS_MOD else ring
    U = sf.U
    Uinv = solve_linear(U, Mat.identity(work_ring, U.rows))
    if ring.kind == INTEGERS_MOD:
        Uinv = Uinv.map_entries(lambda e: e, new_ring=ring)
    parts = []
    k = len(sf.invariant_factors)
    for i in range(P.gens):
        d = sf.invariant_factors[i] if i < k else None
        if d is not None and work_ring.is_unit(d):
            continue  # generator is annihilated by a unit: zero summand
        parts.append(SubmoduleRep(P, Uinv.select_columns([i])))
    D = InternalDecomposition(P, tuple(parts))
    if not validate_decomposition(D):
        raise NotInternal("cyclic parts failed the internal-sum check")
    return D
