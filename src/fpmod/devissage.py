"""Finite-length Kaplansky filtrations, internal direct sums, and the
devissage of a direct summand cut out by an idempotent.

Ordinal stages are truncated to finite length; the limit-continuity
clause is vacuous here and recorded as such by the validator.  Each
verdict is a cached property, derived once per object from its fields.

summand_devissage splits im(e) along unions of parts that e maps into
themselves.  One solve_linear expresses e of every part generator in
the parts; the stages and each stage's complement in im(e) are read off
that one solution in closed form, so no splitting is searched for.
"""

from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import InvalidFiltration, NotIdempotent, NotInternal, NotProjective
from .matrix import Mat
from .normal_forms import _as_ring, snf, solve_linear
from .fpmodule import (
    FpModule,
    SubmoduleRep,
    compose,
    full_submodule,
    mor_eq,
    present_submodule,
    sub_independent,
    sub_is_zero,
    sub_leq,
    sub_sum,
    zero_submodule,
)
from .homtensor import is_projective


@dataclass(frozen=True)
class KaplanskyFiltration:
    ambient: FpModule
    stages: tuple  # SubmoduleRep, length L+1
    complements: tuple  # SubmoduleRep, length L

    @cached_property
    def _verdict(self):
        L = len(self.complements)
        if len(self.stages) != L + 1:
            return False, "stage/complement length mismatch"
        if not sub_is_zero(self.stages[0]):
            return False, "zero_eq_bot"
        if not sub_leq(full_submodule(self.ambient), self.stages[L]):
            return False, "union_eq_top"
        for a in range(L):
            if not sub_leq(self.stages[a], self.stages[a + 1]):
                return False, f"monotone at {a}"
        for a in range(L):
            S, C, T = self.stages[a], self.complements[a], self.stages[a + 1]
            if not sub_leq(C, T):
                return False, f"complement not below successor at {a}"
            if not sub_independent((S, C)):
                return False, f"complement not disjoint at {a}"
            if not sub_leq(T, sub_sum(S, C)):
                return False, f"complement does not span successor at {a}"
        return True, None


@dataclass(frozen=True)
class InternalDecomposition:
    ambient: FpModule
    parts: tuple  # SubmoduleRep

    @cached_property
    def _verdict(self):
        total = reduce(sub_sum, self.parts, zero_submodule(self.ambient))
        return sub_leq(full_submodule(self.ambient), total) and sub_independent(self.parts)


def validate_filtration(F):
    """(ok, first_violated_clause).  Limit continuity is vacuous at finite
    length and reported as satisfied.  The verdict is computed once per
    filtration."""
    return F._verdict


def validate_decomposition(D):
    """True iff the parts form an internal direct sum of the ambient
    module.  The verdict is computed once per decomposition."""
    return D._verdict


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


def summand_devissage(D, e):
    """Devissage of im(e) for an idempotent e, along stages of D's parts
    that e maps into themselves.

    One solve expresses e(g) in [rels | g_1 | ... | g_k] as X, for every
    generator g of every part at once; part i uses part t where X's
    (t, i) block is nonzero.  Each stage S' is the previous stage S plus
    the closure P of the first unused part under uses, so e(S') lies in
    S'.  Let pi be the projection of S' onto P along S and f = pi o e on
    P.  Then f is idempotent: for p in P, s = e(p) - f(p) lies in S and
    so does e(s), hence f(f(p)) = pi(e(p) - e(s)) = pi(e(p)) = f(p).
    C = e(f(P)) is a complement of e(S) in e(S'):
    - e(p) = e(e(p)) = e(e(p) - f(p)) + e(f(p)) lies in e(S) + C;
    - pi(e(f(p))) = f(f(p)) = f(p) and pi(e(S)) = 0, so x = e(f(p)) in
      e(S) gives f(p) = 0 and x = 0.
    f(P) is spanned by G_P X_PP (G_P: P's generators, X_PP: X's block on
    P), and the presented im(e) has e's matrix as its inclusion, so C's
    generators there are G_P X_PP.  C is zero exactly when
    e(S) = e(S'), and then the stage adds no part.
    """
    amb = D.ambient
    if not mor_eq(compose(e, e), e):
        raise NotIdempotent("e o e differs from e")
    if not validate_decomposition(D):
        raise NotInternal("input decomposition is not internal")
    G = reduce(Mat.hstack, (p.gens_mat for p in D.parts), Mat.zeros(amb.ring, amb.gens, 0))
    X = solve_linear(amb.rels.hstack(G), e.mat.mul(G))
    X = X.select_rows(range(amb.rels.cols, X.rows))
    spans, start = [], 0
    for p in D.parts:
        spans.append(range(start, start + p.gens_mat.cols))
        start += p.gens_mat.cols
    uses = [
        [t for t, rows in enumerate(spans) if not X.select_rows(rows).select_columns(cols).is_zero()]
        for cols in spans
    ]
    n_mod, _ = present_submodule(amb, e.mat)
    used, parts = set(), []
    for seed in range(len(spans)):
        if seed in used:
            continue
        new, todo = {seed}, [seed]
        while todo:
            for t in uses[todo.pop()]:
                if t not in used and t not in new:
                    new.add(t)
                    todo.append(t)
        used |= new
        P = [r for i in sorted(new) for r in spans[i]]
        C = SubmoduleRep(n_mod, G.select_columns(P).mul(X.select_rows(P).select_columns(P)))
        if not sub_is_zero(C):
            parts.append(C)
    out = InternalDecomposition(n_mod, tuple(parts))
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
    Uinv = solve_linear(sf.U, Mat.identity(cover, P.gens))  # U is unimodular: the one inverse
    Uinv = _as_ring(Uinv, P.ring)
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
