"""Symbolic towers, Mittag-Leffler conditions, truncated inverse-limit
lifting, finite directed colimits, and the free-enlargement step.

Infinite (co)directed systems are represented as self-similar towers:
one object plus one endomorphism.  ML checks on towers are semi-decisions
with an explicit horizon; UnknownAtHorizon is a first-class verdict and
is never coerced to a refusal.
"""

from dataclasses import dataclass
from typing import Optional

from .errors import (
    AxiomViolation,
    HypothesisViolation,
    LiftFailedAtHorizon,
    NotDirected,
    PreconditionViolation,
    UnsupportedRing,
)
from .matrix import Mat
from .normal_forms import kernel_matrix, snf, solve_linear
from .fpmodule import (
    FpModule,
    Morphism,
    SubmoduleRep,
    compose,
    image,
    is_surjective,
    kernel,
    identity_morphism,
    mor_eq,
    mor_power,
    sub_eq,
)
from .purity import solve_factor

FORWARD = "forward"
BACKWARD = "backward"

ML = "ML"
NOT_ML = "NotML"
UNKNOWN = "UnknownAtHorizon"


@dataclass(frozen=True)
class Tower:
    object: FpModule
    step: Morphism
    direction: str

    def __post_init__(self):
        if self.direction not in (FORWARD, BACKWARD):
            raise PreconditionViolation(f"bad tower direction {self.direction!r}")
        if self.step.source.gens != self.object.gens or self.step.target.gens != self.object.gens:
            raise PreconditionViolation("tower step must be an endomorphism of the object")


@dataclass(frozen=True)
class MLVerdict:
    status: str
    horizon: int
    witness_level: Optional[int] = None
    witness: Optional[Morphism] = None
    stabilization_level: Optional[int] = None


def tower_ml_check(T, horizon):
    """Search for a level j <= horizon where step^j factors through step^(j+1).

    A witness (j, h) with step^j = h o step^(j+1) propagates to every
    later level by iterating h, so it certifies ML globally.
    """
    if horizon < 1:
        raise PreconditionViolation("horizon must be >= 1")
    M = T.object
    for j in range(horizon + 1):
        sj = mor_power(T.step, j)
        sj1 = compose(T.step, sj)
        h = solve_factor(M, M, sj1.mat, sj.mat)
        if h is not None:
            assert mor_eq(compose(h, sj1), sj)
            return MLVerdict(ML, horizon, witness_level=j, witness=h)
    return MLVerdict(UNKNOWN, horizon)


def inverse_tower_stabilization(T, horizon):
    """Least k <= horizon with im(step^k) = im(step^(k+1)), if any.

    Stabilization at k persists to all later levels since the next image
    is always the step-image of the previous one.
    """
    if horizon < 1:
        raise PreconditionViolation("horizon must be >= 1")
    prev = image(mor_power(T.step, 0))
    for k in range(horizon + 1):
        nxt = image(mor_power(T.step, k + 1))
        if sub_eq(prev, nxt):
            return MLVerdict(ML, horizon, stabilization_level=k)
        prev = nxt
    return MLVerdict(UNKNOWN, horizon)


def _solve_preimage(f, y):
    """Some x with f(x) = y modulo target relations, or None."""
    big = f.mat.hstack(f.target.rels)
    sol = solve_linear(big, y)
    if sol is None:
        return None
    return sol.select_rows(range(f.source.gens))


def tower_surjective_lift(A, B, C, fmap, gmap, c_family, horizon):
    """Lift a compatible family of the quotient tower through the middle tower.

    Hypotheses (checked): gmap surjective; im(fmap) = ker(gmap); fmap and
    gmap commute with the tower steps; c_family compatible with C's step;
    A's images stabilize within the horizon.  Returns b_family with
    gmap(b_i) = c_i and B.step(b_{i+1}) = b_i.
    """
    ring = B.object.ring
    if len(c_family) != horizon + 1:
        raise HypothesisViolation(f"need {horizon + 1} family entries, got {len(c_family)}")
    if not is_surjective(gmap):
        raise HypothesisViolation("gmap is not surjective")
    K, kincl = kernel(gmap)
    if not sub_eq(image(fmap), SubmoduleRep(B.object, kincl.mat)):
        raise HypothesisViolation("im(fmap) != ker(gmap)")
    if not mor_eq(compose(fmap, A.step), compose(B.step, fmap)):
        raise HypothesisViolation("fmap does not commute with the tower steps")
    if not mor_eq(compose(gmap, B.step), compose(C.step, gmap)):
        raise HypothesisViolation("gmap does not commute with the tower steps")
    for i in range(horizon):
        got = C.step.mat.mul(c_family[i + 1])
        if solve_linear(C.object.rels, got.sub(c_family[i])) is None:
            raise HypothesisViolation(f"c_family not step-compatible at level {i}")
    stab = inverse_tower_stabilization(A, horizon)
    if stab.status != ML:
        raise LiftFailedAtHorizon(
            f"A's images do not stabilize within horizon {horizon}"
        )
    # levelwise lifts, then the correction pass through A
    b_tilde = []
    for i, c in enumerate(c_family):
        x = _solve_preimage(gmap, c)
        if x is None:
            raise HypothesisViolation(f"c_family[{i}] has no gmap preimage")
        b_tilde.append(x)
    # mismatch d_i = b~_i - B.step(b~_{i+1}) lies in ker(gmap) = im(fmap)
    a_corr = []
    for i in range(horizon):
        d = b_tilde[i].sub(B.step.mat.mul(b_tilde[i + 1]))
        a = _solve_preimage(fmap, d)
        if a is None:
            raise HypothesisViolation(f"mismatch at level {i} not in im(fmap)")
        a_corr.append(a)
    # alpha_H = 0; alpha_i = A.step(alpha_{i+1}) - a_i; b_i = b~_i + fmap(alpha_i)
    alphas = [None] * (horizon + 1)
    alphas[horizon] = Mat.zeros(ring, A.object.gens, 1)
    for i in range(horizon - 1, -1, -1):
        alphas[i] = A.step.mat.mul(alphas[i + 1]).sub(a_corr[i])
    b_family = [b_tilde[i].add(fmap.mat.mul(alphas[i])) for i in range(horizon + 1)]
    for i in range(horizon + 1):
        assert solve_linear(C.object.rels, gmap.mat.mul(b_family[i]).sub(c_family[i])) is not None
    for i in range(horizon):
        assert (
            solve_linear(B.object.rels, B.step.mat.mul(b_family[i + 1]).sub(b_family[i]))
            is not None
        )
    return b_family


# ---------------------------------------------------------------------------
# finite directed systems


@dataclass(frozen=True)
class FiniteDirectedSystem:
    """A finite poset (reflexive-transitive relation table) with modules on
    the points and a morphism for every related pair."""

    size: int
    leq: tuple  # tuple of (i, j) pairs with i <= j
    objects: tuple  # FpModule per index
    maps: dict  # (i, j) -> Morphism

    def related(self, i, j):
        return (i, j) in set(self.leq)


def _check_system(S):
    rel = set(S.leq)
    for i in range(S.size):
        if (i, i) not in rel:
            raise AxiomViolation(f"relation not reflexive at {i}")
        if not mor_eq(S.maps[(i, i)], identity_morphism(S.objects[i])):
            raise AxiomViolation(f"map at ({i},{i}) is not the identity")
    for (i, j) in rel:
        for (j2, k) in rel:
            if j2 == j and (i, k) not in rel:
                raise AxiomViolation(f"relation not transitive through ({i},{j},{k})")
    for (i, j) in rel:
        for k in range(S.size):
            if (j, k) in rel:
                if not mor_eq(S.maps[(i, k)], compose(S.maps[(j, k)], S.maps[(i, j)])):
                    raise AxiomViolation(f"composition law fails on ({i},{j},{k})")


def finite_system_colimit(S):
    """Colimit of a finite directed system: the object at the top element.

    A finite directed poset has a greatest element; the canonical maps
    are the transition maps into it (cocone property verified).
    """
    rel = set(S.leq)
    for i in range(S.size):
        for j in range(S.size):
            if not any((i, u) in rel and (j, u) in rel for u in range(S.size)):
                raise NotDirected(f"{i} and {j} have no upper bound")
    _check_system(S)
    top = None
    for t in range(S.size):
        if all((i, t) in rel for i in range(S.size)):
            top = t
            break
    if top is None:
        raise NotDirected("no greatest element found")
    canonical = [S.maps[(i, top)] for i in range(S.size)]
    for (i, j) in rel:
        assert mor_eq(compose(canonical[j], S.maps[(i, j)]), canonical[i])
    return S.objects[top], canonical


# ---------------------------------------------------------------------------
# Lazard enlargement step


def enlarge_to_free(M, j_size, psi, N):
    """Enlarge the relation submodule N inside ker(psi) to one with free quotient.

    Over the supported Euclidean domains the image of psi is free, so the
    full kernel of psi already works (with the index set unchanged).
    Returns (Nprime, witnesses); all three lemma conditions are verified
    by direct computation before returning.
    """
    ring = M.ring
    if not ring.is_euclidean:
        raise UnsupportedRing(f"enlarge_to_free needs a Euclidean domain, got {ring}")
    torsion, _ = M.invariants()
    if torsion:
        raise PreconditionViolation("M must be torsion-free")
    if psi.cols != j_size or psi.rows != M.gens:
        raise PreconditionViolation("psi must map R^J into M's generators")
    # psi must kill N inside M (modulo M's relations)
    if solve_linear(M.rels, psi.mul(N)) is None:
        raise PreconditionViolation("some column of N is not in ker(psi)")
    big = psi.hstack(M.rels)
    Nprime = kernel_matrix(big).select_rows(range(j_size))
    # (1) N' inside ker(psi)
    in_ker = solve_linear(M.rels, psi.mul(Nprime))
    assert in_ker is not None
    # (2) the quotient R^J / N' is free: only unit invariant factors
    sf = snf(Nprime)
    assert all(ring.is_unit(d) for d in sf.invariant_factors)
    # (3) N is contained in span(N')
    contains = solve_linear(Nprime, N)
    if contains is None:
        raise PreconditionViolation("N is not contained in the computed kernel")
    return Nprime, {"kernel_witness": in_ker, "containment": contains}
