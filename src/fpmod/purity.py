"""Universal injectivity (purity), the free lifting property, and
domination with its pushout characterization.

For finitely presented data a pure monomorphism with finitely presented
cokernel splits, and split monos are pure, so purity is decided by a
retraction search.  The tensor-probe family only supplies explicit
counterexample witnesses for the negative verdicts.

Factorizations, retractions and sections are morphism equations; they
are solved by homtensor._solve_morphism, which builds the vectorized
system in one place.  Where only the existence of a retraction matters
(the pushout-purity cross-oracle and purity_descends), has_retraction
decides it by homtensor._morphism_exists, which builds no morphism and
stops at the first inconsistent row of the equation.
"""

from dataclasses import dataclass
from typing import Optional

from .errors import (
    NotARetraction,
    NotFaithfullyFlat,
    ProbeInconclusive,
    SourceMismatch,
    SquareDoesNotCommute,
)
from .matrix import Mat
from .fpmodule import (
    Morphism,
    cokernel,
    compose,
    free_module,
    identity_morphism,
    is_zero_elem,
    kernel_sub,
    mk_module,
    mor_eq,
)
from .homtensor import _morphism_exists, _solve_morphism, base_change_mor, tensor_mor
from .pushout import pushout


def solve_factor(src, tgt, A, B):
    """Find a morphism H : src -> tgt with H*A = B modulo tgt relations.

    A maps into src coordinates (src.gens x m), B into tgt coordinates
    (tgt.gens x m).  Returns None if no factor exists.
    """
    return _solve_morphism(src, tgt, Mat.identity(src.ring, tgt.gens), A, B, tgt.rels)


def solve_section(p):
    """Find s with p o s = id on p's target, or None.

    Dual of find_retraction: the unknown sits on the right of the
    composition, so p's matrix is the left factor of the equation.
    """
    Q = p.target
    IQ = Mat.identity(Q.ring, Q.gens)
    s = _solve_morphism(Q, p.source, p.mat, IQ, IQ, Q.rels)
    if s is None:
        return None
    assert mor_eq(compose(p, s), identity_morphism(Q))
    return s


def find_retraction(f):
    """A retraction pi with pi o f = id on the source, or None."""
    return solve_factor(f.target, f.source, f.mat, Mat.identity(f.source.ring, f.source.gens))


def has_retraction(f):
    """Whether find_retraction(f) finds one, decided without building it."""
    I = Mat.identity(f.source.ring, f.source.gens)
    return _morphism_exists(f.target, f.source, I, f.mat, I, f.source.rels)


@dataclass(frozen=True)
class PurityVerdict:
    pure: bool
    retraction: Optional[Morphism]
    counterexample: Optional[tuple]  # (probe module Q, killed element of source (x) Q)


def _probe_family(f):
    """Fixed, documented probe family: R and R/(d) for d among the torsion
    invariants of source, target and cokernel, plus the primes up to 7."""
    ring = f.source.ring
    ds = []
    coker, _ = cokernel(f)
    for mod in (coker, f.source, f.target):
        torsion, _ = mod.invariants()
        ds.extend(torsion)
    ds.extend(ring.canon(p) for p in (2, 3, 5, 7))
    probes = [free_module(ring, 1)]
    seen = set()
    for d in ds:
        if ring.is_zero(d) or ring.is_unit(d) or d in seen:
            continue
        seen.add(d)
        probes.append(mk_module(ring, Mat(ring, 1, 1, (d,))))
    return probes


def is_universally_injective(f):
    """Purity verdict with a retraction or a verified probe counterexample."""
    pi = find_retraction(f)
    if pi is not None:
        return PurityVerdict(True, pi, None)
    for Q in _probe_family(f):
        tf = tensor_mor(f, identity_morphism(Q))
        ker = kernel_sub(tf).gens_mat
        for j in range(ker.cols):
            elem = ker.col_mat(j)
            if not is_zero_elem(tf.source, elem):
                return PurityVerdict(False, None, (Q, elem))
    raise ProbeInconclusive(
        "no retraction exists, but no probe produced an explicit kernel witness"
    )


def lift_through_univ_injective(f, pi, g, h, k):
    """Lift phi : G -> M with phi o k = g, for free F, G and a retraction pi of f."""
    for mod, name in ((g.source, "F"), (k.target, "G")):
        if not mod.rels.is_zero():
            raise SquareDoesNotCommute(f"{name} must be free (no relations)")
    if not mor_eq(compose(h, k), compose(f, g)):
        raise SquareDoesNotCommute("h o k and f o g differ")
    if not mor_eq(compose(pi, f), identity_morphism(f.source)):
        raise NotARetraction("pi o f is not the identity")
    phi = compose(pi, h)
    assert mor_eq(compose(phi, k), g)
    return phi


# ---------------------------------------------------------------------------
# domination


@dataclass(frozen=True)
class DominationVerdict:
    dominates: bool
    factor: Optional[Morphism]
    pushout_agrees: bool


def dominates(f, g):
    """Does g factor through f (equivalently, does g dominate f)?

    The pushout-purity oracle is run alongside and must agree.
    """
    if f.source != g.source:
        raise SourceMismatch("dominates needs a common source")
    factor = solve_factor(f.target, g.target, f.mat, g.mat)
    if factor is not None:
        assert mor_eq(compose(factor, f), g)
    via_pushout = dominates_via_pushout(f, g)
    return DominationVerdict(factor is not None, factor, via_pushout == (factor is not None))


def dominates_via_pushout(f, g):
    """Cross-oracle: g dominates f iff inr of their pushout is pure."""
    P = pushout(f, g)
    return has_retraction(P.inr)


def purity_descends(phi, f):
    """Check that purity of the base-changed map implies purity of f.

    Returns True when the implication held (it always must for a
    faithfully flat map); raises NotFaithfullyFlat otherwise.
    """
    if not phi.faithfully_flat:
        raise NotFaithfullyFlat(f"{phi} is not faithfully flat")
    if not has_retraction(base_change_mor(phi, f)):
        return True  # implication is vacuous
    return has_retraction(f)
