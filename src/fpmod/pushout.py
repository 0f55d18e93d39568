"""Concrete pushouts of module maps and their base-change compatibility.

The pushout of f : A -> B and g : A -> C is (B (+) C) / span{(f(a), -g(a))}
with one mixed relation column per generator of A.  Generators of the
pushout are B's followed by C's.
"""

from dataclasses import dataclass

from .errors import SourceMismatch, SquareDoesNotCommute
from .matrix import Mat
from .fpmodule import (
    FpModule,
    Morphism,
    compose,
    identity_morphism,
    is_iso,
    mk_module,
    mk_morphism,
    mor_eq,
)
from .homtensor import base_change, base_change_mor


@dataclass(frozen=True)
class PushoutData:
    f: Morphism
    g: Morphism
    object: FpModule
    inl: Morphism
    inr: Morphism


def pushout(f, g):
    if f.source.gens != g.source.gens or f.source.rels != g.source.rels:
        raise SourceMismatch("pushout needs a common source")
    ring = f.source.ring
    B, C = f.target, g.target
    mixed = f.mat.vstack(g.mat.neg())
    rels = Mat.block_diag(B.rels, C.rels).hstack(mixed)
    obj = mk_module(ring, rels)
    iB = Mat.identity(ring, B.gens).vstack(Mat.zeros(ring, C.gens, B.gens))
    iC = Mat.zeros(ring, B.gens, C.gens).vstack(Mat.identity(ring, C.gens))
    inl = mk_morphism(B, obj, iB)
    inr = mk_morphism(C, obj, iC)
    return PushoutData(f, g, obj, inl, inr)


def pushout_induced(P, u, v):
    """The unique w with w o inl = u and w o inr = v, given u o f = v o g."""
    if not mor_eq(compose(u, P.f), compose(v, P.g)):
        raise SquareDoesNotCommute("u o f and v o g differ")
    w = mk_morphism(P.object, u.target, u.mat.hstack(v.mat))
    assert mor_eq(compose(w, P.inl), u)
    assert mor_eq(compose(w, P.inr), v)
    return w


def pushout_base_change_check(phi, f, g):
    """Does base change commute with the pushout, including the inr triangle?"""
    P = pushout(f, g)
    fS = base_change_mor(phi, f)
    gS = base_change_mor(phi, g)
    PS = pushout(fS, gS)
    changed = base_change(phi, P.object)
    if not is_iso(changed, PS.object):
        return False
    # the identification: same generators in the same order on both sides
    ident = mk_morphism(changed, PS.object, Mat.identity(phi.target, changed.gens))
    ident_back = mk_morphism(PS.object, changed, Mat.identity(phi.target, changed.gens))
    if not mor_eq(compose(ident, ident_back), identity_morphism(PS.object)):
        return False
    if not mor_eq(compose(ident_back, ident), identity_morphism(changed)):
        return False
    # triangle: ident o base_change(inr) = inr of the base-changed pushout
    return mor_eq(compose(ident, base_change_mor(phi, P.inr)), PS.inr)
