"""Concrete pushouts of module maps and their base-change compatibility.

The pushout of f : A -> B and g : A -> C is (B (+) C) / span{(f(a), -g(a))}
with one mixed relation column per generator of A.  Generators of the
pushout are B's followed by C's, and so are its relations before the
mixed ones, so inl and inr are block identities on generators and on
relations alike: the relation blocks, followed by zero rows for the mixed
columns, are their witnesses.
"""

from dataclasses import dataclass

from .errors import SourceMismatch, SquareDoesNotCommute
from .matrix import Mat
from .fpmodule import (
    FpModule,
    Morphism,
    block_injections,
    compose,
    mk_module,
    mor_eq,
)
from .homtensor import base_change, base_change_mor
from .normal_forms import solve_linear


@dataclass(frozen=True)
class PushoutData:
    f: Morphism
    g: Morphism
    object: FpModule
    inl: Morphism
    inr: Morphism


def pushout(f, g):
    if f.source != g.source:
        raise SourceMismatch("pushout needs a common source")
    ring = f.source.ring
    B, C = f.target, g.target
    mixed = f.mat.vstack(g.mat.neg())
    rels = Mat.block_diag(B.rels, C.rels).hstack(mixed)
    obj = mk_module(ring, rels)
    iB, iC = block_injections(ring, B.gens, C.gens)
    wB, wC = block_injections(ring, B.rels.cols, C.rels.cols)
    inl = Morphism(B, obj, iB, wB.vstack(Mat.zeros(ring, mixed.cols, B.rels.cols)))
    inr = Morphism(C, obj, iC, wC.vstack(Mat.zeros(ring, mixed.cols, C.rels.cols)))
    return PushoutData(f, g, obj, inl, inr)


def pushout_induced(P, u, v):
    """The unique w with w o inl = u and w o inr = v, given u o f = v o g.

    One solve gives both: y with T.rels*y = u*f - v*g, for the target T
    of u and v, exists iff the square commutes, and [w_u | w_v | y] is
    the witness of w = [u | v] on the relation blocks of the pushout.
    """
    if u.target != v.target:
        raise SourceMismatch("u and v need a common target")
    uf, vg = compose(u, P.f), compose(v, P.g)
    y = solve_linear(u.target.rels, uf.mat.sub(vg.mat))
    if y is None:
        raise SquareDoesNotCommute("u o f and v o g differ")
    w = Morphism(P.object, u.target, u.mat.hstack(v.mat), u.witness.hstack(v.witness).hstack(y))
    assert mor_eq(compose(w, P.inl), u)
    assert mor_eq(compose(w, P.inr), v)
    return w


def pushout_base_change_check(phi, f, g):
    """Does base change commute with the pushout, including the inr triangle?

    Base change is entrywise and the pushout is assembled from relation
    blocks, so the base-changed pushout and the pushout of the
    base-changed maps are equal as presentations, and so are their inr
    maps, witnesses included.  Equality is stricter than isomorphism
    plus a commuting triangle, and implies both.
    """
    P = pushout(f, g)
    PS = pushout(base_change_mor(phi, f), base_change_mor(phi, g))
    return base_change(phi, P.object) == PS.object and base_change_mor(phi, P.inr) == PS.inr
