"""Pushout construction, universal property, base-change compatibility."""

import pytest

from fpmod.errors import SourceMismatch, SquareDoesNotCommute
from fpmod.matrix import Mat
from fpmod.fpmodule import (
    compose,
    free_module,
    identity_morphism,
    is_iso,
    mk_module,
    mk_morphism,
    mor_eq,
    zero_morphism,
)
from fpmod.pushout import pushout, pushout_base_change_check, pushout_induced
from fpmod.rings import ZZ, QQ, ZI, Zmod, ring_map


def cyc(d):
    return mk_module(ZZ, Mat.from_ints(ZZ, [[d]]))


def test_pushout_of_multiplications():
    Z = free_module(ZZ, 1)
    two = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    three = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[3]]))
    P = pushout(two, three)
    # coker of (2,-3): Z + Z / (2,-3) = Z since gcd(2,3)=1
    assert P.object.invariants() == ((), 1)
    assert mor_eq(compose(P.inl, two), compose(P.inr, three))


def test_pushout_with_zero_leg():
    Z = free_module(ZZ, 1)
    two = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    P = pushout(two, mk_morphism(Z, Z, Mat.from_ints(ZZ, [[0]])))
    # pushout of x2 against 0 contains coker(x2) = Z/2 plus a free leg
    assert P.object.invariants() == ((2,), 1)


def test_pushout_source_mismatch():
    Z = free_module(ZZ, 1)
    W = free_module(ZZ, 2)
    f = identity_morphism(Z)
    g = mk_morphism(W, W, Mat.identity(ZZ, 2))
    with pytest.raises(SourceMismatch):
        pushout(f, g)


def test_induced_map_and_uniqueness():
    Z = free_module(ZZ, 1)
    two = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    three = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[3]]))
    P = pushout(two, three)
    # cocone into P itself: the induced map must be the identity
    w = pushout_induced(P, P.inl, P.inr)
    assert mor_eq(w, identity_morphism(P.object))
    # non-commuting cocone is rejected
    with pytest.raises(SquareDoesNotCommute):
        pushout_induced(P, P.inl, zero_morphism(Z, P.object))
    # u and v need a common target, which w's witness lives in
    with pytest.raises(SourceMismatch, match="common target"):
        pushout_induced(P, P.inl, zero_morphism(Z, Z))


def test_induced_map_unique_mod_equality():
    """Any morphism agreeing on both legs equals the induced one."""
    Z = free_module(ZZ, 1)
    two = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    P = pushout(two, two)
    u = compose(identity_morphism(P.object), P.inl)
    v = compose(identity_morphism(P.object), P.inr)
    w = pushout_induced(P, u, v)
    assert mor_eq(w, identity_morphism(P.object))


BASE_CHANGES = {
    "Rationals": ring_map(ZZ, QQ),
    "GaussianIntegers": ring_map(ZZ, ZI),
    "IntegersMod4": ring_map(ZZ, Zmod(4)),
}


def _span():
    Z = free_module(ZZ, 1)
    f = mk_morphism(Z, cyc(4), Mat.from_ints(ZZ, [[3]]))
    g = mk_morphism(Z, cyc(6), Mat.from_ints(ZZ, [[2]]))
    return f, g


@pytest.mark.parametrize("target", sorted(BASE_CHANGES))
def test_base_change_compatibility(target):
    assert pushout_base_change_check(BASE_CHANGES[target], *_span())


@pytest.mark.parametrize("target", sorted(BASE_CHANGES))
def test_base_change_check_rejects_corrupted_relations(monkeypatch, target):
    """One relation entry of the base-changed pushout moved by 1: the
    presentations differ, so the check fails."""
    from fpmod import pushout as po

    original = po.base_change

    def corrupted(phi, M):
        out = original(phi, M)
        bump = Mat.from_ints(out.ring, [[int(i == j == 0) for j in range(out.rels.cols)]
                                        for i in range(out.rels.rows)])
        return mk_module(out.ring, out.rels.add(bump))

    monkeypatch.setattr(po, "base_change", corrupted)
    assert not pushout_base_change_check(BASE_CHANGES[target], *_span())


def test_pushout_over_zmod():
    ring = Zmod(6)
    M = mk_module(ring, Mat.from_ints(ring, [[2]]))
    f = mk_morphism(M, M, Mat.from_ints(ring, [[3]]))
    g = identity_morphism(M)
    P = pushout(f, g)
    w = pushout_induced(P, P.inl, P.inr)
    assert mor_eq(w, identity_morphism(P.object))
