"""Purity (universal injectivity), lifting, and domination."""

import pytest

from fpmod.errors import NotARetraction, SourceMismatch, SquareDoesNotCommute
from fpmod.matrix import Mat
from fpmod.fpmodule import (
    compose,
    direct_sum,
    free_module,
    identity_morphism,
    mk_module,
    mk_morphism,
    mor_eq,
    zero_morphism,
)
from fpmod.purity import (
    dominates,
    dominates_via_pushout,
    find_retraction,
    is_universally_injective,
    lift_through_univ_injective,
    purity_descends,
    solve_factor,
    solve_section,
)
from fpmod.rings import ZZ, ZI, Zmod, ring_map


def cyc(d):
    return mk_module(ZZ, Mat.from_ints(ZZ, [[d]]))


def test_identity_is_pure():
    Z = free_module(ZZ, 1)
    v = is_universally_injective(identity_morphism(Z))
    assert v.pure and v.retraction is not None


def test_mult2_not_pure_with_witness():
    Z = free_module(ZZ, 1)
    two = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    v = is_universally_injective(two)
    assert not v.pure
    Q, elem = v.counterexample
    # the witness is a nonzero element of Z (x) Q killed by f (x) id
    assert Q.invariants()[0]  # a torsion probe
    assert not all(e == 0 for e in elem.entries)


def test_split_inclusion_is_pure():
    A = cyc(2)
    B = free_module(ZZ, 1)
    S, inl, _, _, _ = direct_sum(A, B)
    v = is_universally_injective(inl)
    assert v.pure
    pi = v.retraction
    assert mor_eq(compose(pi, inl), identity_morphism(A))


def test_solve_factor_and_section():
    Z = free_module(ZZ, 1)
    two = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    four = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[4]]))
    h = solve_factor(Z, Z, two.mat, four.mat)
    assert h is not None and mor_eq(compose(h, two), four)
    assert solve_factor(Z, Z, four.mat, two.mat) is None
    # a section of the projection Z/4 -> Z/2 (both presented over Z/4's ring)
    ring = Zmod(4)
    M = free_module(ring, 1)
    Q = mk_module(ring, Mat.from_ints(ring, [[2]]))
    p = mk_morphism(M, Q, Mat.from_ints(ring, [[1]]))
    assert solve_section(p) is None  # Z/2 is not a summand of Z/4


def test_section_of_split_projection():
    A, B = cyc(2), cyc(3)
    S, _, _, pl, _ = direct_sum(A, B)
    s = solve_section(pl)
    assert s is not None and mor_eq(compose(pl, s), identity_morphism(A))


def test_lift_through_univ_injective():
    # F = G = Z free; f = inclusion of A=Z into Z+Z/3, pi its retraction
    A = free_module(ZZ, 1)
    S, inl, _, pl, _ = direct_sum(A, cyc(3))
    F = free_module(ZZ, 1)
    G = free_module(ZZ, 1)
    k = mk_morphism(F, G, Mat.from_ints(ZZ, [[2]]))
    g = mk_morphism(F, A, Mat.from_ints(ZZ, [[6]]))
    h = mk_morphism(G, S, compose(inl, mk_morphism(G, A, Mat.from_ints(ZZ, [[3]]))).mat)
    phi = lift_through_univ_injective(inl, pl, g, h, k)
    assert mor_eq(compose(phi, k), g)


def test_lift_rejects_bad_square():
    A = free_module(ZZ, 1)
    S, inl, _, pl, _ = direct_sum(A, cyc(3))
    F = G = free_module(ZZ, 1)
    k = identity_morphism(F)
    g = mk_morphism(F, A, Mat.from_ints(ZZ, [[1]]))
    h = zero_morphism(G, S)
    with pytest.raises(SquareDoesNotCommute):
        lift_through_univ_injective(inl, pl, g, h, k)


def test_lift_rejects_bad_retraction():
    A = free_module(ZZ, 1)
    S, inl, _, pl, _ = direct_sum(A, cyc(3))
    F = G = free_module(ZZ, 1)
    k = identity_morphism(F)
    g = mk_morphism(F, A, Mat.from_ints(ZZ, [[1]]))
    h = compose(inl, g)
    bad_pi = zero_morphism(S, A)
    with pytest.raises(NotARetraction):
        lift_through_univ_injective(inl, bad_pi, g, h, k)


def test_domination_worked_examples():
    Z = free_module(ZZ, 1)
    two = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    one = identity_morphism(Z)
    v = dominates(two, one)
    assert not v.dominates and v.pushout_agrees
    v = dominates(one, two)
    assert v.dominates and v.pushout_agrees
    assert mor_eq(compose(v.factor, one), two)


def test_mutual_domination():
    Z = free_module(ZZ, 1)
    two = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    minus_two = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[-2]]))
    assert dominates(two, minus_two).dominates and dominates(minus_two, two).dominates


def test_domination_needs_common_source():
    Z = free_module(ZZ, 1)
    W = free_module(ZZ, 2)
    with pytest.raises(SourceMismatch):
        dominates(identity_morphism(Z), identity_morphism(W))


def test_purity_descends_along_gaussian():
    phi = ring_map(ZZ, ZI)
    Z = free_module(ZZ, 1)
    for mat in ([[1]], [[2]], [[0]]):
        f = mk_morphism(Z, Z, Mat.from_ints(ZZ, mat))
        assert purity_descends(phi, f)


def test_find_retraction_none_for_strict_mono():
    Z = free_module(ZZ, 1)
    three = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[3]]))
    assert find_retraction(three) is None
    assert dominates_via_pushout(identity_morphism(Z), three)
