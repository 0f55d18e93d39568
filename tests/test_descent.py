"""Descent of projectivity, generation, and the ML property; the
flat/projective characterization for finitely presented modules."""

import pytest

from fpmod.errors import ComponentsDoNotSpan, DoesNotSpan, NotFaithfullyFlat
from fpmod.matrix import Mat
from fpmod.fpmodule import free_module, identity_morphism, mk_module, mk_morphism
from fpmod.descent import (
    check_ml_descent,
    check_projectivity_descent,
    descend_generators,
    projchar_check,
)
from fpmod.limits import FORWARD, Tower
from fpmod.rings import ZZ, QQ, ZI, Zmod, ring_map


def cyc(d):
    return mk_module(ZZ, Mat.from_ints(ZZ, [[d]]))


def test_descent_agrees_along_faithfully_flat():
    phi = ring_map(ZZ, ZI)
    for M in (cyc(2), free_module(ZZ, 2), mk_module(ZZ, Mat.from_ints(ZZ, [[2, 1], [4, 2]]))):
        rep = check_projectivity_descent(phi, M)
        assert rep.equivalence_holds and rep.counterexample_flag is None


def test_descent_diverges_along_rationals_on_torsion():
    rep = check_projectivity_descent(ring_map(ZZ, QQ), cyc(2))
    assert not rep.equivalence_holds
    assert not rep.verdict_base and rep.verdict_extended
    assert rep.counterexample_flag is not None
    # and the base module is torsion
    torsion, _ = rep.base_invariants[0], rep.base_invariants[1]
    assert torsion


def test_descend_generators_spans():
    phi = ring_map(ZZ, ZI)
    P = free_module(ZZ, 2)
    e1 = Mat.from_ints(ZZ, [[1], [0]])
    e2 = Mat.from_ints(ZZ, [[0], [1]])
    comps = descend_generators(phi, P, [[((1, 0), e1)], [((0, 1), e2)]])
    assert len(comps) == 2


def test_descend_generators_rejects_nonspanning():
    phi = ring_map(ZZ, ZI)
    P = free_module(ZZ, 2)
    e1 = Mat.from_ints(ZZ, [[1], [0]])
    with pytest.raises(DoesNotSpan):
        descend_generators(phi, P, [[((1, 0), e1)]])


def test_descend_generators_needs_faithful_flatness():
    with pytest.raises(NotFaithfullyFlat):
        descend_generators(ring_map(ZZ, QQ), free_module(ZZ, 1), [])


def test_ml_descent_on_certified_tower():
    phi = ring_map(ZZ, ZI)
    Z4 = cyc(4)
    T = Tower(mk_morphism(Z4, Z4, Mat.from_ints(ZZ, [[2]])), FORWARD)
    rep = check_ml_descent(phi, T, 5)
    assert rep.verdict == "holds" and rep.base_status == "ML"


def test_ml_descent_inconclusive_on_free_tower():
    phi = ring_map(ZZ, ZI)
    Z = free_module(ZZ, 1)
    T = Tower(mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]])), FORWARD)
    rep = check_ml_descent(phi, T, 4)
    assert rep.verdict == "inconclusive"


def test_projchar_consistency():
    for M in (cyc(2), free_module(ZZ, 3), mk_module(Zmod(6), Mat.from_ints(Zmod(6), [[2]]))):
        rep = projchar_check(M)
        assert rep.consistent
        assert rep.mittag_leffler and rep.direct_sum_countably_generated
