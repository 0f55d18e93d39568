"""Towers, Mittag-Leffler checks, lifting through exact tower sequences,
finite directed colimits, and the free-enlargement step."""

import dataclasses

import pytest

from fpmod.errors import (
    AxiomViolation,
    HypothesisViolation,
    LiftFailedAtHorizon,
    NotDirected,
    PreconditionViolation,
)
from fpmod.matrix import Mat
from fpmod.fpmodule import (
    compose,
    free_module,
    identity_morphism,
    mk_module,
    mk_morphism,
    mor_eq,
    zero_morphism,
)
from fpmod.limits import (
    BACKWARD,
    FORWARD,
    ML,
    UNKNOWN,
    FiniteDirectedSystem,
    Tower,
    enlarge_to_free,
    finite_system_colimit,
    inverse_tower_stabilization,
    tower_ml_check,
    tower_surjective_lift,
)
from fpmod.normal_forms import snf
from fpmod.rings import ZZ, Zmod


def cyc(d):
    return mk_module(ZZ, Mat.from_ints(ZZ, [[d]]))


def _mul_tower(M, k, direction=FORWARD):
    return Tower(mk_morphism(M, M, Mat.from_ints(ZZ, [[k]])), direction)


def test_z_times_two_unknown_at_horizon():
    Z = free_module(ZZ, 1)
    v = tower_ml_check(_mul_tower(Z, 2), 20)
    assert v.status == UNKNOWN and v.horizon == 20


def test_z4_times_two_ml_at_level_two():
    v = tower_ml_check(_mul_tower(cyc(4), 2), 10)
    assert v.status == ML and v.witness_level == 2
    # witness re-verifies: step^2 = h o step^3
    assert v.witness is not None


def test_identity_tower_ml_at_zero():
    for M in (cyc(6), free_module(ZZ, 2), mk_module(ZZ, Mat.from_ints(ZZ, [[2, 1], [0, 3]]))):
        t = Tower(identity_morphism(M), FORWARD)
        v = tower_ml_check(t, 3)
        assert v.status == ML and v.witness_level == 0


def test_backward_stabilization():
    v = inverse_tower_stabilization(_mul_tower(cyc(4), 2, BACKWARD), 10)
    assert v.status == ML and v.stabilization_level == 2
    v = inverse_tower_stabilization(_mul_tower(free_module(ZZ, 1), 2, BACKWARD), 5)
    assert v.status == UNKNOWN


def test_tower_direction_validated():
    Z = free_module(ZZ, 1)
    with pytest.raises(PreconditionViolation):
        Tower(identity_morphism(Z), "sideways")


def test_tower_is_its_step():
    Z4 = cyc(4)
    T = _mul_tower(Z4, 2)
    assert T.object is Z4
    assert [f.name for f in dataclasses.fields(Tower)] == ["step", "direction"]


def test_tower_step_between_different_modules_refused():
    # Z/4 -> Z/2 has one generator on each side, but is no endomorphism:
    # as a tower on Z/2 it would be certified ML at level 0
    step = mk_morphism(cyc(4), cyc(2), Mat.from_ints(ZZ, [[1]]))
    with pytest.raises(PreconditionViolation):
        Tower(step, FORWARD)


def test_horizon_validated():
    Z = free_module(ZZ, 1)
    with pytest.raises(PreconditionViolation):
        tower_ml_check(_mul_tower(Z, 2), 0)


def _exact_z4_fixture(horizon):
    """0 -> Z/2 -> Z/4 -> Z/2 -> 0 with identity steps; A stabilizes."""
    Z2, Z4 = cyc(2), cyc(4)
    A = Tower(identity_morphism(Z2), BACKWARD)
    B = Tower(identity_morphism(Z4), BACKWARD)
    C = Tower(identity_morphism(Z2), BACKWARD)
    fmap = mk_morphism(Z2, Z4, Mat.from_ints(ZZ, [[2]]))
    gmap = mk_morphism(Z4, Z2, Mat.from_ints(ZZ, [[1]]))
    c_family = [Mat.from_ints(ZZ, [[1]]) for _ in range(horizon + 1)]
    return A, B, C, fmap, gmap, c_family


def test_tower_surjective_lift_succeeds():
    horizon = 4
    A, B, C, fmap, gmap, c_family = _exact_z4_fixture(horizon)
    b_family = tower_surjective_lift(A, B, C, fmap, gmap, c_family)
    assert len(b_family) == horizon + 1


def test_tower_surjective_lift_fails_without_stabilization():
    """(Z, x2)-based fixture: A's images never stabilize, so the
    correction recursion is refused at the horizon."""
    horizon = 3
    Z = free_module(ZZ, 1)
    A = _mul_tower(Z, 2, BACKWARD)
    B = Tower(mk_morphism(
        free_module(ZZ, 2), free_module(ZZ, 2), Mat.from_ints(ZZ, [[2, 0], [0, 1]])
    ), BACKWARD)
    C = Tower(identity_morphism(Z), BACKWARD)
    fmap = mk_morphism(Z, B.object, Mat.from_ints(ZZ, [[1], [0]]))
    gmap = mk_morphism(B.object, Z, Mat.from_ints(ZZ, [[0, 1]]))
    c_family = [Mat.from_ints(ZZ, [[1]]) for _ in range(horizon + 1)]
    with pytest.raises(LiftFailedAtHorizon):
        tower_surjective_lift(A, B, C, fmap, gmap, c_family)


def test_tower_lift_hypothesis_checks():
    horizon = 2
    A, B, C, fmap, gmap, c_family = _exact_z4_fixture(horizon)
    with pytest.raises(HypothesisViolation):
        tower_surjective_lift(A, B, C, fmap, gmap, c_family[:1])
    bad_g = zero_morphism(B.object, C.object)
    with pytest.raises(HypothesisViolation):
        tower_surjective_lift(A, B, C, fmap, bad_g, c_family)


def test_finite_system_colimit_diamond():
    ring = Zmod(6)
    M = mk_module(ring, Mat.from_ints(ring, [[0]]))
    ident = Mat.identity(ring, 1)
    objects = (M, M, M, M)
    leq = tuple(
        (i, j)
        for i in range(4)
        for j in range(4)
        if (i == j) or (i == 0) or (j == 3)
    )
    maps = {pair: mk_morphism(M, M, ident) for pair in leq}
    S = FiniteDirectedSystem(objects, maps)
    top, canonical = finite_system_colimit(S)
    assert top is M and len(canonical) == 4


def test_colimit_rejects_undirected():
    Z = free_module(ZZ, 1)
    maps = {(0, 0): identity_morphism(Z), (1, 1): identity_morphism(Z)}
    with pytest.raises(NotDirected):
        finite_system_colimit(FiniteDirectedSystem((Z, Z), maps))


def test_directed_system_is_its_objects_and_maps():
    Z = free_module(ZZ, 1)
    maps = {(0, 0): identity_morphism(Z), (0, 1): identity_morphism(Z), (1, 1): identity_morphism(Z)}
    S = FiniteDirectedSystem((Z, Z), maps)
    assert S.size == 2 and set(S.leq) == set(maps)
    assert [f.name for f in dataclasses.fields(FiniteDirectedSystem)] == ["objects", "maps"]
    top, canonical = finite_system_colimit(S)
    assert top is Z and len(canonical) == 2


@pytest.mark.parametrize("key", [(0, 1), (2, 2), (-1, 0)])
def test_directed_system_key_past_objects_refused(key):
    Z = free_module(ZZ, 1)
    maps = {(0, 0): identity_morphism(Z), key: identity_morphism(Z)}
    with pytest.raises(AxiomViolation):
        FiniteDirectedSystem((Z,), maps)


def test_enlarge_to_free_examples():
    # psi = (2 3) : Z^2 -> Z with N = 0; kernel is spanned by (3,-2)
    M = free_module(ZZ, 1)
    psi = Mat.from_ints(ZZ, [[2, 3]])
    N = Mat.zeros(ZZ, 2, 1)
    Nprime, wit = enlarge_to_free(M, psi, N)
    assert snf(Nprime).invariant_factors == (1,)
    # psi = diag(1,1) with N = first column doubled
    M2 = free_module(ZZ, 2)
    psi2 = Mat.from_ints(ZZ, [[1, 0], [0, 1]])
    N2 = Mat.zeros(ZZ, 2, 1)
    Nprime2, _ = enlarge_to_free(M2, psi2, N2)
    assert all(ZZ.is_unit(d) for d in snf(Nprime2).invariant_factors)


def test_enlarge_to_free_rejects_noncontained():
    M = free_module(ZZ, 1)
    psi = Mat.from_ints(ZZ, [[2, 3]])
    bad_N = Mat.from_ints(ZZ, [[1], [0]])  # psi(N) = 2 != 0
    with pytest.raises(PreconditionViolation):
        enlarge_to_free(M, psi, bad_N)
