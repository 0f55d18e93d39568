"""Finitely presented modules, morphisms, kernels/cokernels, submodules."""

import dataclasses
import random
from functools import reduce

import pytest

import fpmod.fpmodule as fpmodule
from fpmod.errors import NotWellDefined, SourceMismatch
from fpmod.matrix import Mat
from fpmod.fpmodule import (
    FpModule,
    SubmoduleRep,
    cokernel,
    compose,
    direct_sum,
    free_module,
    full_submodule,
    identity_morphism,
    image,
    is_injective,
    is_iso,
    is_surjective,
    kernel,
    mk_module,
    mk_morphism,
    mor_eq,
    present_submodule,
    quotient_by,
    sub_eq,
    sub_independent,
    sub_sum,
    zero_morphism,
    zero_submodule,
)
from fpmod.harness import DEFAULT_RINGS, parse_ring_name
from fpmod.homtensor import hom_module
from fpmod.rings import ZZ, QQ, ZI, Fp, Zmod


def zmod_cyclic(ring, d):
    return mk_module(ring, Mat.from_ints(ring, [[d]]))


def test_invariants_basic():
    assert zmod_cyclic(ZZ, 6).invariants() == ((6,), 0)
    assert free_module(ZZ, 3).invariants() == ((), 3)
    M = mk_module(ZZ, Mat.from_ints(ZZ, [[2, 0], [0, 3]]))
    assert M.invariants() == ((6,), 0)  # Z/2 + Z/3 = Z/6


def test_invariants_computed_once_per_module(monkeypatch):
    smiths = []
    snf = fpmodule.snf

    def count(A):
        smiths.append(A)
        return snf(A)

    monkeypatch.setattr(fpmodule, "snf", count)
    M = mk_module(ZZ, Mat.from_ints(ZZ, [[2, 0], [0, 3]]))
    assert M.invariants() == ((6,), 0)
    assert M.invariants() is M.invariants() and not M.is_zero_module()
    assert is_iso(M, M) and len(smiths) == 1
    # an equal module is a new object and computes its own
    assert is_iso(M, mk_module(ZZ, M.rels)) and len(smiths) == 2
    assert [f.name for f in dataclasses.fields(FpModule)] == ["rels"]


def test_invariants_over_zmod():
    # Z/2 presented over Z/4: torsion (2,), no free part
    M = zmod_cyclic(Zmod(4), 2)
    assert M.invariants() == ((2,), 0)
    # free of rank 1 over Z/6
    assert free_module(Zmod(6), 1).invariants() == ((), 1)


def test_is_iso_ignores_presentation():
    A = mk_module(ZZ, Mat.from_ints(ZZ, [[2, 0], [0, 3]]))
    B = zmod_cyclic(ZZ, 6)
    assert is_iso(A, B)
    assert not is_iso(A, zmod_cyclic(ZZ, 4))


def test_morphism_well_definedness():
    Z2, Z4 = zmod_cyclic(ZZ, 2), zmod_cyclic(ZZ, 4)
    with pytest.raises(NotWellDefined):
        mk_morphism(Z2, Z4, Mat.from_ints(ZZ, [[1]]))
    f = mk_morphism(Z2, Z4, Mat.from_ints(ZZ, [[2]]))
    assert not mor_eq(f, zero_morphism(Z2, Z4))


def test_morphism_equality_mod_relations():
    Z4 = zmod_cyclic(ZZ, 4)
    f = mk_morphism(Z4, Z4, Mat.from_ints(ZZ, [[1]]))
    g = mk_morphism(Z4, Z4, Mat.from_ints(ZZ, [[5]]))
    assert mor_eq(f, g)


def test_kernel_cokernel_mult2():
    Z = free_module(ZZ, 1)
    f = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    K, _ = kernel(f)
    assert K.is_zero_module()
    C, proj = cokernel(f)
    assert C.invariants() == ((2,), 0)
    assert mor_eq(compose(proj, f), zero_morphism(Z, C))


def test_kernel_on_torsion():
    Z4 = zmod_cyclic(ZZ, 4)
    f = mk_morphism(Z4, Z4, Mat.from_ints(ZZ, [[2]]))
    K, incl = kernel(f)
    assert K.invariants() == ((2,), 0)
    assert mor_eq(compose(f, incl), zero_morphism(K, Z4))


def test_kernel_of_sum_map():
    Z2f = free_module(ZZ, 2)
    Z = free_module(ZZ, 1)
    f = mk_morphism(Z2f, Z, Mat.from_ints(ZZ, [[1, 1]]))
    K, incl = kernel(f)
    assert K.invariants() == ((), 1)
    assert f.mat.mul(incl.mat).is_zero()


def test_injective_surjective():
    Z = free_module(ZZ, 1)
    two = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[2]]))
    assert is_injective(two) and not is_surjective(two)
    assert is_surjective(identity_morphism(Z))


def _rand_module(rng, ring, max_gens):
    gens = rng.randint(1, max_gens)
    nrels = rng.randint(0, gens + 1)
    rows = [[rng.randint(-6, 6) for _ in range(nrels)] for _ in range(gens)]
    return mk_module(ring, Mat.from_ints(ring, rows) if nrels else Mat.zeros(ring, gens, 0))


def test_is_surjective_asks_one_containment(monkeypatch):
    # the cokernel's invariants are the oracle; is_surjective reads none
    computed = []
    invariants = FpModule.invariants

    def count(M):
        computed.append(M)
        return invariants(M)

    monkeypatch.setattr(FpModule, "invariants", count)
    rng = random.Random("is-surjective")
    seen = {True: 0, False: 0}
    for ring in (ZZ, QQ, ZI, Fp(5), Zmod(12), Zmod(10**6)):
        max_gens = 2 if ring == Zmod(10**6) else 3
        for _ in range(60):
            M, N = _rand_module(rng, ring, max_gens), _rand_module(rng, ring, max_gens)
            H = hom_module(M, N)
            z = [[rng.randint(-6, 6)] for _ in range(H.gen_mats.cols)]
            f = H.decode(Mat.from_ints(ring, z) if z else Mat.zeros(ring, 0, 1))
            computed.clear()
            surjective = is_surjective(f)
            assert not computed
            assert surjective == cokernel(f)[0].is_zero_module()
            seen[surjective] += 1
    assert sum(seen.values()) >= 300 and seen[True] >= 50, seen


def test_direct_sum_structure():
    A, B = zmod_cyclic(ZZ, 2), free_module(ZZ, 1)
    S, inl, inr, pl, pr = direct_sum(A, B)
    assert S.invariants() == ((2,), 1)
    assert mor_eq(compose(pl, inl), identity_morphism(A))
    assert mor_eq(compose(pr, inr), identity_morphism(B))
    assert mor_eq(compose(pl, inr), zero_morphism(B, A))


def test_submodule_lattice():
    M = free_module(ZZ, 2)
    e1 = SubmoduleRep(M, Mat.from_ints(ZZ, [[1], [0]]))
    e2 = SubmoduleRep(M, Mat.from_ints(ZZ, [[0], [1]]))
    assert sub_eq(sub_sum(e1, e2), full_submodule(M))
    assert sub_independent((e1, e2))


def test_submodule_sum_not_direct():
    # 4Z and 6Z meet in 12Z
    M = free_module(ZZ, 1)
    a = SubmoduleRep(M, Mat.from_ints(ZZ, [[4]]))
    b = SubmoduleRep(M, Mat.from_ints(ZZ, [[6]]))
    assert not sub_independent((a, b))
    assert sub_independent((a,)) and sub_independent(())


def _rand_rows(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("ring_name", DEFAULT_RINGS + ("IntegersMod(12)",))
def test_sub_independent_against_presentations(ring_name):
    """The sum map from the outer direct sum of the parts onto their sum
    is surjective, so it is an isomorphism iff the two presented modules
    are isomorphic: a surjective endomorphism of a finitely generated
    module is injective (Matsumura, Commutative Ring Theory, Thm 2.4)."""
    ring = parse_ring_name(ring_name)
    rng = random.Random(f"sub_independent:{ring_name}")
    not_direct = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        M = mk_module(ring, Mat.from_ints(ring, _rand_rows(rng, n, rng.randint(0, n), 4)))
        gens = [Mat.from_ints(ring, _rand_rows(rng, n, rng.randint(0, 2), 3))
                for _ in range(rng.randint(2, 3))]
        presented = [present_submodule(M, g)[0] for g in gens]
        outer = reduce(lambda S, P: direct_sum(S, P)[0], presented)
        inner, _ = present_submodule(M, reduce(Mat.hstack, gens))
        direct = sub_independent(tuple(SubmoduleRep(M, g) for g in gens))
        assert direct == is_iso(outer, inner)
        not_direct += not direct
    assert not_direct >= 50


def test_present_submodule():
    # 2Z/4Z inside Z/4 is cyclic of order 2
    Z4 = zmod_cyclic(ZZ, 4)
    S, incl = present_submodule(Z4, Mat.from_ints(ZZ, [[2]]))
    assert S.invariants() == ((2,), 0)
    assert incl.target is Z4


def test_image_and_quotient():
    Z = free_module(ZZ, 1)
    f = mk_morphism(Z, Z, Mat.from_ints(ZZ, [[3]]))
    im = image(f)
    Q = quotient_by(im)
    assert Q[0].invariants() == ((3,), 0)


def test_rationals_modules_are_vector_spaces():
    M = mk_module(QQ, Mat.from_ints(QQ, [[2, 0], [0, 0]]))
    assert M.invariants() == ((), 1)


def test_compose_needs_matching_presentations():
    # Z/2 and Z/4 both have one generator; g o f is not defined
    f = identity_morphism(zmod_cyclic(ZZ, 2))
    g = mk_morphism(zmod_cyclic(ZZ, 4), zmod_cyclic(ZZ, 4), Mat.from_ints(ZZ, [[3]]))
    assert f.target.gens == g.source.gens and f.target != g.source
    with pytest.raises(SourceMismatch):
        compose(g, f)
    # an equal presentation built separately composes
    h = compose(identity_morphism(zmod_cyclic(ZZ, 2)), f)
    assert h.source == f.source and mor_eq(h, f)
