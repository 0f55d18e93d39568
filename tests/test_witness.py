"""Well-definedness witnesses of the morphisms the package builds itself.

A morphism f : M -> N carries a witness w with N.rels * w = f.mat * M.rels,
of shape N.rels.cols x M.rels.cols.  mk_morphism solves for it; every other
constructor gives it in closed form.  Each closed form is checked here
against that certificate over five rings, and so is every morphism built
during a small harness run.  The closed forms must not solve anything,
which is checked by making the solver raise.
"""

import random
from fractions import Fraction

import pytest

import fpmod.fpmodule as fp
import fpmod.homtensor as ht
from fpmod.devissage import InternalDecomposition, summand_devissage
from fpmod.fpmodule import (
    Morphism,
    SubmoduleRep,
    cokernel,
    compose,
    direct_sum,
    free_module,
    identity_morphism,
    kernel,
    mk_module,
    mk_morphism,
    mor_power,
    present_submodule,
    quotient_by,
    zero_morphism,
)
from fpmod.harness import SUITES, HarnessConfig, _run_one
from fpmod.homtensor import base_change_mor, hom_module, is_flat, tensor_mor
from fpmod.matrix import Mat
from fpmod.purity import find_retraction, solve_factor, solve_section
from fpmod.pushout import pushout, pushout_induced
from fpmod.rings import QQ, ZI, ZZ, Fp, Zmod, ring_map

RINGS = {"ZZ": ZZ, "QQ": QQ, "GF(5)": Fp(5), "ZI": ZI, "Z/12": Zmod(12)}


def assert_certified(f):
    w = f.witness
    assert (w.rows, w.cols) == (f.target.rels.cols, f.source.rels.cols)
    assert f.target.rels.mul(w) == f.mat.mul(f.source.rels)


def _elem(rng, ring):
    if ring == QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if ring == ZI:
        return (rng.randint(-3, 3), rng.randint(-3, 3))
    return ring.canon(rng.randint(-6, 6))


def _rand_mat(rng, ring, rows, cols):
    if not rows or not cols:
        return Mat.zeros(ring, rows, cols)
    return Mat.from_rows(ring, [[_elem(rng, ring) for _ in range(cols)] for _ in range(rows)])


def _rand_module(rng, ring):
    gens = rng.randint(1, 3)
    return mk_module(ring, _rand_mat(rng, ring, gens, rng.randint(0, gens + 1)))


def _rand_morphism(rng, M, N):
    H = hom_module(M, N)
    if H.underlying.gens == 0:
        return zero_morphism(M, N)
    return H.decode(_rand_mat(rng, M.ring, H.underlying.gens, 1))


def _base_change_maps(ring):
    targets = (ZZ, QQ, ZI, Zmod(12)) if ring == ZZ else (ring,)
    return [ring_map(ring, t) for t in targets]


def _inputs(ring, trials):
    """Seeded modules M, N, P with morphisms f : M -> N, g : N -> P, h : M -> P."""
    rng = random.Random(f"witness:{ring}")
    out = []
    for _ in range(trials):
        M, N, P = (_rand_module(rng, ring) for _ in range(3))
        f, g, h = _rand_morphism(rng, M, N), _rand_morphism(rng, N, P), _rand_morphism(rng, M, P)
        sub = SubmoduleRep(N, _rand_mat(rng, ring, N.gens, rng.randint(0, 2)))
        out.append((M, N, P, f, g, h, sub))
    return out


def _closed_forms(ring, M, N, P, f, g, h, sub):
    """Every morphism the closed-form constructors build from these inputs."""
    out = [compose(g, f), identity_morphism(M), zero_morphism(M, N)]
    out.append(mor_power(compose(f, zero_morphism(N, M)), 2))
    out.append(cokernel(f)[1])
    out.append(quotient_by(sub)[1])
    out.append(present_submodule(N, sub.gens_mat)[1])
    out.append(kernel(f)[1])
    out += direct_sum(M, N)[1:]
    P_ = pushout(f, h)
    out += [P_.inl, P_.inr]
    out += [base_change_mor(phi, f) for phi in _base_change_maps(ring)]
    out += [tensor_mor(f, g), tensor_mor(g, identity_morphism(M))]
    # decode combines the generators' witnesses, which the Hom kernel holds
    H = hom_module(M, N)
    k = H.underlying.gens
    out += [H.decode(Mat.identity(ring, k).col_mat(j)) for j in range(k)]
    if k:
        out.append(H.decode(Mat.from_ints(ring, [[j + 2] for j in range(k)])))
    return out


@pytest.mark.parametrize("name", list(RINGS))
def test_closed_form_witnesses_are_certificates(name):
    ring = RINGS[name]
    solved = 0
    for M, N, P, f, g, h, sub in _inputs(ring, 12):
        for mor in _closed_forms(ring, M, N, P, f, g, h, sub):
            assert_certified(mor)
        # the morphism solver's witness is its solved Y
        for mor in (solve_factor(N, P, f.mat, compose(g, f).mat), find_retraction(f),
                    solve_section(cokernel(f)[1]), solve_section(direct_sum(M, N)[3])):
            if mor is not None:
                assert_certified(mor)
                solved += 1
    assert solved >= 12


@pytest.mark.parametrize("name", list(RINGS))
def test_pushout_induced_witness_is_a_certificate(name):
    # w = [u | v] carries [w_u | w_v | y] for the y of its one solve
    ring = RINGS[name]
    rng = random.Random(f"induced:{name}")
    for M, N, P, f, g, h, sub in _inputs(ring, 12):
        Po = pushout(f, h)
        k = _rand_morphism(rng, Po.object, _rand_module(rng, ring))
        for u, v in ((Po.inl, Po.inr), (compose(k, Po.inl), compose(k, Po.inr))):
            w = pushout_induced(Po, u, v)
            assert_certified(w)
            assert w.mat == u.mat.hstack(v.mat)
        assert fp.mor_eq(w, k)


def _record_morphisms(monkeypatch):
    """A list that collects every Morphism constructed from now on."""
    built = []
    original = Morphism.__init__

    def record(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Morphism, "__init__", record)
    return built


def test_internal_witnesses_are_certificates(monkeypatch):
    # the compositions and inclusions that summand_devissage builds (it
    # builds no id - e), and multiplication by each prime of n in is_flat
    M = mk_module(ZZ, Mat.from_ints(ZZ, [[2, 0], [0, 3], [0, 0]]))
    parts = tuple(SubmoduleRep(M, Mat.identity(ZZ, 3).select_columns([i])) for i in range(3))
    idempotents = [
        mk_morphism(M, M, Mat.from_ints(ZZ, rows))
        for rows in ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    ]
    built = _record_morphisms(monkeypatch)
    for e in idempotents:
        summand_devissage(InternalDecomposition(M, parts), e)
    Z12 = Zmod(12)
    assert not is_flat(mk_module(Z12, Mat.from_ints(Z12, [[2]])))
    assert is_flat(free_module(Z12, 1))
    for n, d in ((30, 6), (72, 8), (10**6, 2**6)):  # flat, with torsion
        ring = Zmod(n)
        assert is_flat(mk_module(ring, Mat.from_ints(ring, [[d]])))
    assert len(built) > 10
    for mor in built:
        assert_certified(mor)


def test_every_morphism_of_a_harness_run_is_certified(monkeypatch):
    built = _record_morphisms(monkeypatch)
    cfg = HarnessConfig(seed=5, trials=2, max_gens=3, max_entry=6)
    for suite in sorted(SUITES):
        for index in range(cfg.trials):
            assert _run_one(suite, index, cfg) is None
    assert len(built) > 100
    for mor in built:
        assert_certified(mor)


def test_closed_forms_solve_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a closed-form witness was solved for")

    cases = [(ring, *inp) for ring in RINGS.values() for inp in _inputs(ring, 4)]
    for mod in (fp, ht):
        monkeypatch.setattr(mod, "solve_linear", refuse)
    for ring, M, N, P, f, g, h, sub in cases:
        for mor in _closed_forms(ring, M, N, P, f, g, h, sub):
            assert_certified(mor)
    with pytest.raises(AssertionError, match="was solved for"):
        mk_morphism(M, M, Mat.identity(M.ring, M.gens))

