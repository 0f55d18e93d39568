"""Golden outputs of the normal forms, pinned by sha256 digest.

Every layer above `snf` and `hnf` (Hom generators, harness instances,
shrunk failures) depends on their exact output, not just on its
correctness, so the transforms must stay bit-identical across rewrites
of the elimination.  Each stream is a seeded sequence of matrices; the
digest covers every (U, D, V) and (H, U) it produces, and for Z/12 the
results of `solve_linear` and `kernel_matrix` as well.  A seeded stream
of linear systems A*X = B over six rings pins `solve_linear` alone,
unsolvable systems (None) and empty shapes included.

The morphism equations built on them are pinned the same way: over each
of the five rings a seeded stream of small modules and morphisms goes
through `hom_module`, `solve_factor`, `solve_section`, `find_retraction`
and the split-search projectivity decider, and the digest covers every
result, None included.  So does a seeded stream of small modules over
eight rings, Z/n among them, through `invariants`, `is_flat`,
`is_projective` and `projective_cyclic_decomposition`.

The ZZ stream is 2000 matrices up to 6x6 with entries in [-50, 50],
drawn from random.Random(42) one shape and then one matrix at a time.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from fpmod.fpmodule import Morphism, cokernel, compose, direct_sum, mk_module, zero_morphism
from fpmod.devissage import projective_cyclic_decomposition
from fpmod.homtensor import _projective_by_split_search, hom_module, is_flat, is_projective
from fpmod.matrix import Mat
from fpmod.normal_forms import hnf, kernel_matrix, snf, solve_linear
from fpmod.purity import find_retraction, solve_factor, solve_section
from fpmod.rings import QQ, ZI, ZZ, Fp, Zmod


def _int_stream(trials, dim, bound, seed):
    rng = random.Random(seed)
    for _ in range(trials):
        n, m = rng.randint(1, dim), rng.randint(1, dim)
        yield Mat.from_ints(ZZ, [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)])


def _entry(rng, ring):
    if ring == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    if ring == ZI:
        return (rng.randint(-6, 6), rng.randint(-6, 6))
    return rng.randrange(ring.modulus)


def _ring_stream(ring, trials, dim):
    rng = random.Random(f"golden:{ring}")
    for t in range(trials):
        n, m = rng.randint(0, dim), rng.randint(0, dim)
        if not n or not m:
            yield Mat.zeros(ring, n, m)
            continue
        rows = [[_entry(rng, ring) for _ in range(m)] for _ in range(n)]
        if t % 3 == 0:
            # a dependent column makes the rank deficient
            rows = [row + [row[0]] for row in rows]
        yield Mat.from_rows(ring, rows)


def _mat_key(M):
    return (M.rows, M.cols, M.entries)


def _digest(mats):
    h = hashlib.sha256()
    for A in mats:
        sf = snf(A)
        H, W = hnf(A)
        h.update(repr([_mat_key(sf.U), _mat_key(sf.D), _mat_key(sf.V)]).encode())
        h.update(repr([_mat_key(H), _mat_key(W)]).encode())
    return h.hexdigest()


GOLDEN = {
    "ZZ": "728cc938cf1c564bf82d927d74d36be18a658f623344ed61841d0c79bb9ad4b0",
    "QQ": "4fd8fcaa6857abcdea4613e5634c1eb39e13c782c48a9ada51cfc0993b5cb89a",
    "GF(5)": "9f83e9bea37af5e9637306dbf7542e10d8078d118deaa1de3383fc8d976da228",
    "GF(1048573)": "b0b81570c773932abc8898aec301cc928037d8efc737da5e2c7640a3f96cc566",
    "ZI": "15f9d67e29a198abb9fd560152f827ac22a9952254dc115e30e9fc8a203b2950",
}

STREAMS = {
    "ZZ": lambda: _int_stream(2000, 6, 50, 42),
    "QQ": lambda: _ring_stream(QQ, 300, 5),
    "GF(5)": lambda: _ring_stream(Fp(5), 300, 5),
    "GF(1048573)": lambda: _ring_stream(Fp(1048573), 300, 5),
    "ZI": lambda: _ring_stream(ZI, 300, 5),
}


@pytest.mark.parametrize("name", list(STREAMS))
def test_normal_form_digest(name):
    assert _digest(STREAMS[name]()) == GOLDEN[name]


GOLDEN_ZMOD12 = "feca294e905dcc3bde84b2c04ddf0cedfe54d76558e0fa2262923d6e4bef9a1b"


def test_zmod_solve_and_kernel_digest():
    ring = Zmod(12)
    rng = random.Random("golden:Z/12")
    h = hashlib.sha256()
    for _ in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        A = Mat.from_ints(ring, [[rng.randrange(12) for _ in range(m)] for _ in range(n)])
        B = Mat.from_ints(ring, [[rng.randrange(12)] for _ in range(n)])
        X = solve_linear(A, B)
        h.update(repr(None if X is None else _mat_key(X)).encode())
        h.update(repr(_mat_key(kernel_matrix(A))).encode())
    assert h.hexdigest() == GOLDEN_ZMOD12


# ---------------------------------------------------------------------------
# linear systems


def _solve_digest(ring, trials):
    """solve_linear on a seeded stream of (A, B): half of the B are A*X0,
    the rest random and mostly inconsistent; every third A has a repeated
    column; 0-row and 0-column A and 0-column B all occur."""
    rng = random.Random(f"golden-solve:{ring}")
    h = hashlib.sha256()
    for t in range(trials):
        n, m, k = rng.randint(0, 5), rng.randint(0, 4), rng.randint(0, 3)
        A = _rand_mat(rng, ring, n, m)
        if t % 3 == 0 and n and m:
            A = A.hstack(A.select_columns([0]))
        B = A.mul(_rand_mat(rng, ring, A.cols, k)) if t % 2 else _rand_mat(rng, ring, n, k)
        X = solve_linear(A, B)
        if X is None:
            assert t % 2 == 0, f"consistent system reported unsolvable over {ring}"
        else:
            assert A.mul(X) == B
        h.update(repr(None if X is None else _mat_key(X)).encode())
    return h.hexdigest()


GOLDEN_SOLVE = {
    "ZZ": "80f85047bc80f75b3318d6701a6d3b842870b47960e0e7eec17a03122403014a",
    "QQ": "6b0944210f97f5e856e5a921fd233141bfcbbc586d7343f980329f87bc311da9",
    "GF(5)": "923b42f7f01d36c02bf56bed643cabcce63cd4b87251f0d66f0580a42cffdc28",
    "ZI": "1a5b9dbcfd4d77ae4013b05d7681599e8e3297fd21cd7349362c8f7cb1a98795",
    "Z/12": "2ed830d26ced4dc456824234a045cf1b2125c4eaa642ce9e733397573417fda5",
    "Z/8": "9e505f4d3bcaf1c54bb8e7af6ea12fbbbe822978bb96b0eea7638945319ce198",
}

SOLVE_RINGS = {"ZZ": ZZ, "QQ": QQ, "GF(5)": Fp(5), "ZI": ZI, "Z/12": Zmod(12), "Z/8": Zmod(8)}


@pytest.mark.parametrize("name", list(SOLVE_RINGS))
def test_solve_linear_digest(name):
    assert _solve_digest(SOLVE_RINGS[name], 300) == GOLDEN_SOLVE[name]


# ---------------------------------------------------------------------------
# morphism equations


def _elem(rng, ring):
    if ring == ZZ:
        return rng.randint(-4, 4)
    if ring == QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if ring == ZI:
        return (rng.randint(-3, 3), rng.randint(-3, 3))
    return rng.randrange(ring.modulus)


def _rand_mat(rng, ring, rows, cols):
    if not rows:
        return Mat.zeros(ring, 0, cols)
    return Mat.from_rows(ring, [[_elem(rng, ring) for _ in range(cols)] for _ in range(rows)])


def _rand_module(rng, ring):
    gens = rng.randint(1, 3)
    return mk_module(ring, _rand_mat(rng, ring, gens, rng.randint(0, gens)))


def _rand_morphism(rng, M, N):
    H = hom_module(M, N)
    if H.underlying.gens == 0:
        return zero_morphism(M, N)
    return H.decode(_rand_mat(rng, M.ring, H.underlying.gens, 1))


def _result_key(r):
    """A matrix, a morphism (by its matrix), a verdict or None."""
    if isinstance(r, Mat):
        return _mat_key(r)
    if isinstance(r, Morphism):
        return _mat_key(r.mat)
    return r


def _morphism_digest(ring, trials):
    rng = random.Random(f"golden-morphisms:{ring}")
    h = hashlib.sha256()

    def put(*results):
        h.update(repr([_result_key(r) for r in results]).encode())

    for _ in range(trials):
        M, N, P = (_rand_module(rng, ring) for _ in range(3))
        H = hom_module(M, N)
        put(H.gen_mats, H.triv_mats, H.underlying.rels)
        f = _rand_morphism(rng, M, N)
        g = _rand_morphism(rng, M, P)
        fg = compose(_rand_morphism(rng, P, N), g)
        # f factors through g only by chance; fg always does
        put(solve_factor(P, N, g.mat, f.mat), solve_factor(P, N, g.mat, fg.mat))
        put(solve_factor(M, N, _rand_mat(rng, ring, M.gens, 2), _rand_mat(rng, ring, N.gens, 2)))
        S, inj1, inj2, proj1, proj2 = direct_sum(M, N)
        put(find_retraction(f), find_retraction(inj1), find_retraction(inj2))
        put(solve_section(f), solve_section(proj1), solve_section(proj2))
        C, proj = cokernel(f)
        put(solve_section(proj), find_retraction(g))
        put(*(_projective_by_split_search(X) for X in (M, N, S, C)))
    return h.hexdigest()


GOLDEN_MORPHISMS = {
    "ZZ": "587d8ff75437234de92b542b3c9dbdbba55811dc8e4248c717007631fd3df2a7",
    "QQ": "e20ec3de6ed2d3393ab7732a4f65ce650849ce691fb9e26ac72e43d5cd4213b3",
    "GF(5)": "94dde6308912db0385ef124554bf13e1fa63001428bd85f11f0deb729216a4f1",
    "ZI": "50a561f52f2d69e9ad977fbb0c7494c1eed03d139883448de93c806c1769cdd6",
    "Z/12": "26c7e6aca86115eb0afd8e21a5b1cf673afe2bd414a469a34d98582a0cf3e6d9",
}

MORPHISM_RINGS = {"ZZ": ZZ, "QQ": QQ, "GF(5)": Fp(5), "ZI": ZI, "Z/12": Zmod(12)}


@pytest.mark.parametrize("name", list(MORPHISM_RINGS))
def test_morphism_equation_digest(name):
    assert _morphism_digest(MORPHISM_RINGS[name], 30) == GOLDEN_MORPHISMS[name]


# ---------------------------------------------------------------------------
# module invariants and the deciders built on them


def _module_digest(ring, trials):
    rng = random.Random(f"golden-modules:{ring}")
    h = hashlib.sha256()
    for _ in range(trials):
        gens = rng.randint(1, 3)
        M = mk_module(ring, _rand_mat(rng, ring, gens, rng.randint(0, gens + 1)))
        projective = is_projective(M)
        parts = projective_cyclic_decomposition(M).parts if projective else ()
        h.update(repr([M.invariants(), is_flat(M), projective]).encode())
        h.update(repr([_mat_key(p.gens_mat) for p in parts]).encode())
    return h.hexdigest()


GOLDEN_MODULES = {
    "ZZ": "0b9b3e1dee5dee05cb1adaaf9af89ad8c3541c8dfa93cb344b202dbac74736e2",
    "QQ": "0db3b016def4150458afdaba3ecaf94988f93c9f44dcbd7abcf13b0617c95cd9",
    "GF(5)": "33b91c41a585aa15d2b5ce14321ca8d30daee9cae823b56b99d3aa47967111e4",
    "ZI": "61498a8db4a7418e2b620161f5db921e068dea70376ea487a4d06972c4a30290",
    "Z/6": "01d6a12e89c3799b247b58413d4505d7820bca4254637ca20605f956d9c9141f",
    "Z/8": "0e13f9c6073fb197e0f311fcf114669e359178dadec3be8f0e2e8cd792a68636",
    "Z/12": "b29fd9a26f4dfbba49aca334673b2420acd15fdba48368f0fc07fabf7bc3c25f",
    "Z/30": "456f775ec484778c0e859a0349cf170c70181014c8b93f4decba2e9690f9ef09",
}

MODULE_RINGS = {
    "ZZ": ZZ,
    "QQ": QQ,
    "GF(5)": Fp(5),
    "ZI": ZI,
    "Z/6": Zmod(6),
    "Z/8": Zmod(8),
    "Z/12": Zmod(12),
    "Z/30": Zmod(30),
}


@pytest.mark.parametrize("name", list(MODULE_RINGS))
def test_module_invariants_digest(name):
    assert _module_digest(MODULE_RINGS[name], 200) == GOLDEN_MODULES[name]
