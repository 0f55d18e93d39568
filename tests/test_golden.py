"""Golden outputs of the normal forms, pinned by sha256 digest.

Every layer above `snf` and `hnf` (Hom generators, harness instances,
shrunk failures) depends on their exact output, not just on its
correctness, so the transforms stay bit-identical unless the
elimination itself changes.  Then a digest of transforms, kernel bases
or Hom generators is re-recorded only after the new kernels are shown
to span what the old ones spanned; the digests of invariants and
verdicts stay.  Each stream is a seeded sequence of matrices; the
digest covers every (U, D, V) and (H, U) it produces, and for Z/12 the
results of `solve_linear` and `kernel_matrix` as well.  A seeded stream
of linear systems A*X = B over six rings pins `solve_linear` alone,
unsolvable systems (None) and empty shapes included.

The morphism equations built on them are pinned the same way: over each
of the five rings a seeded stream of small modules and morphisms goes
through `hom_module`, `solve_factor`, `solve_section`, `find_retraction`
and the split-search projectivity decider, and the digest covers every
result, None included.  A seeded stream of small modules over eight
rings, Z/n among them, goes through `invariants`, `is_flat`,
`is_projective` and `projective_cyclic_decomposition`, with one digest
for the invariants and verdicts and one for the cyclic parts.

The ZZ stream is 2000 matrices up to 6x6 with entries in [-50, 50],
drawn from random.Random(42) one shape and then one matrix at a time.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from fpmod.fpmodule import Morphism, cokernel, compose, direct_sum, mk_module, zero_morphism
from fpmod.devissage import projective_cyclic_decomposition
from fpmod.homtensor import _projective_by_split_search, base_change, hom_module, is_flat, is_projective
from fpmod.jsonio import decode_mat, encode_mat
from fpmod.matrix import Mat
from fpmod.normal_forms import hnf, kernel_matrix, snf, solve_linear
from fpmod.purity import find_retraction, solve_factor, solve_section
from fpmod.rings import QQ, ZI, ZZ, Fp, Zmod, ring_map


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
    "ZZ": "7117144e0aaf3429b5ad4cea1e073f8bd09cfa1796e3d31de284cde3b44acc93",
    "QQ": "5aefe62fcf3a4be5447eb69c13a15506e5aca042727a45934655c00b872e7ae7",
    "GF(5)": "92649cc1bbaeb6708d7533ed4ab33ef54d573cba9988e2824fe951d042a8ab9c",
    "GF(1048573)": "c5c1a2d7ee24628df1e139ca123b34f896d8bb4e58746e0a0d6e0db120159fe8",
    "ZI": "5cf418b5aad8d999db2f4583ae374ab749ca0e45c9d70097d2c455f9901d20e1",
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


GOLDEN_ZMOD12 = "a4e0f0d96e4a71dbdf08c7ff5c527eb02295beef7189505daf7d94851e78f88b"


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
    "ZZ": "5e010d56568a866689f31716512bc2f9919280031a3670d96e9c2c5df70204a7",
    "QQ": "e20ec3de6ed2d3393ab7732a4f65ce650849ce691fb9e26ac72e43d5cd4213b3",
    "GF(5)": "94dde6308912db0385ef124554bf13e1fa63001428bd85f11f0deb729216a4f1",
    "ZI": "e7cd5f9c11267d6fdefc4f23dd014e3d003f2f935ffdc6fe0704e9f0469270b1",
    "Z/12": "0fab86e61c4a0c9e1508d293443ffde8f77e8211ad9e5f8163e7909423148189",
}

MORPHISM_RINGS = {"ZZ": ZZ, "QQ": QQ, "GF(5)": Fp(5), "ZI": ZI, "Z/12": Zmod(12)}


@pytest.mark.parametrize("name", list(MORPHISM_RINGS))
def test_morphism_equation_digest(name):
    assert _morphism_digest(MORPHISM_RINGS[name], 30) == GOLDEN_MORPHISMS[name]


# ---------------------------------------------------------------------------
# module invariants and the deciders built on them


def _module_digest(ring, trials):
    """Two digests: of the invariants and verdicts, and of the cyclic
    parts, whose generators are columns of the inverse of snf's U."""
    rng = random.Random(f"golden-modules:{ring}")
    verdicts, parts_h = hashlib.sha256(), hashlib.sha256()
    for _ in range(trials):
        gens = rng.randint(1, 3)
        M = mk_module(ring, _rand_mat(rng, ring, gens, rng.randint(0, gens + 1)))
        projective = is_projective(M)
        parts = projective_cyclic_decomposition(M).parts if projective else ()
        verdicts.update(repr([M.invariants(), is_flat(M), projective]).encode())
        parts_h.update(repr([_mat_key(p.gens_mat) for p in parts]).encode())
    return verdicts.hexdigest(), parts_h.hexdigest()


GOLDEN_MODULES = {  # (invariants and verdicts, cyclic parts)
    "ZZ": (
        "99784c09542126f3690faadd498708f18d7b737b39bfd0aa9ebb51ecb56b09b4",
        "24016b90d1cdb18a4b03ea507d44699328ea6a0bb5424aa58151b054adb4d518",
    ),
    "QQ": (
        "f23d6d9a036ff745535971797a553a7d14e515b1be790f8cf24b3f1a7211a098",
        "d17dba93a90229cfc15075db5d14b324404d290198d9465b50f1d0b930d283df",
    ),
    "GF(5)": (
        "92a4c8196da0201ea472593edd78ab5bd73f45941ae2faf30ca37608b8029aec",
        "7aea6cd77d94fd93f868012484b098d7cc88df619cb0e3983e7e4815b1c53847",
    ),
    "ZI": (
        "87426b66f9fb1f04ba50f1b670f4916cca00fa95d67163804f573b1be5a8710f",
        "1c664e58d76c8ce59170b03cee046f6e768f1b86bc6d2aeec4ef8265fe1ed82b",
    ),
    "Z/6": (
        "26594fb66ea44d4bc010887e1edc313ca4ea15bb7574d5018ec248f1648cd2aa",
        "6e87dab976f01d572050128f014417a04d25028840f5e22517e6bab246956afb",
    ),
    "Z/8": (
        "988e3a048f91232df4545e60204a28aae5c6f829a46411653e4f589b2be94692",
        "3a155d9941a298a7c4f426f1051a1c8d3c85038c257709c4e4889b2625deef4c",
    ),
    "Z/12": (
        "07c03aeb5071c25d3086549253c9b244897822d48439e91b2cd13e3cb84bcda9",
        "369b19fdfbd5aaa9f8dab4dee14f86158a5d381bad5e32c867fe1073cc2c6165",
    ),
    "Z/30": (
        "1a9a2a9cd869d1357b62177e293930189e2dd9a84cc8122128cc032e6c77dd6a",
        "7ce547b684fd0e1e78497dcf140ba4d9b5e544c924f0cc0efc347e21824a69e0",
    ),
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


# ---------------------------------------------------------------------------
# canonical results


def _results(A):
    """The matrices that snf (D, U, V), hnf, kernel_matrix, solve_linear,
    base_change and decode_mat return for A: the elimination's only over
    a Euclidean ring, base change along every map from A's ring."""
    ring = A.ring
    out = [kernel_matrix(A), solve_linear(A, A)]
    if ring.is_euclidean:
        sf = snf(A)
        out += [sf.D, sf.U, sf.V, *hnf(A)]
    targets = (ZZ, QQ, ZI, Zmod(12)) if ring == ZZ else (ring,)
    out += [base_change(ring_map(ring, T), mk_module(ring, A)).rels for T in targets]
    if A.rows:
        out.append(decode_mat(ring, encode_mat(A)))
    return out


@pytest.mark.parametrize("name", [*STREAMS, "Z/12"])
def test_results_are_canonical(name):
    """Every entry of every result on the golden streams is canonical:
    the elimination, the ring maps and the JSON decoder build their
    matrices without putting the entries through ring.canon again."""
    from tests.test_rings import _canonical

    stream = STREAMS[name]() if name in STREAMS else _ring_stream(Zmod(12), 300, 5)
    for A in stream:
        for X in _results(A):
            assert all(_canonical(X.ring, e) for e in X.entries), (name, A, X)
