"""Golden outputs of the normal forms, pinned by sha256 digest.

Every layer above `snf` and `hnf` (Hom generators, harness instances,
shrunk failures) depends on their exact output, not just on its
correctness, so the transforms must stay bit-identical across rewrites
of the elimination.  Each stream is a seeded sequence of matrices; the
digest covers every (U, D, V) and (H, U) it produces, and for Z/12 the
results of `solve_linear` and `kernel_matrix` as well.

The ZZ stream is 2000 matrices up to 6x6 with entries in [-50, 50],
drawn from random.Random(42) one shape and then one matrix at a time.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from fpmod.matrix import Mat
from fpmod.normal_forms import hnf, kernel_matrix, snf, solve_linear
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
