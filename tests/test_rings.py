"""Ring arithmetic, canonical forms, and Euclidean division."""

import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fpmod.errors import InputError, PrimalityUndecided
from fpmod.matrix import Mat
from fpmod.rings import _MR_LIMIT, ZZ, QQ, ZI, Fp, Zmod, RingDesc, _is_prime, ring_map


def test_ring_constructors_validate():
    with pytest.raises(InputError):
        RingDesc("Nonsense")
    with pytest.raises(InputError):
        Zmod(1)
    with pytest.raises(InputError):
        Fp(4)


@pytest.mark.parametrize("kind", ["Integers", "Rationals", "GaussianIntegers"])
def test_modulus_rejected_where_none_belongs(kind):
    assert RingDesc(kind, 0) == RingDesc(kind)
    with pytest.raises(InputError, match="takes no modulus"):
        RingDesc(kind, 7)


def test_basic_arithmetic():
    assert ZZ.add(2, 3) == 5
    assert QQ.mul(Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)
    assert ZI.mul((0, 1), (0, 1)) == (-1, 0)  # i^2 = -1
    assert Zmod(6).add(4, 5) == 3
    assert Fp(5).ops.unit(3) == 2  # the associate unit of a field element is its inverse


def test_units():
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2)
    assert ZI.is_unit((0, -1))
    assert Zmod(6).is_unit(5) and not Zmod(6).is_unit(2)
    assert QQ.is_unit(Fraction(7, 3))


def test_normalize_assoc():
    assert ZZ.mul(ZZ.ops.unit(-5), -5) == 5
    assert ZI.mul(ZI.ops.unit((0, 3)), (0, 3)) == (3, 0)  # 3i ~ 3
    assert QQ.mul(QQ.ops.unit(Fraction(-7, 2)), Fraction(-7, 2)) == 1


@given(st.integers(-50, 50), st.integers(-50, 50).filter(lambda b: b != 0))
def test_integer_euclid_div(a, b):
    q, r = ZZ.ops.quo(a, b), ZZ.ops.rem(a, b)
    assert a == q * b + r
    assert abs(r) < abs(b)


@given(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(lambda b: b != (0, 0)),
)
def test_gaussian_euclid_div(a, b):
    q, r = ZI.ops.quo(a, b), ZI.ops.rem(a, b)
    assert ZI.add(ZI.mul(q, b), r) == a
    assert ZI.ops.norm(r) < ZI.ops.norm(b)


# reference arithmetic: ints, Fractions, ints mod n, and Gaussian
# integers as (re, im) pairs of ints
def _mod_reference(n, units):
    return dict(
        draw=lambda rng: rng.randrange(n),
        from_int=lambda k: k % n,
        add=lambda a, b: (a + b) % n,
        sub=lambda a, b: (a - b) % n,
        neg=lambda a: -a % n,
        mul=lambda a, b: a * b % n,
        is_unit=lambda a: a in units,
    )


_NUMBER_REFERENCE = dict(
    add=lambda a, b: a + b,
    sub=lambda a, b: a - b,
    neg=lambda a: -a,
    mul=lambda a, b: a * b,
)
_REFERENCE = {
    ZZ: dict(
        draw=lambda rng: rng.randint(-30, 30),
        from_int=lambda k: k,
        is_unit=lambda a: abs(a) == 1,
        **_NUMBER_REFERENCE,
    ),
    QQ: dict(
        draw=lambda rng: Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
        from_int=Fraction,
        is_unit=lambda a: a != 0,
        **_NUMBER_REFERENCE,
    ),
    Fp(5): _mod_reference(5, {1, 2, 3, 4}),
    ZI: dict(
        draw=lambda rng: (rng.randint(-20, 20), rng.randint(-20, 20)),
        from_int=lambda k: (k, 0),
        add=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        sub=lambda a, b: (a[0] - b[0], a[1] - b[1]),
        neg=lambda a: (-a[0], -a[1]),
        mul=lambda a, b: (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]),
        is_unit=lambda a: a[0] * a[0] + a[1] * a[1] == 1,
    ),
    Zmod(6): _mod_reference(6, {1, 5}),
}


@pytest.mark.parametrize("ring", list(_REFERENCE), ids=str)
def test_ring_ops_match_reference(ring):
    ref, ops, rng = _REFERENCE[ring], ring.ops, random.Random(7)
    zero, one = ref["from_int"](0), ref["from_int"](1)
    assert (ring.zero(), ring.one()) == (zero, one)
    euclidean = ring.kind != "IntegersMod"
    assert ring.is_euclidean == (ops.quo is not None) == euclidean == (ring.cover is ring)
    assert (ring.cover, ring.ideal) == ((ring, ring.zero()) if euclidean else (ZZ, ring.modulus))
    for _ in range(300):
        a, b, k = ref["draw"](rng), ref["draw"](rng), rng.randint(-40, 40)
        assert ring.canon(a) == a and ring.canon(k) == ref["from_int"](k)
        for name in ("add", "sub", "mul"):
            assert getattr(ring, name)(a, b) == ref[name](a, b), (name, a, b)
        assert ring.neg(a) == ref["neg"](a)
        assert ring.is_zero(a) == (a == zero) and ring.is_unit(a) == ref["is_unit"](a)
        if not ring.is_euclidean or b == zero:
            continue
        u = ops.unit(b)  # u*b is the canonical associate of b
        assert ring.is_unit(u) and ops.unit(ring.mul(u, b)) == one
        q, r = ops.quo(a, b), ops.rem(a, b)
        assert ref["add"](ref["mul"](q, b), r) == a, (a, b)
        if ring.is_field:
            assert r == zero
        else:
            assert r == zero or ops.norm(r) < ops.norm(b)
        assert ring.exact_div(ref["mul"](a, b), b) == a


def _canonical(ring, e):
    c = ring.canon(e)
    return c == e and type(c) is type(e)


@pytest.mark.parametrize("ring", list(_REFERENCE), ids=str)
def test_from_rows_takes_python_ints(ring):
    """Mat.from_rows reads Python ints on each of the five default rings,
    Z[i] included (k is k + 0i), and agrees with from_ints."""
    rng = random.Random(f"from-rows:{ring}")
    for rows, cols in ((1, 2), (3, 4), (4, 1)):
        ints = [[rng.randint(-40, 40) for _ in range(cols)] for _ in range(rows)]
        A = Mat.from_rows(ring, ints)
        assert A == Mat.from_ints(ring, ints)
        assert A.entries == tuple(_REFERENCE[ring]["from_int"](k) for row in ints for k in row)
        assert all(_canonical(ring, e) for e in A.entries)


def _draw_row(ring, rng, n, density):
    ref, zero = _REFERENCE[ring], ring.zero()
    return [ref["draw"](rng) if rng.random() < density else zero for _ in range(n)]


@pytest.mark.parametrize("ring", list(_REFERENCE), ids=str)
def test_updates_and_products_match_reference(ring):
    """sub_col (over the cover for Z/n), Mat.mul and Mat.kron against the
    per-entry formulas a - q*b and the sum of x*y, on sparse and dense
    rows.  An update leaves an entry whose multiplier entry is zero
    alone."""
    rng = random.Random(f"updates:{ring}")
    cover = ring.cover
    ops, cref, czero = cover.ops, _REFERENCE[cover], cover.zero()
    ref, zero = _REFERENCE[ring], ring.zero()
    for density in (0.0, 0.2, 0.6, 1.0):
        for _ in range(40):
            n = rng.randint(0, 7)
            x, y = _draw_row(ring, rng, n, density), _draw_row(ring, rng, n, density)
            q = cref["draw"](rng)
            expect = [cref["sub"](a, cref["mul"](q, b)) for a, b in zip(x, y)]
            M = [[x[i], y[i], q] for i in range(n)]
            ops.sub_col(M, 0, 1, q)
            assert [row[0] for row in M] == expect
            assert all(a is row[0] for a, b, row in zip(x, y, M) if b == czero)
            assert [row[1:] for row in M] == [[b, q] for b in y]
            assert all(_canonical(cover, row[0]) for row in M)
            # products over the ring itself
            r, k, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
            A = [_draw_row(ring, rng, k, density) for _ in range(r)]
            B = [_draw_row(ring, rng, c, density) for _ in range(k)]
            P = Mat(ring, r, k, tuple(e for row in A for e in row)).mul(
                Mat(ring, k, c, tuple(e for row in B for e in row))
            )
            for i in range(r):
                for j in range(c):
                    s = zero
                    for t in range(k):
                        s = ref["add"](s, ref["mul"](A[i][t], B[t][j]))
                    assert P.get(i, j) == s
            assert all(_canonical(ring, e) for e in P.entries)
            K = Mat(ring, r, k, tuple(e for row in A for e in row)).kron(
                Mat(ring, k, c, tuple(e for row in B for e in row))
            )
            assert (K.rows, K.cols) == (r * k, k * c)
            for i, t, u, j in itertools.product(range(r), range(k), range(k), range(c)):
                assert K.get(i * k + u, t * c + j) == ref["mul"](A[i][t], B[u][j])
            assert all(_canonical(ring, e) for e in K.entries)


@pytest.mark.parametrize("ring", [ZZ, QQ, ZI, Fp(5), Zmod(6)], ids=str)
def test_rings_pickle(ring):
    copy = pickle.loads(pickle.dumps(ring))
    fresh = RingDesc(ring.kind, ring.modulus)
    assert copy == fresh and hash(copy) == hash(fresh)
    assert copy.mul(copy.canon(2), copy.canon(3)) == ring.canon(6)
    assert copy.cover == ring.cover and (copy.cover is copy) == (ring.cover is ring)

def test_exact_div():
    assert ZZ.exact_div(6, 3) == 2
    assert ZZ.exact_div(7, 3) is None
    assert ZZ.exact_div(0, 0) == 0
    assert ZZ.exact_div(3, 0) is None
    assert ZI.exact_div((5, 0), (2, 1)) == (2, -1)


def test_ring_map_registry():
    phi = ring_map(ZZ, ZI)
    assert phi.flat and phi.faithfully_flat
    assert phi.apply(3) == (3, 0)
    phi = ring_map(ZZ, QQ)
    assert phi.flat and not phi.faithfully_flat
    phi = ring_map(ZZ, Zmod(4))
    assert not phi.flat
    with pytest.raises(InputError):
        ring_map(QQ, ZI)


def _trial_division_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_is_prime_matches_trial_division():
    for p in range(-3, 10**4):
        assert _is_prime(p) == _trial_division_prime(p), p


def test_is_prime_large_moduli():
    assert _is_prime(2**61 - 1)  # 19 digits
    assert Fp(2**61 - 1).modulus == 2**61 - 1
    assert not _is_prime((10**9 + 7) * (10**9 + 9))
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not _is_prime(3825123056546413051)  # ... to the primes up to 23
    with pytest.raises(InputError):
        Fp((10**9 + 7) * (10**9 + 9))
    with pytest.raises(PrimalityUndecided):
        Fp(_MR_LIMIT)
