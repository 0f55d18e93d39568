"""Ring arithmetic, canonical forms, and Euclidean division."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fpmod.errors import DivisionByZero, InputError, PrimalityUndecided
from fpmod.rings import _MR_LIMIT, ZZ, QQ, ZI, Fp, Zmod, RingDesc, _is_prime, ring_map


def test_ring_constructors_validate():
    with pytest.raises(InputError):
        RingDesc("Nonsense")
    with pytest.raises(InputError):
        Zmod(1)
    with pytest.raises(InputError):
        Fp(4)


def test_basic_arithmetic():
    assert ZZ.add(2, 3) == 5
    assert QQ.mul(Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)
    assert ZI.mul((0, 1), (0, 1)) == (-1, 0)  # i^2 = -1
    assert Zmod(6).add(4, 5) == 3
    assert Fp(5).unit_inverse(3) == 2


def test_units():
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2)
    assert ZI.is_unit((0, -1))
    assert Zmod(6).is_unit(5) and not Zmod(6).is_unit(2)
    assert QQ.is_unit(Fraction(7, 3))


def test_normalize_assoc():
    a, u = ZZ.normalize_assoc(-5)
    assert a == 5 and ZZ.mul(u, -5) == 5
    a, u = ZI.normalize_assoc((0, 3))  # 3i ~ 3
    assert a == (3, 0)
    a, u = QQ.normalize_assoc(Fraction(-7, 2))
    assert a == 1


@given(st.integers(-50, 50), st.integers(-50, 50).filter(lambda b: b != 0))
def test_integer_euclid_div(a, b):
    q, r = ZZ.euclid_div(a, b)
    assert a == q * b + r
    assert abs(r) < abs(b)


@given(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(lambda b: b != (0, 0)),
)
def test_gaussian_euclid_div(a, b):
    q, r = ZI.euclid_div(a, b)
    assert ZI.add(ZI.mul(q, b), r) == a
    assert ZI.norm(r) < ZI.norm(b)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ZZ.euclid_div(1, 0)


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


def test_free_extension_basis():
    phi = ring_map(ZZ, ZI)
    assert phi.basis_size == 2
    assert phi.basis_components((3, -2)) == [3, -2]


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
