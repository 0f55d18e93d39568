"""Base rings, exact element arithmetic, and ring homomorphism descriptors.

Supported rings: the integers, the rationals, prime fields, the Gaussian
integers, and integers mod n.  Elements are plain Python values (int,
Fraction, or an (re, im) int pair for Gaussian integers) kept in canonical
form; all arithmetic goes through the RingDesc methods, or through the
ring's ElimOps table in the normal-form elimination, so downstream code
never needs to know the representation.

Z/n is not a Euclidean domain; every normal-form computation over it is
done by lifting to the integers and appending n*identity relations (see
fpmodule).
"""

import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, InputError, PrimalityUndecided, UnsupportedRing

INTEGERS = "Integers"
RATIONALS = "Rationals"
PRIME_FIELD = "PrimeField"
GAUSSIAN = "GaussianIntegers"
INTEGERS_MOD = "IntegersMod"


# Miller-Rabin on the primes up to 41 has no strong pseudoprime below
# _MR_LIMIT (Sorenson-Webster 2015), so the test is exact there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Deterministic primality test; PrimalityUndecided above _MR_LIMIT."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p < 43 * 43:  # no prime factor up to 41, so none at all
        return True
    if p >= _MR_LIMIT:
        raise PrimalityUndecided(
            f"cannot certify {p} as prime: the test is exact below {_MR_LIMIT}"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingDesc:
    kind: str
    modulus: int = 0  # n for IntegersMod, p for PrimeField

    def __post_init__(self):
        if self.kind not in (INTEGERS, RATIONALS, PRIME_FIELD, GAUSSIAN, INTEGERS_MOD):
            raise InputError(f"unknown ring kind {self.kind!r}")
        if self.kind == INTEGERS_MOD and self.modulus < 2:
            raise InputError("IntegersMod requires n >= 2")
        if self.kind == PRIME_FIELD and not _is_prime(self.modulus):
            raise InputError(f"PrimeField requires a prime, got {self.modulus}")

    # ---- structural predicates -------------------------------------------

    @property
    def is_euclidean(self):
        return self.kind != INTEGERS_MOD

    @property
    def is_field(self):
        return self.kind in (RATIONALS, PRIME_FIELD)

    @property
    def is_domain(self):
        return self.kind != INTEGERS_MOD

    def __str__(self):
        if self.kind in (INTEGERS_MOD, PRIME_FIELD):
            return f"{self.kind}({self.modulus})"
        return self.kind

    # ---- element construction --------------------------------------------

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, k):
        if self.kind == INTEGERS:
            return k
        if self.kind == RATIONALS:
            return Fraction(k)
        if self.kind in (PRIME_FIELD, INTEGERS_MOD):
            return k % self.modulus
        return (k, 0)

    def canon(self, a):
        """Bring an element into canonical form (residues reduced, etc.)."""
        if self.kind == INTEGERS:
            return int(a)
        if self.kind == RATIONALS:
            return Fraction(a)
        if self.kind in (PRIME_FIELD, INTEGERS_MOD):
            return int(a) % self.modulus
        re, im = a
        return (int(re), int(im))

    # ---- arithmetic ------------------------------------------------------

    def add(self, a, b):
        if self.kind == GAUSSIAN:
            return (a[0] + b[0], a[1] + b[1])
        if self.kind in (PRIME_FIELD, INTEGERS_MOD):
            return (a + b) % self.modulus
        return a + b

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.kind == GAUSSIAN:
            return (-a[0], -a[1])
        if self.kind in (PRIME_FIELD, INTEGERS_MOD):
            return (-a) % self.modulus
        return -a

    def mul(self, a, b):
        if self.kind == GAUSSIAN:
            return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
        if self.kind in (PRIME_FIELD, INTEGERS_MOD):
            return (a * b) % self.modulus
        return a * b

    def is_zero(self, a):
        if self.kind == GAUSSIAN:
            return a == (0, 0)
        return a == 0

    def eq(self, a, b):
        return self.canon(a) == self.canon(b)

    def norm(self, a):
        """Euclidean norm: |a| on Z, a^2+b^2 on Z[i], 0/1 on fields."""
        if self.kind == INTEGERS:
            return abs(a)
        if self.kind == GAUSSIAN:
            return a[0] * a[0] + a[1] * a[1]
        return 0 if self.is_zero(a) else 1

    def is_unit(self, a):
        if self.kind == INTEGERS:
            return a in (1, -1)
        if self.kind == GAUSSIAN:
            return a in ((1, 0), (-1, 0), (0, 1), (0, -1))
        if self.is_field:
            return not self.is_zero(a)
        from math import gcd

        return gcd(a, self.modulus) == 1

    def unit_inverse(self, a):
        if not self.is_unit(a):
            raise InputError(f"{a!r} is not a unit in {self}")
        if self.kind == INTEGERS:
            return a
        if self.kind == GAUSSIAN:
            if a in ((1, 0), (-1, 0)):
                return a
            return (0, -a[1])  # i and -i are mutual inverses
        if self.kind == RATIONALS:
            return 1 / Fraction(a)
        return pow(a, -1, self.modulus)

    def normalize_assoc(self, a):
        """Return (d, u) with d = u*a canonical among the associates of a.

        Canonical choice: nonnegative on Z, monic 1 on fields, and the
        unique associate in the quadrant {re > 0, im >= 0} on Z[i].
        """
        if self.is_zero(a):
            return self.canon(a), self.one()
        if self.kind == INTEGERS:
            return (a, 1) if a > 0 else (-a, -1)
        if self.is_field:
            u = self.unit_inverse(a)
            return self.one(), u
        if self.kind == INTEGERS_MOD:
            raise UnsupportedRing("no associate normalization over IntegersMod")
        u = _gauss_unit(a)
        return _gauss_mul(a, u), u

    def euclid_div(self, a, b):
        """Euclidean division a = q*b + r with norm(r) < norm(b)."""
        if not self.is_euclidean:
            raise UnsupportedRing(f"no Euclidean division over {self}")
        if self.is_zero(b):
            raise DivisionByZero("division by zero")
        if self.kind == INTEGERS:
            q, r = divmod(a, b)
            return q, r
        if self.is_field:
            return self.mul(a, self.unit_inverse(b)), self.zero()
        q = _gauss_quo(a, b)
        r = self.sub(a, self.mul(q, b))
        assert self.norm(r) < self.norm(b)
        return q, r

    def elim_ops(self):
        """The ElimOps table of this Euclidean ring."""
        if self.kind == INTEGERS:
            return _INT_OPS
        if self.kind == RATIONALS:
            return _RAT_OPS
        if self.kind == GAUSSIAN:
            return _GAUSS_OPS
        if self.kind == PRIME_FIELD:
            return _prime_field_ops(self.modulus)
        raise UnsupportedRing(f"no Euclidean elimination over {self}")

    def exact_div(self, a, b):
        """Return a/b if b divides a exactly, else None."""
        if self.is_zero(b):
            return self.zero() if self.is_zero(a) else None
        q, r = self.euclid_div(a, b)
        return q if self.is_zero(r) else None


def _round_half_toward_zero(num, den):
    """Round num/den (den > 0) to the nearest integer, ties toward zero."""
    q, r = divmod(num, den)
    if 2 * r > den:
        return q + 1
    if 2 * r == den:
        return q + 1 if q < 0 else q  # tie: move toward zero
    return q


def _gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gauss_quo(a, b):
    """Euclidean quotient on Z[i]: each rational coordinate of a/b rounded
    to the nearest integer, ties toward zero, so the remainder has norm
    at most half of norm(b)."""
    nb = b[0] * b[0] + b[1] * b[1]
    num = _gauss_mul(a, (b[0], -b[1]))
    return (_round_half_toward_zero(num[0], nb), _round_half_toward_zero(num[1], nb))


def _gauss_unit(a):
    """The unit u with u*a in the quadrant {re > 0, im >= 0}, for a != 0."""
    for u in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        d = _gauss_mul(a, u)
        if d[0] > 0 and d[1] >= 0:
            return u
    raise AssertionError("unreachable: Z[i] associate normalization")


ZZ = RingDesc(INTEGERS)
QQ = RingDesc(RATIONALS)
ZI = RingDesc(GAUSSIAN)


# ---------------------------------------------------------------------------
# Elimination tables


@dataclass(frozen=True)
class ElimOps:
    """The element operations of Smith/Hermite elimination over one ring.

    normal_forms binds these once per call rather than going through the
    per-element RingDesc dispatch.  Each entry computes the same value as
    the RingDesc arithmetic it mirrors.  Matrices are lists of rows: row
    updates return a new row, column updates change the rows in place.
    norm, quo, rem and unit are only called with nonzero arguments
    (for quo and rem: a nonzero divisor).
    """

    zero: object
    one: object
    minus_one: object
    norm: Callable  # a -> Euclidean norm
    quo: Callable  # (a, b) -> q with norm(a - q*b) < norm(b)
    rem: Callable  # (a, b) -> a - quo(a, b)*b
    unit: Callable  # a -> u with u*a the canonical associate of a
    sub_row: Callable  # (x, y, q) -> x - q*y
    scale_row: Callable  # (x, u) -> u*x
    sub_col: Callable  # (M, j, k, q): column j of M -= q * column k
    scale_col: Callable  # (M, j, u): column j of M *= u


# entries shared between rings: the plain-arithmetic updates (ZZ, QQ) and
# the trivial norm and remainder (QQ, GF(p))


def _plain_sub_row(x, y, q):
    return [a - q * b for a, b in zip(x, y)]


def _plain_scale_row(x, u):
    return [u * a for a in x]


def _plain_sub_col(M, j, k, q):
    for row in M:
        row[j] -= q * row[k]


def _plain_scale_col(M, j, u):
    for row in M:
        row[j] *= u


def _field_norm(a):
    return 1


def _field_rem(a, b):
    return 0


def _sign(a):
    return 1 if a > 0 else -1


def _gauss_sub_row(x, y, q):
    q0, q1 = q
    return [
        (a0 - (q0 * b0 - q1 * b1), a1 - (q0 * b1 + q1 * b0)) for (a0, a1), (b0, b1) in zip(x, y)
    ]


def _gauss_scale_row(x, u):
    return [_gauss_mul(u, a) for a in x]


def _gauss_sub_col(M, j, k, q):
    q0, q1 = q
    for row in M:
        (a0, a1), (b0, b1) = row[j], row[k]
        row[j] = (a0 - (q0 * b0 - q1 * b1), a1 - (q0 * b1 + q1 * b0))


def _gauss_scale_col(M, j, u):
    for row in M:
        row[j] = _gauss_mul(u, row[j])


def _gauss_rem(a, b):
    qb = _gauss_mul(_gauss_quo(a, b), b)
    return (a[0] - qb[0], a[1] - qb[1])


def _prime_field_ops(p):
    def quo(a, b):
        return a * pow(b, -1, p) % p

    def unit(a):
        return pow(a, -1, p)

    def sub_row(x, y, q):
        return [(a - q * b) % p for a, b in zip(x, y)]

    def scale_row(x, u):
        return [u * a % p for a in x]

    def sub_col(M, j, k, q):
        for row in M:
            row[j] = (row[j] - q * row[k]) % p

    def scale_col(M, j, u):
        for row in M:
            row[j] = u * row[j] % p

    return ElimOps(
        zero=0,
        one=1,
        minus_one=p - 1,
        norm=_field_norm,
        quo=quo,
        rem=_field_rem,
        unit=unit,
        sub_row=sub_row,
        scale_row=scale_row,
        sub_col=sub_col,
        scale_col=scale_col,
    )


_PLAIN_UPDATES = dict(
    sub_row=_plain_sub_row,
    scale_row=_plain_scale_row,
    sub_col=_plain_sub_col,
    scale_col=_plain_scale_col,
)
_INT_OPS = ElimOps(
    zero=0,
    one=1,
    minus_one=-1,
    norm=abs,
    quo=operator.floordiv,
    rem=operator.mod,
    unit=_sign,
    **_PLAIN_UPDATES,
)
_RAT_OPS = ElimOps(
    zero=Fraction(0),
    one=Fraction(1),
    minus_one=Fraction(-1),
    norm=_field_norm,
    quo=operator.truediv,
    rem=_field_rem,
    unit=lambda a: 1 / a,
    **_PLAIN_UPDATES,
)
_GAUSS_OPS = ElimOps(
    zero=(0, 0),
    one=(1, 0),
    minus_one=(-1, 0),
    norm=lambda a: a[0] * a[0] + a[1] * a[1],
    quo=_gauss_quo,
    rem=_gauss_rem,
    unit=_gauss_unit,
    sub_row=_gauss_sub_row,
    scale_row=_gauss_scale_row,
    sub_col=_gauss_sub_col,
    scale_col=_gauss_scale_col,
)


def Fp(p):
    return RingDesc(PRIME_FIELD, p)


def Zmod(n):
    return RingDesc(INTEGERS_MOD, n)


# ---------------------------------------------------------------------------
# Ring maps


EMBEDDING = "canonical embedding"
QUOTIENT = "canonical quotient"
FREE_EXTENSION = "free extension"

_SUPPORTED_MAPS = {
    (INTEGERS, RATIONALS): (EMBEDDING, True, False),
    (INTEGERS, GAUSSIAN): (FREE_EXTENSION, True, True),
    (INTEGERS, INTEGERS_MOD): (QUOTIENT, False, False),
}


@dataclass(frozen=True)
class RingMap:
    """A supported ring homomorphism with flatness metadata.

    The registered maps are Integers -> Rationals (flat, not faithfully
    flat), Integers -> GaussianIntegers (free of rank 2, faithfully flat)
    and Integers -> IntegersMod(n) (not flat).  Identity maps on any ring
    are also available.
    """

    source: RingDesc
    target: RingDesc
    kind: str
    flat: bool
    faithfully_flat: bool
    basis_size: int = 1

    def __post_init__(self):
        if self.faithfully_flat and not self.flat:
            raise InputError("faithfully flat ring maps must be flat")

    def apply(self, a):
        """Map a source element to a target element."""
        if self.source == self.target:
            return self.target.canon(a)
        if self.source.kind != INTEGERS:
            raise UnsupportedRing(f"unsupported ring map {self.source} -> {self.target}")
        return self.target.from_int(a)

    def basis_components(self, s):
        """Coordinates of a target element in the free source-basis.

        Only meaningful for free extensions (and identities).
        """
        if self.source == self.target:
            return [s]
        if self.target.kind == GAUSSIAN:
            return [s[0], s[1]]
        raise UnsupportedRing(f"{self.target} is not free over {self.source}")

    def __str__(self):
        return f"{self.source} -> {self.target}"


def ring_map(source, target):
    """Build the canonical map between two supported rings."""
    if source == target:
        return RingMap(source, target, EMBEDDING, True, True)
    key = (source.kind, target.kind)
    if key not in _SUPPORTED_MAPS:
        raise UnsupportedRing(f"unsupported ring map {source} -> {target}")
    kind, flat, ff = _SUPPORTED_MAPS[key]
    basis = 2 if target.kind == GAUSSIAN else 1
    return RingMap(source, target, kind, flat, ff, basis)
