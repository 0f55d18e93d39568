"""Base rings, exact element arithmetic, and ring homomorphism descriptors.

Supported rings: the integers, the rationals, prime fields, the Gaussian
integers, and integers mod n.  Elements are plain Python values (int,
Fraction, or an (re, im) int pair for Gaussian integers) kept in canonical
form.  RingDesc.canon is the one conversion into a ring, from a Python
int on every ring; it runs only where values enter (ints, JSON scalars,
caller rows and scalars, ring maps, cover values read back into a
quotient).  Each ring has one arithmetic table, a RingOps: the element
operations, and for the Euclidean rings the norm, quotient, remainder,
associate unit and row/column updates of the normal-form elimination.
The updates x - q*y skip zeros: an entry whose y entry is zero is left
as it is, and over the rationals an entry is computed on numerators and
denominators and built as one Fraction.  RingDesc binds the element
operations onto itself, so downstream code never needs to know the
representation and no operation branches on the kind of ring.

Every ring is cover/(ideal) for a Euclidean ring, its cover: the four
Euclidean rings are their own cover with ideal zero, and IntegersMod(n)
is Z/(n).  The normal forms run over the cover (normal_forms.lift).
"""

import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd

from .errors import InputError, PrimalityUndecided, UnsupportedRing

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
    """A supported ring, identified by (kind, modulus).

    Its element operations are the entries of its RingOps table, bound
    onto the instance when it is built, so ring.add over the integers is
    operator.add.  Equality, hashing, printing and pickling go by
    (kind, modulus) alone.
    """

    kind: str
    modulus: int = 0  # n for IntegersMod, p for PrimeField

    def __post_init__(self):
        if self.kind in _FIXED_OPS:
            if self.modulus:
                raise InputError(f"{self.kind} takes no modulus, got {self.modulus}")
            ops = _FIXED_OPS[self.kind]
        elif self.kind == INTEGERS_MOD:
            if self.modulus < 2:
                raise InputError("IntegersMod requires n >= 2")
            ops = _residue_ops(self.modulus, field=False)
        elif self.kind == PRIME_FIELD:
            if not _is_prime(self.modulus):
                raise InputError(f"PrimeField requires a prime, got {self.modulus}")
            ops = _residue_ops(self.modulus, field=True)
        else:
            raise InputError(f"unknown ring kind {self.kind!r}")
        object.__setattr__(self, "ops", ops)
        for name in _ELEMENT_OPS:
            object.__setattr__(self, name, getattr(ops, name))

    def __reduce__(self):
        # the bound GF(p) and Z/n closures do not pickle; rebuild instead
        return RingDesc, (self.kind, self.modulus)

    # cover and ideal are derived, not stored: a ring holding itself as
    # its cover would be a reference cycle, freed only by the cyclic GC
    @property
    def cover(self):
        """The Euclidean ring this one is a quotient of: ZZ for Z/n, else itself."""
        return ZZ if self.kind == INTEGERS_MOD else self

    @property
    def ideal(self):
        """The n of the cover with ring = cover/(n): zero for a Euclidean ring."""
        return self.modulus if self.kind == INTEGERS_MOD else self.ops.zero

    @property
    def is_euclidean(self):
        return self.ops.quo is not None

    @property
    def is_field(self):
        return self.kind in (RATIONALS, PRIME_FIELD)

    def __str__(self):
        if self.kind in (INTEGERS_MOD, PRIME_FIELD):
            return f"{self.kind}({self.modulus})"
        return self.kind

    def zero(self):
        return self.ops.zero

    def one(self):
        return self.ops.one

    def elim_ops(self):
        """The RingOps table, for elimination over this Euclidean ring."""
        if not self.is_euclidean:
            raise UnsupportedRing(f"no Euclidean elimination over {self}")
        return self.ops

    def exact_div(self, a, b):
        """Return a/b if b divides a exactly, else None."""
        if self.is_zero(b):
            return self.zero() if self.is_zero(a) else None
        ops = self.elim_ops()
        return ops.quo(a, b) if self.is_zero(ops.rem(a, b)) else None


def _round_half_toward_zero(num, den):
    """Round num/den (den > 0) to the nearest integer, ties toward zero."""
    q, r = divmod(num, den)
    if 2 * r > den:
        return q + 1
    if 2 * r == den:
        return q + 1 if q < 0 else q  # tie: move toward zero
    return q


def _gauss_canon(a):
    re, im = (a, 0) if isinstance(a, int) else a
    return (int(re), int(im))


def _gauss_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gauss_norm(a):
    return a[0] * a[0] + a[1] * a[1]


def _gauss_quo(a, b):
    """Euclidean quotient on Z[i]: each rational coordinate of a/b rounded
    to the nearest integer, ties toward zero, so the remainder has norm
    at most half of norm(b)."""
    nb = _gauss_norm(b)
    num = _gauss_mul(a, (b[0], -b[1]))
    return (_round_half_toward_zero(num[0], nb), _round_half_toward_zero(num[1], nb))


_GAUSS_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _gauss_unit(a):
    """The unit u with u*a in the quadrant {re > 0, im >= 0}, for a != 0."""
    for u in _GAUSS_UNITS:
        d = _gauss_mul(a, u)
        if d[0] > 0 and d[1] >= 0:
            return u
    raise AssertionError("unreachable: Z[i] associate normalization")


# ---------------------------------------------------------------------------
# Arithmetic tables


@dataclass(frozen=True)
class RingOps:
    """The element operations of one ring, as plain functions.

    Every RingDesc builds its table once and binds the element entries
    (canon, add, sub, neg, mul, is_zero, is_unit) onto itself;
    normal_forms binds the Euclidean entries once per elimination.
    canon is the one conversion into the ring, from a Python int or any
    other representative; every other entry takes canonical elements and
    returns canonical results.

    The Euclidean entries are None over IntegersMod.  Matrices are lists
    of rows: row updates return a new row, column updates change the
    rows in place.  sub_row and sub_col leave an entry alone (the same
    object) where the multiplier row or column holds zero, so an update
    costs work only at the nonzeros of y.  norm, quo, rem and unit are
    only called with nonzero arguments (for quo and rem: a nonzero
    divisor).
    """

    zero: object
    one: object
    minus_one: object
    canon: Callable  # Python int or any representative -> canonical element
    add: Callable
    sub: Callable
    neg: Callable
    mul: Callable
    is_zero: Callable
    is_unit: Callable
    norm: Callable = None  # a -> Euclidean norm
    quo: Callable = None  # (a, b) -> q with norm(a - q*b) < norm(b)
    rem: Callable = None  # (a, b) -> a - quo(a, b)*b
    unit: Callable = None  # a -> u with u*a the canonical associate of a
    sub_row: Callable = None  # (x, y, q) -> x - q*y
    scale_row: Callable = None  # (x, u) -> u*x
    sub_col: Callable = None  # (M, j, k, q): column j of M -= q * column k
    scale_col: Callable = None  # (M, j, u): column j of M *= u


# entries shared between rings: the plain-arithmetic updates (ZZ, QQ) and
# the trivial norm and remainder (QQ, GF(p))


def _plain_sub_row(x, y, q):
    return [a - q * b if b else a for a, b in zip(x, y)]


def _plain_scale_row(x, u):
    return [u * a for a in x]


def _plain_sub_col(M, j, k, q):
    for row in M:
        b = row[k]
        if b:
            row[j] -= q * b


def _plain_scale_col(M, j, u):
    for row in M:
        row[j] *= u


# QQ's updates compute a - q*b on numerators and denominators and build
# one Fraction, in place of a Fraction product and a Fraction difference


def _rat_sub_row(x, y, q):
    qn, qd = q.numerator, q.denominator
    out = []
    for a, b in zip(x, y):
        bn = b.numerator
        if bn:
            pd, ad = qd * b.denominator, a.denominator
            a = Fraction(a.numerator * pd - qn * bn * ad, ad * pd)
        out.append(a)
    return out


def _rat_sub_col(M, j, k, q):
    qn, qd = q.numerator, q.denominator
    for row in M:
        b = row[k]
        bn = b.numerator
        if bn:
            a = row[j]
            pd, ad = qd * b.denominator, a.denominator
            row[j] = Fraction(a.numerator * pd - qn * bn * ad, ad * pd)


def _field_norm(a):
    return 1


def _field_rem(a, b):
    return 0


def _sign(a):
    return 1 if a > 0 else -1


def _gauss_sub_row(x, y, q):
    q0, q1 = q
    return [
        (a[0] - (q0 * b0 - q1 * b1), a[1] - (q0 * b1 + q1 * b0)) if b0 or b1 else a
        for a, (b0, b1) in zip(x, y)
    ]


def _gauss_scale_row(x, u):
    return [_gauss_mul(u, a) for a in x]


def _gauss_sub_col(M, j, k, q):
    q0, q1 = q
    for row in M:
        b0, b1 = row[k]
        if b0 or b1:
            a0, a1 = row[j]
            row[j] = (a0 - (q0 * b0 - q1 * b1), a1 - (q0 * b1 + q1 * b0))


def _gauss_scale_col(M, j, u):
    for row in M:
        row[j] = _gauss_mul(u, row[j])


def _gauss_rem(a, b):
    r = _gauss_sub(a, _gauss_mul(_gauss_quo(a, b), b))
    assert _gauss_norm(r) < _gauss_norm(b)
    return r


def _residue_ops(n, field):
    """The table of Z/n.  With field=True (n prime) it is GF(n), which
    also has the Euclidean entries."""
    euclid = {}
    if field:

        def sub_col(M, j, k, q):
            for row in M:
                b = row[k]
                if b:
                    row[j] = (row[j] - q * b) % n

        def scale_col(M, j, u):
            for row in M:
                row[j] = u * row[j] % n

        euclid = dict(
            norm=_field_norm,
            quo=lambda a, b: a * pow(b, -1, n) % n,
            rem=_field_rem,
            unit=lambda a: pow(a, -1, n),
            sub_row=lambda x, y, q: [(a - q * b) % n if b else a for a, b in zip(x, y)],
            scale_row=lambda x, u: [u * a % n for a in x],
            sub_col=sub_col,
            scale_col=scale_col,
        )
    return RingOps(
        zero=0,
        one=1,
        minus_one=n - 1,
        canon=lambda a: int(a) % n,
        add=lambda a, b: (a + b) % n,
        sub=lambda a, b: (a - b) % n,
        neg=lambda a: -a % n,
        mul=lambda a, b: a * b % n,
        is_zero=partial(operator.eq, 0),
        is_unit=lambda a: gcd(a, n) == 1,
        **euclid,
    )


_PLAIN_ARITHMETIC = dict(
    add=operator.add,
    sub=operator.sub,
    neg=operator.neg,
    mul=operator.mul,
    is_zero=partial(operator.eq, 0),
    sub_row=_plain_sub_row,
    scale_row=_plain_scale_row,
    sub_col=_plain_sub_col,
    scale_col=_plain_scale_col,
)
_INT_OPS = RingOps(
    zero=0,
    one=1,
    minus_one=-1,
    canon=int,
    is_unit=(1, -1).__contains__,
    norm=abs,
    quo=operator.floordiv,
    rem=operator.mod,
    unit=_sign,
    **_PLAIN_ARITHMETIC,
)
_RAT_OPS = RingOps(
    zero=Fraction(0),
    one=Fraction(1),
    minus_one=Fraction(-1),
    canon=Fraction,
    is_unit=partial(operator.ne, 0),
    norm=_field_norm,
    quo=operator.truediv,
    rem=_field_rem,
    unit=lambda a: 1 / a,
    **dict(_PLAIN_ARITHMETIC, sub_row=_rat_sub_row, sub_col=_rat_sub_col),
)
_GAUSS_OPS = RingOps(
    zero=(0, 0),
    one=(1, 0),
    minus_one=(-1, 0),
    canon=_gauss_canon,
    add=lambda a, b: (a[0] + b[0], a[1] + b[1]),
    sub=_gauss_sub,
    neg=lambda a: (-a[0], -a[1]),
    mul=_gauss_mul,
    is_zero=partial(operator.eq, (0, 0)),
    is_unit=_GAUSS_UNITS.__contains__,
    norm=_gauss_norm,
    quo=_gauss_quo,
    rem=_gauss_rem,
    unit=_gauss_unit,
    sub_row=_gauss_sub_row,
    scale_row=_gauss_scale_row,
    sub_col=_gauss_sub_col,
    scale_col=_gauss_scale_col,
)
_FIXED_OPS = {INTEGERS: _INT_OPS, RATIONALS: _RAT_OPS, GAUSSIAN: _GAUSS_OPS}

# the RingOps entries that RingDesc binds onto each instance
_ELEMENT_OPS = ("canon", "add", "sub", "neg", "mul", "is_zero", "is_unit")


ZZ = RingDesc(INTEGERS)
QQ = RingDesc(RATIONALS)
ZI = RingDesc(GAUSSIAN)


def Fp(p):
    return RingDesc(PRIME_FIELD, p)


def Zmod(n):
    return RingDesc(INTEGERS_MOD, n)


# ---------------------------------------------------------------------------
# Ring maps


# (flat, faithfully flat) of each registered map
_SUPPORTED_MAPS = {
    (INTEGERS, RATIONALS): (True, False),
    (INTEGERS, GAUSSIAN): (True, True),
    (INTEGERS, INTEGERS_MOD): (False, False),
}


@dataclass(frozen=True)
class RingMap:
    """A supported ring homomorphism with flatness metadata.

    The registered maps are Integers -> Rationals (flat, not faithfully
    flat), Integers -> GaussianIntegers (free of rank 2, faithfully flat)
    and Integers -> IntegersMod(n) (not flat).  Identity maps on any ring
    are also available.  A map keeps no basis of its target over its
    source: descend_generators takes its pure tensors with the scalars
    already in the target ring.
    """

    source: RingDesc
    target: RingDesc
    flat: bool
    faithfully_flat: bool

    def __post_init__(self):
        if self.faithfully_flat and not self.flat:
            raise InputError("faithfully flat ring maps must be flat")

    def apply(self, a):
        """Map a canonical source element to its canonical image."""
        if self.source == self.target:
            return a
        if self.source.kind != INTEGERS:
            raise UnsupportedRing(f"unsupported ring map {self.source} -> {self.target}")
        return self.target.canon(a)

    def __str__(self):
        return f"{self.source} -> {self.target}"


def ring_map(source, target):
    """Build the canonical map between two supported rings."""
    if source == target:
        return RingMap(source, target, True, True)
    key = (source.kind, target.kind)
    if key not in _SUPPORTED_MAPS:
        raise UnsupportedRing(f"unsupported ring map {source} -> {target}")
    return RingMap(source, target, *_SUPPORTED_MAPS[key])
