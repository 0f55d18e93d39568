"""Smith/Hermite normal forms, linear solving, and kernels.

The SNF oracle is the minor-gcd identity: the product d_1...d_k of the
first k invariant factors equals the gcd of all k x k minors, computed
here by independent cofactor expansion.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import fpmod.normal_forms as nf
from fpmod.errors import DimensionMismatch, UnsupportedRing
from fpmod.fpmodule import mk_module
from fpmod.matrix import Mat
from fpmod.normal_forms import hnf, is_unimodular, kernel_matrix, lift, snf, solve_linear
from fpmod.rings import INTEGERS_MOD, ZZ, QQ, ZI, Fp, Zmod


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j in range(len(rows)):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _minor_gcd(rows, k):
    n, m = len(rows), len(rows[0])
    g = 0
    for ri in itertools.combinations(range(n), k):
        for ci in itertools.combinations(range(m), k):
            g = math.gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
    return g


int_matrix = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-10, 10), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@given(int_matrix)
@settings(max_examples=150, deadline=None)
def test_snf_integer_properties(rows):
    A = Mat.from_ints(ZZ, rows)
    sf = snf(A)
    assert sf.U.mul(A).mul(sf.V).entries == sf.D.entries
    assert is_unimodular(sf.U) and is_unimodular(sf.V)
    facs = sf.invariant_factors
    assert all(d > 0 for d in facs)
    for i in range(len(facs) - 1):
        assert facs[i + 1] % facs[i] == 0
    prod = 1
    for k, d in enumerate(facs, start=1):
        prod *= d
        assert prod == _minor_gcd(rows, k)


# (A, its invariant factors): diagonals out of divisor order until repaired
SNF_WORKED_EXAMPLES = [
    (Mat.from_ints(ZZ, [[2, 0], [0, 3]]), (1, 6)),
    (Mat.from_ints(ZZ, [[6, 0], [0, 4]]), (2, 12)),
    # three repairs each, one of them on the transpose
    (Mat.from_ints(ZZ, [[4, 0, 0], [0, 6, 0], [0, 0, 9]]), (1, 6, 36)),
    (Mat.from_ints(ZZ, [[9, 0, 0], [0, 6, 0], [0, 0, 4]]), (1, 6, 36)),
    # two repairs, one of them on the transpose
    (Mat.from_ints(ZZ, [[-4, 0, -2, 6], [5, 2, 0, 1], [5, 3, -2, -6]]), (1, 1, 6)),
    (Mat.from_rows(ZI, [[3, 0], [0, (1, 1)]]), ((1, 0), (3, 3))),
    # Z/4 + Z/6 over Z/12 is Z/2 + Z/12
    (lift(Mat.from_ints(Zmod(12), [[4, 0], [0, 6]])), (2, 12)),
]


def test_snf_worked_example():
    """U*A*V = D with U and V unimodular and each factor dividing the next."""
    for A, factors in SNF_WORKED_EXAMPLES:
        sf = snf(A)
        assert sf.invariant_factors == factors, A
        assert sf.U.mul(A).mul(sf.V) == sf.D, A
        assert is_unimodular(sf.U) and is_unimodular(sf.V), A
        assert all(A.ring.exact_div(b, a) is not None for a, b in zip(factors, factors[1:]))


def test_hnf_worked_examples():
    H, U = hnf(Mat.from_ints(ZZ, [[2, 4]]))
    assert H.to_rows() == [[2, 0]]
    assert is_unimodular(U)
    H, _ = hnf(Mat.from_ints(ZZ, [[2, 3]]))
    assert H.to_rows() == [[1, 0]]


@given(int_matrix)
@settings(max_examples=60, deadline=None)
def test_hnf_properties(rows):
    A = Mat.from_ints(ZZ, rows)
    H, U = hnf(A)
    assert A.mul(U).entries == H.entries
    assert is_unimodular(U)


def test_snf_gaussian():
    A = Mat.from_rows(ZI, [[(1, 1), (0, 0)], [(0, 0), (2, 0)]])
    sf = snf(A)
    assert sf.U.mul(A).mul(sf.V).entries == sf.D.entries
    # det = 2(1+i); the chain (1+i) | 2 matches it up to a unit
    assert sf.invariant_factors == ((1, 1), (2, 0))
    prod = ZI.mul(*sf.invariant_factors)
    assoc = lambda a: ZI.mul(ZI.ops.unit(a), a)  # the canonical associate
    assert assoc(prod) == assoc((2, 2))


def test_snf_rationals():
    A = Mat.from_rows(QQ, [[2, 4], [1, 3]])
    sf = snf(A)
    assert sf.invariant_factors == (1, 1)


def test_snf_rejects_zmod():
    with pytest.raises(UnsupportedRing):
        snf(Mat.from_ints(Zmod(6), [[2]]))


def test_solve_worked_examples():
    # 2x = 3 has no integer solution
    assert solve_linear(Mat.from_ints(ZZ, [[2]]), Mat.from_ints(ZZ, [[3]])) is None
    # 2x = 4 over Z/6 does
    sol = solve_linear(Mat.from_ints(Zmod(6), [[2]]), Mat.from_ints(Zmod(6), [[4]]))
    assert sol is not None and Zmod(6).mul(2, sol.get(0, 0)) == 4


def test_solve_completeness_exhaustive_zmod():
    """solve_linear over Z/n agrees with brute force for all small systems."""
    for n in (2, 3, 4, 6, 8):
        ring = Zmod(n)
        rng = random.Random(n)
        for _ in range(60):
            r, c = rng.randint(1, 2), rng.randint(1, 2)
            A = Mat.from_ints(ring, [[rng.randrange(n) for _ in range(c)] for _ in range(r)])
            b = Mat.from_ints(ring, [[rng.randrange(n)] for _ in range(r)])
            found = solve_linear(A, b)
            brute = None
            for xs in itertools.product(range(n), repeat=c):
                x = Mat.from_ints(ring, [[v] for v in xs])
                if A.mul(x).entries == b.entries:
                    brute = x
                    break
            assert (found is None) == (brute is None)
            if found is not None:
                assert A.mul(found).entries == b.entries


@given(int_matrix)
@settings(max_examples=60, deadline=None)
def test_kernel_matrix_integer(rows):
    A = Mat.from_ints(ZZ, rows)
    K = kernel_matrix(A)
    assert A.mul(K).is_zero()
    # rank-nullity: kernel rank equals cols - rank(A)
    assert K.cols == A.cols - snf(A).rank


def test_kernel_matrix_zmod():
    ring = Zmod(6)
    A = Mat.from_ints(ring, [[2]])
    K = kernel_matrix(A)
    assert A.mul(K).is_zero()
    assert K.cols >= 1  # 3 generates the kernel


def test_solve_matrix_rhs():
    A = Mat.from_ints(ZZ, [[2, 0], [0, 3]])
    B = Mat.from_ints(ZZ, [[4, 6], [9, 0]])
    X = solve_linear(A, B)
    assert X is not None and A.mul(X).entries == B.entries


# ---------------------------------------------------------------------------
# solving through the Hermite form, checked against a Smith-form oracle


def _snf_solvable(A, B):
    """Solvability of A*X = B read off the Smith form: U*B divisible by D.

    Over Z/n the system is lifted to [A | n*I] * X = B over the integers.
    """
    if A.ring.kind == INTEGERS_MOD:
        n = A.ring.modulus
        A = A.map_entries(int, new_ring=ZZ).hstack(Mat.identity(ZZ, A.rows).scale(n))
        B = B.map_entries(int, new_ring=ZZ)
    ring = A.ring
    sf = snf(A)
    C = sf.U.mul(B)
    k = len(sf.invariant_factors)
    for i in range(A.rows):
        d = sf.D.get(i, i) if i < k else ring.zero()
        if any(ring.exact_div(C.get(i, j), d) is None for j in range(B.cols)):
            return False
    return True


def _rand_entry(rng, ring):
    if ring == ZI:
        return (rng.randint(-4, 4), rng.randint(-4, 4))
    return ring.canon(rng.randint(-6, 6))


SOLVE_RINGS = [ZZ, QQ, Fp(5), ZI, Zmod(12), Zmod(8)]


@pytest.mark.parametrize("ring", SOLVE_RINGS, ids=str)
def test_solve_linear_matches_snf_oracle(ring, monkeypatch):
    """solve_linear's X, and the verdict of solvable, which must never
    build a transform."""

    def refuse(*args):
        raise AssertionError("solvable built a transform")

    rng = random.Random(f"solve:{ring}")
    seen = {True: 0, False: 0}
    for _ in range(120):
        r, c, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 2)
        A = Mat.from_rows(ring, [[_rand_entry(rng, ring) for _ in range(c)] for _ in range(r)])
        if not r:
            A = Mat.zeros(ring, 0, c)
        if rng.random() < 0.5:
            # a consistent right-hand side A*X0
            X0 = Mat.from_rows(ring, [[_rand_entry(rng, ring) for _ in range(m)] for _ in range(c)])
            B = A.mul(X0) if c else Mat.zeros(ring, r, m)
        else:
            B = Mat.from_rows(ring, [[_rand_entry(rng, ring) for _ in range(m)] for _ in range(r)])
            if not r:
                B = Mat.zeros(ring, 0, m)
        solvable = _snf_solvable(A, B)
        seen[solvable] += 1
        X = solve_linear(A, B)
        with monkeypatch.context() as patched:
            patched.setattr(nf, "_identity_rows", refuse)
            assert nf.solvable(A, B) == solvable
        if solvable:
            assert X is not None and (X.rows, X.cols) == (c, m)
            assert A.mul(X) == B
        else:
            assert X is None
    if not ring.is_field:
        assert seen[False] > 0
    assert seen[True] > 0


def test_elimination_stops_at_the_first_inconsistent_row(monkeypatch):
    """Rows 0..k of the echelon form are the echelon form of A's first
    k+1 rows, so a system is decided inconsistent at its first row that
    the rows above do not already make so, and no row below it is
    eliminated."""
    yielded = []
    echelon = nf._echelon

    def counting(*args):
        for rc in echelon(*args):
            yielded.append(rc)
            yield rc

    monkeypatch.setattr(nf, "_echelon", counting)
    for ring in SOLVE_RINGS:
        rng = random.Random(f"early-stop:{ring}")
        for k in range(1, 5):
            # k rows with a solution, then a row that sums them with a
            # right-hand side one off, then rows that never get reached
            rows = [[_rand_entry(rng, ring) for _ in range(5)] for _ in range(k)]
            X0 = Mat.from_rows(ring, [[_rand_entry(rng, ring)] for _ in range(5)])
            top = Mat.from_rows(ring, rows)
            B = top.mul(X0)
            ones = Mat.from_rows(ring, [[ring.one()] * k])
            bad = ones.mul(top)
            bad_rhs = ones.mul(B).add(Mat.from_rows(ring, [[ring.one()]]))
            tail = Mat.from_rows(ring, [[_rand_entry(rng, ring) for _ in range(6)] for _ in range(3)])
            A = top.vstack(bad).vstack(tail.select_columns(range(5)))
            B = B.vstack(bad_rhs).vstack(tail.select_columns([5]))
            for decide in (nf.solvable, solve_linear):
                yielded.clear()
                assert decide(A, B) in (False, None)
                rows_seen = [r for r, _ in yielded]
                # over Z/n the lift appends ideal columns, not rows
                assert rows_seen == list(range(k + 1))


def _echelon_pivot_rows(H):
    """Pivot rows of a column echelon form, or AssertionError if H is not one.

    Column c < rank is zero above its pivot row and nonzero there, the
    pivot rows increase with c, and columns from the rank on are zero.
    """
    ring = H.ring
    pivots = []
    for c in range(H.cols):
        col = H.col(c)
        nz = [i for i, e in enumerate(col) if not ring.is_zero(e)]
        if not nz:
            assert all(H.col_mat(j).is_zero() for j in range(c, H.cols))
            break
        assert not pivots or nz[0] > pivots[-1]
        pivots.append(nz[0])
    return pivots


@pytest.mark.parametrize("ring", [ZZ, QQ, Fp(7), ZI, Zmod(12), Zmod(8)], ids=str)
def test_hnf_is_column_echelon(ring):
    """hnf's U, riding along on identity rows below A, is square and
    unimodular with A*U = H in column echelon form; Z/n goes through lift."""
    rng = random.Random(f"hnf:{ring}")
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(80)]
    for r, c in shapes:
        A = Mat.from_rows(ring, [[_rand_entry(rng, ring) for _ in range(c)] for _ in range(r)])
        if not r:
            A = Mat.zeros(ring, 0, c)
        if c and rng.random() < 0.3:
            A = A.hstack(A.select_columns([0]))  # force a dependent column
        A = lift(A)
        H, U = hnf(A)
        assert (U.rows, U.cols) == (A.cols, A.cols)
        assert A.mul(U) == H
        assert is_unimodular(U)
        pivots = _echelon_pivot_rows(H)
        assert len(pivots) == snf(A).rank


# ---------------------------------------------------------------------------
# solving with the transform that rides along on the Hermite elimination,
# checked against the transform that hnf builds


def _hermite_solve_reference(A, B):
    """X = W[:, :rank]*Y from the public hnf, or None if H*Y = B has no solution.

    A*W = H is in column echelon form, so H*Y = B is solved by forward
    substitution over the pivot rows and then checked on every row.  Over
    Z/n the system is lifted to its cover first.
    """
    ring = A.ring
    cover = ring.cover
    L = lift(A)
    Bc = Mat(cover, B.rows, B.cols, B.entries)
    H, W = hnf(L)
    pivots = _echelon_pivot_rows(H)
    Y = []
    for c, i in enumerate(pivots):
        y = []
        for j in range(B.cols):
            e = Bc.get(i, j)
            for t in range(c):
                e = cover.sub(e, cover.mul(H.get(i, t), Y[t][j]))
            q = cover.exact_div(e, H.get(i, c))
            if q is None:
                return None
            y.append(q)
        Y.append(y)
    rank = len(Y)
    Ym = Mat(cover, rank, B.cols, tuple(e for row in Y for e in row))
    if H.select_columns(range(rank)).mul(Ym) != Bc:
        return None
    X = W.select_columns(range(rank)).mul(Ym)
    return X.select_rows(range(A.cols)).map_entries(lambda e: e, new_ring=ring)


@pytest.mark.parametrize("ring", SOLVE_RINGS, ids=str)
def test_solve_linear_matches_hermite_transform(ring):
    rng = random.Random(f"replay:{ring}")
    seen = {True: 0, False: 0}
    for _ in range(60):
        r, c, m = rng.randint(1, 8), rng.randint(1, 12), rng.randint(1, 3)
        rows = [[_rand_entry(rng, ring) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.4:
            # repeated columns make the rank deficient
            rows = [row + [row[0], row[-1]] for row in rows]
            c += 2
        A = Mat.from_rows(ring, rows)
        if rng.random() < 0.5:
            X0 = Mat.from_rows(ring, [[_rand_entry(rng, ring) for _ in range(m)] for _ in range(c)])
            B = A.mul(X0)
        else:
            B = Mat.from_rows(ring, [[_rand_entry(rng, ring) for _ in range(m)] for _ in range(r)])
        ref = _hermite_solve_reference(A, B)
        X = solve_linear(A, B)
        assert X == ref
        seen[X is not None] += 1
        if X is not None:
            assert A.mul(X) == B
    assert seen[True] > 0 and seen[False] > 0


def _kernel_via_snf(A):
    """The kernel as the public snf gives it: V's columns past the rank."""
    if A.ring.cover is not A.ring:
        K = _kernel_via_snf(lift(A))
        return nf._as_ring(K.select_rows(range(A.cols)), A.ring).nonzero_columns()
    sf = snf(A)
    return sf.V.select_columns(range(sf.rank, A.cols))


def _same_span(K, L):
    """The columns of K and L span the same submodule."""
    if not K.cols or not L.cols:
        return K.is_zero() and L.is_zero()
    return nf.solvable(K, L) and nf.solvable(L, K)


def test_kernel_matrix_builds_no_smith_transform(monkeypatch):
    """Only what a caller reads rides along on the Hermite eliminations.
    kernel_matrix runs one, with U as identity rows below A's rows and
    nothing to their right, and its columns span the Smith kernel's
    span.  snf's invariant factors and is_unimodular eliminate A's rows
    alone; reading U or V of an snf runs the eliminations again with
    both transforms riding along."""
    calls = []  # (rows in H, rows eliminated, cols, widest row of H)
    echelon = nf._echelon

    def record(ops, H, rows, cols):
        calls.append((len(H), rows, cols, max(map(len, H), default=0)))
        return echelon(ops, H, rows, cols)

    monkeypatch.setattr(nf, "_echelon", record)
    for ring in SOLVE_RINGS:
        rng = random.Random(f"no-smith-transform:{ring}")
        for _ in range(10):
            r, c = rng.randint(0, 4), rng.randint(0, 5)
            rows = [[_rand_entry(rng, ring) for _ in range(c)] for _ in range(r)]
            A = Mat.from_rows(ring, rows) if r and c else Mat.zeros(ring, r, c)
            L = lift(A)  # what the elimination sees: A itself, or [A | n*I] over Z
            ref = _kernel_via_snf(A)
            calls.clear()
            K = kernel_matrix(A)
            assert calls == [(L.rows + L.cols, L.rows, L.cols, L.cols)]
            assert A.mul(K).is_zero() and _same_span(K, ref)
            calls.clear()
            sf = snf(L)
            assert all(n == rows and width <= cols for n, rows, cols, width in calls)
            calls.clear()
            assert sf.U.rows == L.rows
            if L.rows and L.cols:
                # every call carries U and V
                assert calls and all(n > rows and width == n for n, rows, cols, width in calls)
    for A, unimodular in [([[2, 1], [1, 1]], True), ([[2, 0], [0, 1]], False)]:
        calls.clear()
        assert is_unimodular(Mat.from_ints(ZZ, A)) is unimodular
        assert calls == [(2, 2, 2, 2)]
    # a module's invariants read only the factors
    calls.clear()
    assert mk_module(Zmod(12), Mat.from_ints(Zmod(12), [[2, 4], [6, 3]])).invariants() == ((6,), 0)
    assert calls and all(n == rows for n, rows, cols, width in calls)


def _gauss_divmod(a, b):
    """Gaussian-integer quotient and remainder, a and b as (re, im)."""
    n = b[0] * b[0] + b[1] * b[1]
    re, im = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]  # a * conj(b)
    q = ((2 * re + n) // (2 * n), (2 * im + n) // (2 * n))
    return q, (a[0] - q[0] * b[0] + q[1] * b[1], a[1] - q[0] * b[1] - q[1] * b[0])


def _gauss_gcd(a, b):
    while b != (0, 0):
        a, b = b, _gauss_divmod(a, b)[1]
    return a


def _gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


# (add, mul, negate, gcd, zero, one) for each ring of the minor oracle; over
# a field the gcd of a set of minors is 1 if any of them is nonzero
_MINOR_ARITH = {
    "ZZ": (lambda a, b: a + b, lambda a, b: a * b, lambda a: -a, math.gcd, 0, 1),
    "QQ": (lambda a, b: a + b, lambda a, b: a * b, lambda a: -a, lambda a, b: 1 if a or b else 0, 0, 1),
    "GF(5)": (
        lambda a, b: (a + b) % 5,
        lambda a, b: a * b % 5,
        lambda a: -a % 5,
        lambda a, b: 1 if a or b else 0,
        0,
        1,
    ),
    "ZI": (
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        _gauss_mul,
        lambda a: (-a[0], -a[1]),
        _gauss_gcd,
        (0, 0),
        (1, 0),
    ),
}


def _minor_gcds(rows, arith):
    """g_k = gcd of all k x k minors, for k = 1..min(shape), by Laplace
    expansion along the first row with every smaller minor memoized."""
    add, mul, neg, gcd, zero, one = arith
    n, m = len(rows), len(rows[0]) if rows else 0

    @functools.lru_cache(maxsize=None)
    def det(ri, ci):
        if not ri:
            return one
        total = zero
        for t, j in enumerate(ci):
            term = mul(rows[ri[0]][j], det(ri[1:], ci[:t] + ci[t + 1 :]))
            total = add(total, neg(term) if t % 2 else term)
        return total

    gcds = []
    for k in range(1, min(n, m) + 1):
        g = zero
        for ri in itertools.combinations(range(n), k):
            for ci in itertools.combinations(range(m), k):
                g = gcd(g, det(ri, ci))
        gcds.append(g)
    return gcds


MINOR_RINGS = {"ZZ": ZZ, "QQ": QQ, "GF(5)": Fp(5), "ZI": ZI, "Z/10^6": Zmod(10**6), "Z/2^20": Zmod(2**20)}


@pytest.mark.parametrize("name", list(MINOR_RINGS))
def test_invariants_and_kernels_match_minor_oracle(name):
    """d_1...d_k = gcd of the k x k minors, up to a unit, for the first k
    invariant factors of 1,000 random matrices; over Z/n through the lift
    [A | n*I], built here over the integers.  Every kernel K has A*K = 0,
    and over the Euclidean rings as many columns as A has past its rank."""
    ring = MINOR_RINGS[name]
    modulus = ring.modulus if ring.cover is not ring else None
    arith = _MINOR_ARITH["ZZ" if modulus else name]
    _add, mul, _neg, _gcd, zero, one = arith
    rng = random.Random(f"minor-oracle:{name}")
    for t in range(1000):
        r, c = rng.randint(1, 3 if modulus else 5), rng.randint(1, 3 if modulus else 5)
        if modulus:
            rows = [[rng.randrange(modulus) >> rng.randrange(20) for _ in range(c)] for _ in range(r)]
            A = Mat.from_ints(ring, rows)
            rows = [row + [modulus if i == j else 0 for j in range(r)] for i, row in enumerate(rows)]
            facs = snf(Mat.from_ints(ZZ, rows)).invariant_factors
            assert snf(lift(A)).invariant_factors == facs
        else:
            rows = [[_rand_entry(rng, ring) for _ in range(c)] for _ in range(r)]
            if t % 4 == 0:
                rows = [row + [row[0]] for row in rows]  # a dependent column
            A = Mat.from_rows(ring, rows)
            facs = snf(A).invariant_factors
        gcds = _minor_gcds(rows, arith)
        rank = sum(g != zero for g in gcds)
        assert len(facs) == rank
        prod = one
        for k, d in enumerate(facs):
            prod = mul(prod, d)
            if name == "ZI":
                assert gcds[k] in {_gauss_mul(prod, u) for u in ((1, 0), (-1, 0), (0, 1), (0, -1))}
            else:
                assert abs(prod) == gcds[k]
        K = kernel_matrix(A)
        assert A.mul(K).is_zero()
        if not modulus:
            assert K.cols == A.cols - rank


@pytest.mark.parametrize("n", [4, 6, 12])
def test_kernel_matrix_spans_every_solution_over_zmod(n):
    """The subgroup of (Z/n)^c that kernel_matrix(A)'s columns generate,
    closed under addition here, is every x with A*x = 0, found by
    enumeration."""
    ring = Zmod(n)
    rng = random.Random(f"kernel-brute:{n}")
    for _ in range(40):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randrange(n) for _ in range(c)] for _ in range(r)]
        K = kernel_matrix(Mat.from_ints(ring, rows))
        solutions = {
            x
            for x in itertools.product(range(n), repeat=c)
            if all(sum(a * v for a, v in zip(row, x)) % n == 0 for row in rows)
        }
        gens = [tuple(K.get(i, j) for i in range(c)) for j in range(K.cols)]
        span, new = set(), {(0,) * c}
        while new:
            span |= new
            new = {tuple((a + b) % n for a, b in zip(x, g)) for x in new for g in gens} - span
        assert span == solutions


# ---------------------------------------------------------------------------
# zero right-hand sides


def test_solve_linear_zero_rhs_is_zero_without_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("a zero right-hand side was eliminated")

    monkeypatch.setattr(nf, "_echelon", refuse)
    for ring in [ZZ, QQ, Fp(5), ZI, Zmod(12)]:
        rng = random.Random(f"zero-rhs:{ring}")
        shapes = [(3, 4, 2), (4, 2, 1), (0, 3, 2), (3, 0, 2), (3, 4, 0), (0, 0, 1)]
        for r, c, m in shapes:
            rows = [[_rand_entry(rng, ring) for _ in range(c)] for _ in range(r)]
            A = Mat.from_rows(ring, rows) if r and c else Mat.zeros(ring, r, c)
            X = solve_linear(A, Mat.zeros(ring, r, m))
            assert X == Mat.zeros(ring, c, m)
            assert all(type(e) is type(ring.zero()) for e in X.entries)
        # a matrix of zero rows or zero columns is solved the same way
        assert solve_linear(Mat.zeros(ring, 2, 3), Mat.zeros(ring, 2, 1)) == Mat.zeros(ring, 3, 1)
        with pytest.raises(DimensionMismatch, match="row mismatch"):
            solve_linear(Mat.zeros(ring, 3, 2), Mat.zeros(ring, 2, 1))
        other = QQ if ring != QQ else ZZ
        with pytest.raises(DimensionMismatch, match="ring mismatch"):
            solve_linear(Mat.zeros(ring, 2, 2), Mat.zeros(other, 2, 1))
    # Z/12: a zero B over the residues, however A's lift looks
    A = Mat.from_ints(Zmod(12), [[2, 3], [4, 6]])
    assert solve_linear(A, Mat.zeros(Zmod(12), 2, 3)) == Mat.zeros(Zmod(12), 2, 3)
    with pytest.raises(AssertionError, match="was eliminated"):
        solve_linear(A, Mat.from_ints(Zmod(12), [[1], [0]]))
