"""Hermite/Smith normal forms and exact linear solving.

Over the integers the elimination loops are delegated to the selected
backend kernel (Cython or pure Python); the other Euclidean rings
(rationals, prime fields, Gaussian integers) go through the generic
implementation below, which is the same algorithm parameterized by the
ring operations.  IntegersMod(n) is handled by lifting to the integers
and appending n*identity columns/relations.

Linear systems are solved through the column Hermite form, whose
transform stays small; the Smith form serves invariant factors,
unimodularity and kernels.
"""

from dataclasses import dataclass

from . import backend
from .errors import DimensionMismatch, UnsupportedRing
from .matrix import Mat
from .rings import INTEGERS, INTEGERS_MOD, ZZ


@dataclass(frozen=True)
class SmithForm:
    U: Mat
    D: Mat
    V: Mat
    invariant_factors: tuple

    @property
    def rank(self):
        return len(self.invariant_factors)


# ---------------------------------------------------------------------------
# generic Euclidean elimination


def _g_eliminate_at(ring, D, U, V, t, rows, cols):
    while True:
        restart = False
        for i in range(t + 1, rows):
            if not ring.is_zero(D[i][t]):
                q, _ = ring.euclid_div(D[i][t], D[t][t])
                if not ring.is_zero(q):
                    for j in range(cols):
                        D[i][j] = ring.sub(D[i][j], ring.mul(q, D[t][j]))
                    for j in range(rows):
                        U[i][j] = ring.sub(U[i][j], ring.mul(q, U[t][j]))
                if not ring.is_zero(D[i][t]):
                    D[i], D[t] = D[t], D[i]
                    U[i], U[t] = U[t], U[i]
                    restart = True
                    break
        if restart:
            continue
        for j in range(t + 1, cols):
            if not ring.is_zero(D[t][j]):
                q, _ = ring.euclid_div(D[t][j], D[t][t])
                if not ring.is_zero(q):
                    for i in range(rows):
                        D[i][j] = ring.sub(D[i][j], ring.mul(q, D[i][t]))
                    for i in range(cols):
                        V[i][j] = ring.sub(V[i][j], ring.mul(q, V[i][t]))
                if not ring.is_zero(D[t][j]):
                    for i in range(rows):
                        D[i][j], D[i][t] = D[i][t], D[i][j]
                    for i in range(cols):
                        V[i][j], V[i][t] = V[i][t], V[i][j]
                    restart = True
                    break
        if restart:
            continue
        break


def _g_diagonalize_from(ring, D, U, V, t0, rows, cols):
    for t in range(t0, min(rows, cols)):
        bi = bj = -1
        best = 0
        for i in range(t, rows):
            for j in range(t, cols):
                v = D[i][j]
                if not ring.is_zero(v):
                    nv = ring.norm(v)
                    if bi < 0 or nv < best:
                        bi, bj, best = i, j, nv
        if bi < 0:
            return
        if bi != t:
            D[bi], D[t] = D[t], D[bi]
            U[bi], U[t] = U[t], U[bi]
        if bj != t:
            for i in range(rows):
                D[i][bj], D[i][t] = D[i][t], D[i][bj]
            for i in range(cols):
                V[i][bj], V[i][t] = V[i][t], V[i][bj]
        _g_eliminate_at(ring, D, U, V, t, rows, cols)


def _g_snf(ring, a_rows, rows, cols):
    D = [row[:] for row in a_rows]
    z, o = ring.zero(), ring.one()
    U = [[o if i == j else z for j in range(rows)] for i in range(rows)]
    V = [[o if i == j else z for j in range(cols)] for i in range(cols)]
    k = min(rows, cols)
    _g_diagonalize_from(ring, D, U, V, 0, rows, cols)
    while True:
        bad = -1
        for i in range(k - 1):
            if not ring.is_zero(D[i][i]) and ring.exact_div(D[i + 1][i + 1], D[i][i]) is None:
                if not ring.is_zero(D[i + 1][i + 1]):
                    bad = i
                    break
        if bad < 0:
            break
        for i in range(rows):
            D[i][bad] = ring.add(D[i][bad], D[i][bad + 1])
        for i in range(cols):
            V[i][bad] = ring.add(V[i][bad], V[i][bad + 1])
        _g_diagonalize_from(ring, D, U, V, bad, rows, cols)
    for i in range(k):
        if not ring.is_zero(D[i][i]):
            _, u = ring.normalize_assoc(D[i][i])
            if not ring.eq(u, o):
                for j in range(cols):
                    D[i][j] = ring.mul(u, D[i][j])
                for j in range(rows):
                    U[i][j] = ring.mul(u, U[i][j])
    return U, D, V


def _g_hnf(ring, a_rows, rows, cols):
    H = [row[:] for row in a_rows]
    z, o = ring.zero(), ring.one()
    U = [[o if i == j else z for j in range(cols)] for i in range(cols)]
    c = 0
    for r in range(rows):
        if c >= cols:
            break
        while True:
            j0 = -1
            best = 0
            for j in range(c, cols):
                v = H[r][j]
                if not ring.is_zero(v):
                    nv = ring.norm(v)
                    if j0 < 0 or nv < best:
                        j0, best = j, nv
            if j0 < 0:
                break
            others = False
            for j in range(c, cols):
                if j == j0 or ring.is_zero(H[r][j]):
                    continue
                q, _ = ring.euclid_div(H[r][j], H[r][j0])
                for i in range(rows):
                    H[i][j] = ring.sub(H[i][j], ring.mul(q, H[i][j0]))
                for i in range(cols):
                    U[i][j] = ring.sub(U[i][j], ring.mul(q, U[i][j0]))
                if not ring.is_zero(H[r][j]):
                    others = True
            if others:
                continue
            for i in range(rows):
                H[i][c], H[i][j0] = H[i][j0], H[i][c]
            for i in range(cols):
                U[i][c], U[i][j0] = U[i][j0], U[i][c]
            _, u = ring.normalize_assoc(H[r][c])
            if not ring.eq(u, o):
                for i in range(rows):
                    H[i][c] = ring.mul(u, H[i][c])
                for i in range(cols):
                    U[i][c] = ring.mul(u, U[i][c])
            p = H[r][c]
            for j in range(c):
                if not ring.is_zero(H[r][j]):
                    q, _ = ring.euclid_div(H[r][j], p)
                    if not ring.is_zero(q):
                        for i in range(rows):
                            H[i][j] = ring.sub(H[i][j], ring.mul(q, H[i][c]))
                        for i in range(cols):
                            U[i][j] = ring.sub(U[i][j], ring.mul(q, U[i][c]))
            c += 1
            break
    return H, U


# ---------------------------------------------------------------------------
# public entry points


def snf(A):
    """Smith normal form of A: U*A*V = D over a Euclidean ring."""
    ring = A.ring
    if not ring.is_euclidean:
        raise UnsupportedRing(f"snf needs a Euclidean ring, got {ring}")
    if ring.kind == INTEGERS:
        U, D, V = backend.snf_int(A.to_rows(), A.rows, A.cols)
    else:
        U, D, V = _g_snf(ring, A.to_rows(), A.rows, A.cols)
    Um = Mat.from_rows(ring, U) if A.rows else Mat.identity(ring, 0)
    Vm = Mat.from_rows(ring, V) if A.cols else Mat.identity(ring, 0)
    Dm = Mat.from_rows(ring, D) if A.rows and A.cols else Mat.zeros(ring, A.rows, A.cols)
    inv = []
    for i in range(min(A.rows, A.cols)):
        d = Dm.get(i, i)
        if ring.is_zero(d):
            break
        inv.append(d)
    return SmithForm(Um, Dm, Vm, tuple(inv))


def hnf(A):
    """Column Hermite form: returns (H, U) with H = A*U, U unimodular."""
    ring = A.ring
    if not ring.is_euclidean:
        raise UnsupportedRing(f"hnf needs a Euclidean ring, got {ring}")
    if ring.kind == INTEGERS:
        H, U = backend.hnf_int(A.to_rows(), A.rows, A.cols)
    else:
        H, U = _g_hnf(ring, A.to_rows(), A.rows, A.cols)
    Hm = Mat.from_rows(ring, H) if A.rows else Mat.zeros(ring, 0, A.cols)
    Um = Mat.from_rows(ring, U) if A.cols else Mat.identity(ring, 0)
    return Hm, Um


def _lift_to_int(A):
    """Lift a Z/n matrix entrywise to Z (residues in [0, n))."""
    return A.map_entries(lambda e: e, new_ring=ZZ)


def solve_linear(A, B):
    """Solve A*X = B exactly over the ring; None if no solution exists."""
    ring = A.ring
    if ring != B.ring:
        raise DimensionMismatch(f"ring mismatch: {ring} vs {B.ring}")
    if A.rows != B.rows:
        raise DimensionMismatch(f"row mismatch: {A.rows} vs {B.rows}")
    if ring.kind == INTEGERS_MOD:
        n = ring.modulus
        Al = _lift_to_int(A)
        nI = Mat.identity(ZZ, A.rows).scale(n)
        X = solve_linear(Al.hstack(nI), _lift_to_int(B))
        if X is None:
            return None
        top = X.select_rows(range(A.cols))
        return top.map_entries(lambda e: e, new_ring=ring)
    # A*W = H with H in column echelon form: column c is zero above its
    # pivot row, and a row that holds no pivot is zero from the next
    # pivot column on.  Forward substitution solves H*Y = B; X = W*Y.
    H, W = hnf(A)
    R = B.to_rows()  # residual B - H*Y over the rows not yet reached
    yrows = [[ring.zero()] * B.cols for _ in range(A.cols)]
    c = 0
    for i in range(A.rows):
        p = H.get(i, c) if c < A.cols else ring.zero()
        if ring.is_zero(p):
            if not all(ring.is_zero(e) for e in R[i]):
                return None
            continue
        y = [ring.exact_div(e, p) for e in R[i]]
        if any(q is None for q in y):
            return None
        yrows[c] = y
        for k in range(i + 1, A.rows):
            h = H.get(k, c)
            if not ring.is_zero(h):
                R[k] = [ring.sub(e, ring.mul(h, q)) for e, q in zip(R[k], y)]
        c += 1
    Y = Mat.from_rows(ring, yrows) if A.cols else Mat.zeros(ring, 0, B.cols)
    return W.mul(Y)


def kernel_matrix(A):
    """Columns generating {x : A*x = 0} over the ring."""
    ring = A.ring
    if ring.kind == INTEGERS_MOD:
        n = ring.modulus
        Al = _lift_to_int(A)
        nI = Mat.identity(ZZ, A.rows).scale(n)
        K = kernel_matrix(Al.hstack(nI))
        top = K.select_rows(range(A.cols)).map_entries(lambda e: e, new_ring=ring)
        keep = [j for j in range(top.cols) if not top.col_mat(j).is_zero()]
        return top.select_columns(keep)
    sf = snf(A)
    k = len(sf.invariant_factors)
    return sf.V.select_columns(range(k, A.cols))


def is_unimodular(A):
    """True iff A is square with unit determinant (checked via SNF)."""
    if A.rows != A.cols:
        return False
    sf = snf(A)
    if len(sf.invariant_factors) != A.rows:
        return False
    return all(A.ring.is_unit(d) for d in sf.invariant_factors)
