"""Hermite/Smith normal forms and exact linear solving.

One Smith and one Hermite elimination serve every Euclidean ring
(integers, rationals, prime fields, Gaussian integers).  They take the
element operations from the ring's ElimOps table (rings.RingDesc.elim_ops),
bound once per call: norm, Euclidean quotient, associate unit, and
whole-row and whole-column updates.  IntegersMod(n) is handled by
`lift`, the one place that turns a Z/n matrix into an integer one with
n*identity columns appended; solve_linear, kernel_matrix and
FpModule.lifted_rels all go through it.

Linear systems are solved through the column Hermite form, whose
transform stays small; the Smith form serves invariant factors,
unimodularity and kernels.
"""

from dataclasses import dataclass

from .errors import DimensionMismatch, UnsupportedRing
from .matrix import Mat
from .rings import INTEGERS_MOD, ZZ


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
# elimination over a Euclidean ring, on lists of rows


def _identity_rows(ops, n):
    z, o = ops.zero, ops.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def _diagonalize_from(ops, D, U, V, t0, rows, cols):
    """Diagonalize D[t0:, t0:], keeping U*A*V = D.

    Each step moves a nonzero of least norm to (t, t), then clears row
    and column t by Euclidean steps, swapping a smaller remainder in as
    the new pivot until both are clear.
    """
    z, norm, quo = ops.zero, ops.norm, ops.quo
    sub_row, sub_col = ops.sub_row, ops.sub_col
    for t in range(t0, min(rows, cols)):
        bi = bj = -1
        best = 0
        for i in range(t, rows):
            row = D[i]
            for j in range(t, cols):
                v = row[j]
                if v != z:
                    nv = norm(v)
                    if bi < 0 or nv < best:
                        bi, bj, best = i, j, nv
        if bi < 0:
            return
        if bi != t:
            D[bi], D[t] = D[t], D[bi]
            U[bi], U[t] = U[t], U[bi]
        if bj != t:
            _swap_cols(D, bj, t)
            _swap_cols(V, bj, t)
        restart = True
        while restart:
            restart = False
            Dt, Ut = D[t], U[t]
            p = Dt[t]
            for i in range(t + 1, rows):
                Di = D[i]
                if Di[t] != z:
                    q = quo(Di[t], p)
                    if q != z:
                        D[i] = Di = sub_row(Di, Dt, q)
                        U[i] = sub_row(U[i], Ut, q)
                    if Di[t] != z:
                        D[i], D[t] = Dt, Di
                        U[i], U[t] = Ut, U[i]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if Dt[j] != z:
                    q = quo(Dt[j], p)
                    if q != z:
                        sub_col(D, j, t, q)
                        sub_col(V, j, t, q)
                    if Dt[j] != z:
                        _swap_cols(D, j, t)
                        _swap_cols(V, j, t)
                        restart = True
                        break


def _swap_cols(M, j, k):
    for row in M:
        row[j], row[k] = row[k], row[j]


def _snf_rows(ops, a_rows, rows, cols):
    D = [row[:] for row in a_rows]
    U = _identity_rows(ops, rows)
    V = _identity_rows(ops, cols)
    z = ops.zero
    k = min(rows, cols)
    _diagonalize_from(ops, D, U, V, 0, rows, cols)
    while True:
        # the first d_i that does not divide a nonzero d_{i+1}
        for bad in range(k - 1):
            d, e = D[bad][bad], D[bad + 1][bad + 1]
            if d != z and e != z and ops.rem(e, d) != z:
                break
        else:
            break
        # fold column bad+1 into column bad, then re-diagonalize the tail
        ops.sub_col(D, bad, bad + 1, ops.minus_one)
        ops.sub_col(V, bad, bad + 1, ops.minus_one)
        _diagonalize_from(ops, D, U, V, bad, rows, cols)
    for i in range(k):
        d = D[i][i]
        if d != z:
            u = ops.unit(d)
            if u != ops.one:
                D[i] = ops.scale_row(D[i], u)
                U[i] = ops.scale_row(U[i], u)
    return U, D, V


def _hnf_rows(ops, a_rows, rows, cols):
    z, norm, quo, sub_col = ops.zero, ops.norm, ops.quo, ops.sub_col
    H = [row[:] for row in a_rows]
    U = _identity_rows(ops, cols)
    c = 0
    for r in range(rows):
        if c >= cols:
            break
        # rows above r are zero from column c on, so the column
        # operations below leave them alone
        Hl = H[r:]
        Hr = Hl[0]
        while True:
            j0 = -1
            best = 0
            for j in range(c, cols):
                v = Hr[j]
                if v != z:
                    nv = norm(v)
                    if j0 < 0 or nv < best:
                        j0, best = j, nv
            if j0 < 0:
                break
            # reduce the rest of row r by its least entry; repeat while
            # a remainder is left
            p = Hr[j0]
            others = False
            for j in range(c, cols):
                if j == j0 or Hr[j] == z:
                    continue
                q = quo(Hr[j], p)
                sub_col(Hl, j, j0, q)
                sub_col(U, j, j0, q)
                if Hr[j] != z:
                    others = True
            if others:
                continue
            _swap_cols(Hl, c, j0)
            _swap_cols(U, c, j0)
            u = ops.unit(Hr[c])
            if u != ops.one:
                ops.scale_col(Hl, c, u)
                ops.scale_col(U, c, u)
            # reduce the entries left of the pivot
            p = Hr[c]
            for j in range(c):
                if Hr[j] != z:
                    q = quo(Hr[j], p)
                    if q != z:
                        sub_col(Hl, j, c, q)
                        sub_col(U, j, c, q)
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
    U, D, V = _snf_rows(ring.elim_ops(), A.to_rows(), A.rows, A.cols)
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
    H, U = _hnf_rows(ring.elim_ops(), A.to_rows(), A.rows, A.cols)
    Hm = Mat.from_rows(ring, H) if A.rows else Mat.zeros(ring, 0, A.cols)
    Um = Mat.from_rows(ring, U) if A.cols else Mat.identity(ring, 0)
    return Hm, Um


def _as_ring(A, ring):
    """A with its entries read in ring: Z/n residues in [0, n) as integers,
    or integers as residues."""
    return A.map_entries(lambda e: e, new_ring=ring)


def lift(A):
    """[A | n*I] over the integers for a Z/n matrix A.

    Its column span over Z is the preimage of the column span of A, so a
    Z/n problem becomes one over a Euclidean ring.
    """
    return _as_ring(A, ZZ).hstack(Mat.identity(ZZ, A.rows).scale(A.ring.modulus))


def solve_linear(A, B):
    """Solve A*X = B exactly over the ring; None if no solution exists."""
    ring = A.ring
    if ring != B.ring:
        raise DimensionMismatch(f"ring mismatch: {ring} vs {B.ring}")
    if A.rows != B.rows:
        raise DimensionMismatch(f"row mismatch: {A.rows} vs {B.rows}")
    if ring.kind == INTEGERS_MOD:
        X = solve_linear(lift(A), _as_ring(B, ZZ))
        if X is None:
            return None
        return _as_ring(X.select_rows(range(A.cols)), ring)
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
        K = kernel_matrix(lift(A))
        return _as_ring(K.select_rows(range(A.cols)), ring).nonzero_columns()
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
