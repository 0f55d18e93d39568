"""Hermite/Smith normal forms and exact linear solving.

One Smith and one Hermite elimination serve every Euclidean ring
(integers, rationals, prime fields, Gaussian integers).  They take the
Euclidean entries of the ring's one arithmetic table, its rings.RingOps
(rings.RingDesc.elim_ops), bound once per call: norm, Euclidean quotient
and remainder, associate unit, and whole-row and whole-column updates.
Any other ring is cover/(ideal) for its Euclidean cover (Z/n is Z/(n));
`lift` is the one place that turns a matrix over it into one over the
cover, with ideal*identity columns appended.  solve_linear,
kernel_matrix and FpModule.lifted_rels all go through it.

The Hermite elimination (_echelon) is a generator: it yields each row
as soon as that row is final, since later steps touch only lower rows
and later columns.  Each column operation goes to a step function, so
a caller that needs the transform logs them: A*U = H where U is the
product of the logged elementary operations.  Three entry points share
the elimination:

- solve_linear forward-substitutes each row of H*Y = B as it arrives
  and returns None at the first inconsistent row, leaving the rows
  below it uneliminated.  It then forms X = U*[Y; 0] by replaying the
  log last step first as row operations on [Y; 0], B.cols entries a
  step.
- solvable does the same walk for the verdict alone: no log is kept
  and nothing is replayed.  Callers that only test for a solution use
  it.
- hnf reduces the entries left of each pivot as its row arrives, and
  builds U by the replay on the identity.  Only hnf does this: the
  reduction only mixes pivot columns, so U*[Y; 0] is the same without
  it, and the solver keeps each pivot column final once its row is.

The Smith elimination works the same way on its rows: it builds D and
V in place and logs its row operations in place of U, with U*A*V = D
for the U of the log.  The public snf builds U by replaying the log on
the identity, and SmithForm.U_inverse builds U^-1 by undoing it, last
step first.  kernel_matrix reads only V's columns past the rank, and
is_unimodular only D's diagonal, so neither builds U or calls snf;
invariant factors come from snf.

A zero right-hand side never reaches the elimination: solve_linear
returns the zero solution, and solvable True, straight away.
"""

from dataclasses import dataclass, field

from .errors import DimensionMismatch, UnsupportedRing
from .matrix import Mat


@dataclass(frozen=True)
class SmithForm:
    U: Mat
    D: Mat
    V: Mat
    invariant_factors: tuple
    row_log: list = field(compare=False, repr=False)  # U's row operations, see _snf_rows

    @property
    def rank(self):
        return len(self.invariant_factors)

    def U_inverse(self):
        """U^-1, by undoing the row log on the identity: no solve."""
        ops = self.U.ring.elim_ops()
        W = _identity_rows(ops, self.U.rows)
        _undo_row_log(ops, self.row_log, W)
        return _rows_mat(self.U.ring, W, self.U.rows)


# ---------------------------------------------------------------------------
# elimination over a Euclidean ring, on lists of rows


def _identity_rows(ops, n):
    z, o = ops.zero, ops.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def _diagonalize_from(ops, D, V, step, t0, rows, cols):
    """Diagonalize D[t0:, t0:], keeping U*A*V = D for the U of the log.

    Each step moves a nonzero of least norm to (t, t), then clears row
    and column t by Euclidean steps, swapping a smaller remainder in as
    the new pivot until both are clear.  Row operations go to the log
    through step, column operations are applied to V.
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
            step((bi, t, None))
        if bj != t:
            _swap_cols(D, bj, t)
            _swap_cols(V, bj, t)
        restart = True
        while restart:
            restart = False
            Dt = D[t]
            p = Dt[t]
            for i in range(t + 1, rows):
                Di = D[i]
                if Di[t] != z:
                    q = quo(Di[t], p)
                    if q != z:
                        D[i] = Di = sub_row(Di, Dt, q)
                        step((i, t, q))
                    if Di[t] != z:
                        D[i], D[t] = Dt, Di
                        step((i, t, None))
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
    """Smith form of the rows of A: returns (D, V, log) with
    U*A*V = D, where U is the product of the row operations in log.

    A logged step is (i, t, q) for "row i -= q*row t", (i, t, None) for
    swapping rows i and t, or (i, None, u) for scaling row i by the unit
    u, in the order they were applied.  V is built in place; U is never
    built here: _replay_row_log applies the log to the identity.
    """
    D = [row[:] for row in a_rows]
    V = _identity_rows(ops, cols)
    log = []
    step = log.append
    z = ops.zero
    k = min(rows, cols)
    _diagonalize_from(ops, D, V, step, 0, rows, cols)
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
        _diagonalize_from(ops, D, V, step, bad, rows, cols)
    for i in range(k):
        d = D[i][i]
        if d != z:
            u = ops.unit(d)
            if u != ops.one:
                D[i] = ops.scale_row(D[i], u)
                step((i, None, u))
    return D, V, log


def _echelon(ops, H, rows, cols, step):
    """Column echelon form of the rows H, in place: yields (r, c) for
    each row r once it is final, with c its pivot column or None.

    Row r is worked on rows r.. and columns c.. only, so later steps
    leave it, and its pivot column, as they are: a caller may read row
    r and column c when (r, c) is yielded, and may stop after any row.
    The pivot is a normalized (unit-scaled) entry with zeros to its
    right, and the pivot columns are 0, 1, ... in order.  Entries left
    of a pivot are not reduced here: hnf does that between yields.

    Each column operation goes to step, as (j, k, q) for "column
    j -= q*column k", (j, k, None) for swapping columns j and k, or
    (j, None, u) for scaling column j by the unit u; A*U = H for the
    product U of the steps.  _apply_transform replays them.
    """
    z, norm, quo, sub_col = ops.zero, ops.norm, ops.quo, ops.sub_col
    c = 0
    for r in range(rows):
        # rows above r are zero from column c on, so the column
        # operations below leave them alone
        Hl = H[r:]
        Hr = Hl[0]
        pivot = None
        while c < cols:
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
                step((j, j0, q))
                if Hr[j] != z:
                    others = True
            if others:
                continue
            if j0 != c:
                _swap_cols(Hl, c, j0)
                step((c, j0, None))
            u = ops.unit(Hr[c])
            if u != ops.one:
                ops.scale_col(Hl, c, u)
                step((c, None, u))
            pivot = c
            c += 1
            break
        yield r, pivot


def _discard(_step):
    """The step of an elimination whose transform nobody reads."""


def _forward(ops, H, R, rows, cols, step):
    """Y with H*Y = R for the echelon form H that _echelon makes of the
    rows H, or None at the first row that shows there is none.

    Y has one row per pivot column.  Each row of H is substituted as
    soon as it is final, so an inconsistent system stops the
    elimination there.  Left of its pivot a row is not reduced: that
    would only mix pivot columns, so U*[Y; 0] is the same either way.
    """
    z, quo, rem, sub, mul = ops.zero, ops.quo, ops.rem, ops.sub, ops.mul
    Y = []  # row t of Y, for the pivot column t
    for i, c in _echelon(ops, H, rows, cols, step):
        Hi, res = H[i], R[i]  # res: the residual of row i, R[i] - (H*Y)[i]
        for h, y in zip(Hi, Y):
            if h != z:
                res = [sub(e, mul(h, q)) for e, q in zip(res, y)]
        if c is None:
            if any(e != z for e in res):
                return None
            continue
        p = Hi[c]
        y = []
        for e in res:
            if rem(e, p) != z:
                return None
            y.append(quo(e, p))
        Y.append(y)
    return Y


def _apply_transform(ops, log, Z):
    """Z <- U*Z for the U of log, without building U.

    U*Z = E_1*(...*(E_m*Z)), and E_t*Z is E_t's column operation
    turned into a row operation on Z: "column j -= q*column k" becomes
    "row k -= q*row j".  Rows are replaced, never changed in place.
    """
    sub_row, scale_row = ops.sub_row, ops.scale_row
    for j, k, q in reversed(log):
        if k is None:
            Z[j] = scale_row(Z[j], q)
        elif q is None:
            Z[j], Z[k] = Z[k], Z[j]
        else:
            Z[k] = sub_row(Z[k], Z[j], q)


def _replay_row_log(ops, log, Z):
    """Z <- U*Z for the U of a Smith row log, without building U.

    U = E_m*...*E_1, so the logged row operations are applied to Z in
    the order they were taken.  Rows are replaced, never changed in place.
    """
    sub_row, scale_row = ops.sub_row, ops.scale_row
    for i, t, q in log:
        if t is None:
            Z[i] = scale_row(Z[i], q)
        elif q is None:
            Z[i], Z[t] = Z[t], Z[i]
        else:
            Z[i] = sub_row(Z[i], Z[t], q)


def _undo_row_log(ops, log, Z):
    """Z <- U^-1*Z for the U of a Smith row log, without building U.

    U^-1 = E_1^-1*...*E_m^-1, so the inverse of each logged row
    operation is applied to Z, last step first: "row i += q*row t", the
    same swap, or scaling by the inverse of the unit u, which is unit(u).
    """
    sub_row, scale_row, neg, unit = ops.sub_row, ops.scale_row, ops.neg, ops.unit
    for i, t, q in reversed(log):
        if t is None:
            Z[i] = scale_row(Z[i], unit(q))
        elif q is None:
            Z[i], Z[t] = Z[t], Z[i]
        else:
            Z[i] = sub_row(Z[i], Z[t], neg(q))


# ---------------------------------------------------------------------------
# public entry points


def _rows_mat(ring, rows, cols):
    """The Mat of an elimination's rows; rows or cols may be 0."""
    return Mat.from_rows(ring, rows) if rows and cols else Mat(ring, len(rows), cols, ())


def _smith(A):
    """(ops, D, V, log, rank) of _snf_rows on A, over a Euclidean ring;
    the rank counts D's nonzero diagonal entries, which come first."""
    ring = A.ring
    if not ring.is_euclidean:
        raise UnsupportedRing(f"snf needs a Euclidean ring, got {ring}")
    ops = ring.elim_ops()
    D, V, log = _snf_rows(ops, A.to_rows(), A.rows, A.cols)
    k = 0
    while k < min(A.rows, A.cols) and D[k][k] != ops.zero:
        k += 1
    return ops, D, V, log, k


def snf(A):
    """Smith normal form of A: U*A*V = D over a Euclidean ring."""
    ring = A.ring
    ops, D, V, log, k = _smith(A)
    U = _identity_rows(ops, A.rows)
    _replay_row_log(ops, log, U)  # U*I
    return SmithForm(
        _rows_mat(ring, U, A.rows),
        _rows_mat(ring, D, A.cols),
        _rows_mat(ring, V, A.cols),
        tuple(D[i][i] for i in range(k)),
        log,
    )


def hnf(A):
    """Column Hermite form: returns (H, U) with H = A*U, U unimodular.

    Each row's entries left of its pivot are reduced by the pivot as
    soon as the row is final; only hnf does this.
    """
    ring = A.ring
    if not ring.is_euclidean:
        raise UnsupportedRing(f"hnf needs a Euclidean ring, got {ring}")
    ops = ring.elim_ops()
    z, quo, sub_col = ops.zero, ops.quo, ops.sub_col
    H = A.to_rows()
    log = []
    step = log.append
    for r, c in _echelon(ops, H, A.rows, A.cols, step):
        if c is None:
            continue
        Hl = H[r:]
        Hr = Hl[0]
        p = Hr[c]
        for j in range(c):
            if Hr[j] != z:
                q = quo(Hr[j], p)
                if q != z:
                    sub_col(Hl, j, c, q)
                    step((j, c, q))
    U = _identity_rows(ops, A.cols)
    _apply_transform(ops, log, U)  # U*I
    return _rows_mat(ring, H, A.cols), _rows_mat(ring, U, A.cols)


def _as_ring(A, ring):
    """A over the cover with its entries read in ring: integers as residues."""
    return A.map_entries(lambda e: e, new_ring=ring)


def _over_cover(A):
    """A read over its cover: a residue in [0, n) is already a canonical integer."""
    return Mat(A.ring.cover, A.rows, A.cols, A.entries)


def lift(A):
    """A itself over a Euclidean ring, else [A | ideal*I] over the cover.

    Its column span over the cover is the preimage of the column span of
    A, so the problem becomes one over a Euclidean ring.
    """
    ring, cover = A.ring, A.ring.cover
    if cover is ring:
        return A
    return _over_cover(A).hstack(Mat.identity(cover, A.rows).scale(ring.ideal))


def _check_system(A, B):
    ring = A.ring
    if ring != B.ring:
        raise DimensionMismatch(f"ring mismatch: {ring} vs {B.ring}")
    if A.rows != B.rows:
        raise DimensionMismatch(f"row mismatch: {A.rows} vs {B.rows}")


def solve_linear(A, B):
    """Solve A*X = B exactly over the ring; None if no solution exists.

    An all-zero B (B with no rows or no columns included) returns the
    zero X of shape A.cols x B.cols without eliminating A: it is the
    solution the log replay would give.  The ring and shape checks come
    first, so a mismatched zero B still raises.
    """
    _check_system(A, B)
    ring = A.ring
    if B.is_zero():
        return Mat.zeros(ring, A.cols, B.cols)
    if ring.cover is not ring:
        X = solve_linear(lift(A), _over_cover(B))
        if X is None:
            return None
        return _as_ring(X.select_rows(range(A.cols)), ring)
    # A*U = H with H in column echelon form; Y solves H*Y = B, is zero
    # off its first rank rows, and X = U*[Y; 0] replays the log on it
    ops = ring.elim_ops()
    log = []
    Y = _forward(ops, A.to_rows(), B.to_rows(), A.rows, A.cols, log.append)
    if Y is None:
        return None
    Y += [[ops.zero] * B.cols] * (A.cols - len(Y))
    _apply_transform(ops, log, Y)
    return Mat(ring, A.cols, B.cols, tuple(e for row in Y for e in row))


def solvable(A, B):
    """True iff A*X = B has a solution over the ring.

    The verdict of solve_linear without its X: the same checks, the same
    zero right-hand side and Z/n lift, and the same elimination and
    forward substitution, but no log is kept, nothing is replayed, and
    the elimination stops at the first inconsistent row.
    """
    _check_system(A, B)
    ring = A.ring
    if B.is_zero():
        return True
    if ring.cover is not ring:
        return solvable(lift(A), _over_cover(B))
    ops = ring.elim_ops()
    return _forward(ops, A.to_rows(), B.to_rows(), A.rows, A.cols, _discard) is not None


def kernel_matrix(A):
    """Columns generating {x : A*x = 0} over the ring: the last columns
    of the Smith V, past the rank, read straight from the elimination."""
    ring = A.ring
    if ring.cover is not ring:
        K = kernel_matrix(lift(A))
        return _as_ring(K.select_rows(range(A.cols)), ring).nonzero_columns()
    _, _, V, _, k = _smith(A)
    return Mat(ring, A.cols, A.cols - k, tuple(e for row in V for e in row[k:]))


def is_unimodular(A):
    """True iff A is square with unit determinant: its Smith diagonal
    holds units only."""
    if A.rows != A.cols:
        return False
    _, D, _, _, _ = _smith(A)
    return all(A.ring.is_unit(D[i][i]) for i in range(A.rows))
