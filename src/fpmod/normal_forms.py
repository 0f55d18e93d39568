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

One rule hands back the transforms: a transform that a function
returns rides along on the rows it eliminates, and a transform that
is applied to a right-hand side stays a log (Cohen, GTM 138, 2.4).
Row operations act on whole rows and column operations on every row,
while the pivot search reads only the leading rows x cols block, so
identity columns appended to the right of A come out as the row
transform, and identity rows appended below A as the column transform.

The Hermite elimination (_echelon) is a generator: it yields each row
as soon as that row is final, since later steps touch only lower rows
and later columns.  Three entry points share it:

- solve_linear forward-substitutes each row of H*Y = B as it arrives
  and returns None at the first inconsistent row, leaving the rows
  below it uneliminated.  Its column operations go to a log, A*U = H
  for their product U, and it forms X = U*[Y; 0] by replaying the log
  last step first as row operations on [Y; 0], B.cols entries a step.
- solvable does the same walk for the verdict alone: no log is kept
  and nothing is replayed.  Callers that only test for a solution use
  it.
- hnf appends identity rows below A, which come out as U, and reduces
  the entries left of each pivot as its row arrives.  Only hnf does
  this: the reduction only mixes pivot columns, so U*[Y; 0] is the same
  without it, and the solver keeps each pivot column final once its
  row is.

The Smith elimination gives U*A*V = D.  snf appends the identity to
the right of A's rows, for U, and identity rows below A, for V.
kernel_matrix reads only V's columns past the rank, so it appends only
the rows below; is_unimodular reads only D's diagonal and appends
nothing.  Invariant factors come from snf.

A zero right-hand side never reaches the elimination: solve_linear
returns the zero solution, and solvable True, straight away.
"""

from dataclasses import dataclass

from .errors import DimensionMismatch, UnsupportedRing
from .matrix import Mat


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


def _diagonalize_from(ops, D, t0, rows, cols):
    """Diagonalize the leading rows x cols block of D from (t0, t0) on.

    Each step moves a nonzero of least norm to (t, t), then clears row
    and column t by Euclidean steps, swapping a smaller remainder in as
    the new pivot until both are clear.  Row operations act on whole
    rows and column operations on every row of D, so the transforms
    ride along on whatever D holds past the block.
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
        if bj != t:
            _swap_cols(D, bj, t)
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
                    if Di[t] != z:
                        D[i], D[t] = Dt, Di
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if Dt[j] != z:
                    q = quo(Dt[j], p)
                    if q != z:
                        sub_col(D, j, t, q)
                    if Dt[j] != z:
                        _swap_cols(D, j, t)
                        restart = True
                        break


def _swap_cols(M, j, k):
    for row in M:
        row[j], row[k] = row[k], row[j]


def _snf_rows(ops, D, rows, cols):
    """Smith form of the leading rows x cols block of the rows D, in
    place: returns its rank, the number of nonzero diagonal entries,
    which come first.

    Appending the identity to the right of A's rows makes those columns
    U, and appending identity rows below A makes those rows V, with
    U*A*V = D: see _diagonalize_from.
    """
    z = ops.zero
    k = min(rows, cols)
    _diagonalize_from(ops, D, 0, rows, cols)
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
        _diagonalize_from(ops, D, bad, rows, cols)
    rank = 0
    for i in range(k):
        d = D[i][i]
        if d != z:
            rank += 1
            u = ops.unit(d)
            if u != ops.one:
                D[i] = ops.scale_row(D[i], u)
    return rank


def _echelon(ops, H, rows, cols, step):
    """Column echelon form of the rows H, in place: yields (r, c) for
    each row r once it is final, with c its pivot column or None.

    Row r is worked on rows r.. and columns c.. only, so later steps
    leave it, and its pivot column, as they are: a caller may read row
    r and column c when (r, c) is yielded, and may stop after any row.
    The pivot is a normalized (unit-scaled) entry with zeros to its
    right, and the pivot columns are 0, 1, ... in order.  Entries left
    of a pivot are not reduced here: hnf does that between yields.

    Column operations act on every row from r on, so identity rows
    appended below the first rows come out as the transform U with
    A*U = H.  Each one also goes to step, as (j, k, q) for "column
    j -= q*column k", (j, k, None) for swapping columns j and k, or
    (j, None, u) for scaling column j by the unit u: solve_linear logs
    them for _apply_transform.
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
    """The step of an elimination whose transform is not logged."""


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


# ---------------------------------------------------------------------------
# public entry points


def _rows_mat(ring, rows, cols):
    """The Mat of an elimination's rows; rows or cols may be 0."""
    return Mat.from_rows(ring, rows) if rows and cols else Mat(ring, len(rows), cols, ())


def _euclidean_ops(A, name):
    """The elimination ops of A's ring, which name needs Euclidean."""
    if not A.ring.is_euclidean:
        raise UnsupportedRing(f"{name} needs a Euclidean ring, got {A.ring}")
    return A.ring.elim_ops()


def snf(A):
    """Smith normal form of A: U*A*V = D over a Euclidean ring.

    The rows eliminated are A's rows with the identity appended, then
    identity rows: U comes out to the right of D, and V below it.
    """
    ring, m, n = A.ring, A.rows, A.cols
    ops = _euclidean_ops(A, "snf")
    D = [row + e for row, e in zip(A.to_rows(), _identity_rows(ops, m))]
    D += _identity_rows(ops, n)
    k = _snf_rows(ops, D, m, n)
    return SmithForm(
        _rows_mat(ring, [row[n:] for row in D[:m]], m),
        _rows_mat(ring, [row[:n] for row in D[:m]], n),
        _rows_mat(ring, D[m:], n),
        tuple(D[i][i] for i in range(k)),
    )


def hnf(A):
    """Column Hermite form: returns (H, U) with H = A*U, U unimodular.

    U rides along as identity rows below A.  Each row's entries left of
    its pivot are reduced by the pivot as soon as the row is final; only
    hnf does this.
    """
    ring, m = A.ring, A.rows
    ops = _euclidean_ops(A, "hnf")
    z, quo, sub_col = ops.zero, ops.quo, ops.sub_col
    H = A.to_rows() + _identity_rows(ops, A.cols)
    for r, c in _echelon(ops, H, m, A.cols, _discard):
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
    return _rows_mat(ring, H[:m], A.cols), _rows_mat(ring, H[m:], A.cols)


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
    of the Smith V, past the rank.  Only V rides along, as identity rows
    below A; no U is built."""
    ring = A.ring
    if ring.cover is not ring:
        K = kernel_matrix(lift(A))
        return _as_ring(K.select_rows(range(A.cols)), ring).nonzero_columns()
    ops = _euclidean_ops(A, "snf")
    D = A.to_rows() + _identity_rows(ops, A.cols)
    k = _snf_rows(ops, D, A.rows, A.cols)
    return Mat(ring, A.cols, A.cols - k, tuple(e for row in D[A.rows :] for e in row[k:]))


def is_unimodular(A):
    """True iff A is square with unit determinant: its Smith diagonal
    holds units only."""
    if A.rows != A.cols:
        return False
    ops = _euclidean_ops(A, "snf")
    D = A.to_rows()
    _snf_rows(ops, D, A.rows, A.cols)
    return all(A.ring.is_unit(D[i][i]) for i in range(A.rows))
