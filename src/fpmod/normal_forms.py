"""Hermite/Smith normal forms and exact linear solving.

One elimination loop, the column Hermite elimination _echelon, serves
every Euclidean ring (integers, rationals, prime fields, Gaussian
integers).  It takes the Euclidean entries of the ring's one arithmetic
table, its rings.RingOps (rings.RingDesc.elim_ops), bound once per
call: norm, Euclidean quotient and remainder, associate unit, and
whole-row and whole-column updates.  Any other ring is cover/(ideal)
for its Euclidean cover (Z/n is Z/(n)); `lift` is the one place that
turns a matrix over it into one over the cover, with ideal*identity
columns appended.

A transform that a function returns rides along on the rows it
eliminates, and one that is applied to a right-hand side stays a log
(Cohen, GTM 138, 2.4).  Row operations act on whole rows and column
operations on every row, while the pivot search reads only the leading
rows x cols block, so identity columns appended to the right of A come
out as the row transform, and identity rows appended below A as the
column transform U with A*U = H.

_echelon yields each row as soon as it is final, since later steps
touch only lower rows and later columns.  Every entry point runs it:

- solve_linear forward-substitutes each row of H*Y = B as it arrives,
  returns None at the first inconsistent row, and forms X = U*[Y; 0]
  by replaying its log of column operations as row operations on
  [Y; 0].  solvable does the same walk for the verdict alone.
- kernel_matrix reads U's columns past the rank of H, and is_unimodular
  the pivots of a square H, whose product is det A up to a unit.
- hnf also reduces the entries left of each pivot as its row arrives
  (_hermite).  That only mixes pivot columns, so the solver's X and the
  kernel's span are the same without it.
- snf alternates Hermite forms of A and of its transpose until the
  matrix is diagonal, then sorts the diagonal into divisor order by 2x2
  Bezout steps, each an _echelon of one row (Kannan and Bachem, SIAM J.
  Comput. 8, 1979).  The invariant factors come from A's own rows; U
  and V ride along only in a second run, when first read.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionMismatch, UnsupportedRing
from .matrix import Mat


@dataclass(frozen=True)
class SmithForm:
    """U*A*V = D: D is diagonal, its nonzero entries the invariant
    factors, each dividing the next.  D, U and V are built when read."""

    A: Mat
    invariant_factors: tuple

    @property
    def rank(self):
        return len(self.invariant_factors)

    @cached_property
    def D(self):
        A = self.A
        entries = [A.ring.zero()] * (A.rows * A.cols)
        for i, d in enumerate(self.invariant_factors):
            entries[i * A.cols + i] = d
        return Mat(A.ring, A.rows, A.cols, tuple(entries))

    @cached_property
    def _transforms(self):
        # [A | I] over [I | 0]: U comes out to the right of D, and V below it
        A, m, n = self.A, self.A.rows, self.A.cols
        ops = A.ring.elim_ops()
        M = [row + e for row, e in zip(A.to_rows(), _identity_rows(ops, m))]
        M += [e + [ops.zero] * m for e in _identity_rows(ops, n)]
        M, _ = _smith(ops, M, m, n)
        U = _rows_mat(A.ring, [row[n:] for row in M[:m]], m)
        return U, _rows_mat(A.ring, [row[:n] for row in M[m:]], n)

    U = property(lambda self: self._transforms[0])
    V = property(lambda self: self._transforms[1])


# ---------------------------------------------------------------------------
# elimination over a Euclidean ring, on lists of rows


def _identity_rows(ops, n):
    z, o = ops.zero, ops.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def _swap_cols(M, j, k):
    for row in M:
        row[j], row[k] = row[k], row[j]


def _echelon(ops, H, rows, cols, step):
    """Column echelon form of the rows H, in place: yields (r, c) for
    each row r once it is final, with c its pivot column or None.

    Row r is worked on rows r.. and columns c.. only, so later steps
    leave it, and its pivot column, as they are: a caller may read row
    r and column c when (r, c) is yielded, and may stop after any row.
    The pivot is a normalized (unit-scaled) entry with zeros to its
    right, and the pivot columns are 0, 1, ... in order.  Entries left
    of a pivot are not reduced here: _hermite does that between yields.

    Column operations act on every row from r on, so identity rows
    appended below the first rows come out as the transform U with
    A*U = H.  Each one also goes to step, as (j, k, q) for "column
    j -= q*column k", (j, k, None) for swapping columns j and k, or
    (j, None, u) for scaling column j by the unit u: solve_linear logs
    them for _apply_transform, and _bezout replays them.
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
    elimination there.
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


def _hermite(ops, H, rows, cols):
    """_echelon with each row's entries left of its pivot reduced by the
    pivot as soon as the row is final: the column Hermite form, a row at
    a time.  Like _echelon's, its column operations act on rows r.."""
    z, quo, sub_col = ops.zero, ops.quo, ops.sub_col
    for r, c in _echelon(ops, H, rows, cols, _discard):
        if c is not None:
            Hl = H[r:]
            Hr = Hl[0]
            p = Hr[c]
            for j in range(c):
                if Hr[j] != z:
                    q = quo(Hr[j], p)
                    if q != z:
                        sub_col(Hl, j, c, q)
        yield r, c


def _smith(ops, M, rows, cols):
    """Smith form of the leading rows x cols block of the rows M: returns
    (M, k) with the block diagonal, its first k entries nonzero,
    normalized and each dividing the next, and the rest zero.

    Column Hermite forms of the block and of its transpose alternate
    until every nonzero of the block is a pivot.  A round either leaves
    the first pivot alone in its row and column, for good, or replaces
    it by a proper divisor, so the rounds end.  M is transposed whole,
    so the identity rows below the block (V) and columns to its right
    (U) trade places and keep riding along.  Then a row permutation
    puts the pivots on the diagonal, and _bezout sorts them.
    """
    z = ops.zero
    flipped = False
    while True:
        pivots = []
        diagonal = True
        for r, c in _hermite(ops, M, rows, cols):
            if c is not None:
                pivots.append(r)
            if diagonal:
                row = M[r]
                diagonal = all(row[j] == z for j in range(cols) if j != c)
        if diagonal:
            break
        M = [list(col) for col in zip(*M)]
        rows, cols = cols, rows
        flipped = not flipped
    # pivot t sits in column t: its row moves to row t
    M[:rows] = [M[r] for r in pivots] + [M[r] for r in range(rows) if r not in pivots]
    if flipped:
        M = [list(col) for col in zip(*M)]
    k = len(pivots)
    for i in range(k):
        for j in range(i + 1, k):
            if ops.rem(M[j][j], M[i][i]) != z:
                _bezout(ops, M, i, j)
    return M, k


def _bezout(ops, M, i, j):
    """Replace the diagonal entries a = M[i][i] and b = M[j][j] of the
    rows M by gcd(a, b) and lcm(a, b), both normalized.

    Adding row j to row i puts b beside a.  The column operations that
    _echelon takes the one row (a, b) to (g, 0) with are replayed on
    columns i and j of every row.  Row j then holds multiples of b, and
    so of g, in those columns, and one row step leaves the lcm alone in
    it, up to a unit.
    """
    z, sub_row = ops.zero, ops.sub_row
    at = (i, j)

    def replay(step):
        a, b, q = step
        if b is None:
            ops.scale_col(M, at[a], q)
        elif q is None:
            _swap_cols(M, at[a], at[b])
        else:
            ops.sub_col(M, at[a], at[b], q)

    M[i] = Mi = sub_row(M[i], M[j], ops.minus_one)
    for _ in _echelon(ops, [[Mi[i], Mi[j]]], 1, 2, replay):
        pass
    Mi, Mj = M[i], M[j]
    if Mj[i] != z:
        M[j] = Mj = sub_row(Mj, Mi, ops.quo(Mj[i], Mi[i]))
    u = ops.unit(Mj[j])
    if u != ops.one:
        M[j] = ops.scale_row(Mj, u)


# ---------------------------------------------------------------------------
# public entry points


def _rows_mat(ring, rows, cols):
    """The Mat of an elimination's rows, canonical already; rows or cols may be 0."""
    return Mat(ring, len(rows), cols, tuple(e for row in rows for e in row))


def _euclidean_ops(A, name):
    """The elimination ops of A's ring, which name needs Euclidean."""
    if not A.ring.is_euclidean:
        raise UnsupportedRing(f"{name} needs a Euclidean ring, got {A.ring}")
    return A.ring.elim_ops()


def snf(A):
    """Smith normal form of A: U*A*V = D over a Euclidean ring.  The
    invariant factors come from A's own rows; U and V when first read."""
    ops = _euclidean_ops(A, "snf")
    M, k = _smith(ops, A.to_rows(), A.rows, A.cols)
    return SmithForm(A, tuple(M[i][i] for i in range(k)))


def hnf(A):
    """Column Hermite form: returns (H, U) with H = A*U, U unimodular.
    U rides along as identity rows below A."""
    ring, m = A.ring, A.rows
    ops = _euclidean_ops(A, "hnf")
    H = A.to_rows() + _identity_rows(ops, A.cols)
    for _ in _hermite(ops, H, m, A.cols):
        pass
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
    """Columns generating {x : A*x = 0} over the ring: with A*U = H in
    column echelon form, the columns of U past the rank of H.  U rides
    along as identity rows below A."""
    ring = A.ring
    if ring.cover is not ring:
        K = kernel_matrix(lift(A))
        return _as_ring(K.select_rows(range(A.cols)), ring).nonzero_columns()
    ops = _euclidean_ops(A, "kernel_matrix")
    H = A.to_rows() + _identity_rows(ops, A.cols)
    k = sum(c is not None for _, c in _echelon(ops, H, A.rows, A.cols, _discard))
    return Mat(ring, A.cols, A.cols - k, tuple(e for row in H[A.rows :] for e in row[k:]))


def is_unimodular(A):
    """True iff A is square with unit determinant.  A square column
    echelon form is lower triangular with det A, up to a unit, on its
    diagonal: every row needs a unit pivot, and the elimination stops
    at the first row without one."""
    if A.rows != A.cols:
        return False
    ops = _euclidean_ops(A, "is_unimodular")
    H = A.to_rows()
    for r, c in _echelon(ops, H, A.rows, A.cols, _discard):
        if c is None or not A.ring.is_unit(H[r][c]):
            return False
    return True
