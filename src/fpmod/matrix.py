"""Immutable exact matrices over a RingDesc.

Entries are stored row-major in a tuple and kept canonical: from_rows
and map_entries put each entry through ring.canon, and every other
constructor takes entries that are canonical already.  All operations
return fresh matrices; nothing here mutates, so one matrix can be
shared by modules, morphisms and witnesses without copies.
"""

from dataclasses import dataclass, field

from .errors import DimensionMismatch, RingMismatch


@dataclass(frozen=True)
class Mat:
    ring: object
    rows: int
    cols: int
    entries: tuple = field(default=())

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def from_rows(ring, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        ents = []
        for row in rows_list:
            if len(row) != cols:
                raise DimensionMismatch("ragged rows")
            ents.extend(ring.canon(e) for e in row)
        return Mat(ring, rows, cols, tuple(ents))

    from_ints = from_rows  # from_rows under its older name

    @staticmethod
    def identity(ring, n):
        z, o = ring.zero(), ring.one()
        return Mat(ring, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(ring, rows, cols):
        z = ring.zero()
        return Mat(ring, rows, cols, (z,) * (rows * cols))

    # ---- access ----------------------------------------------------------

    def get(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def col_mat(self, j):
        return Mat(self.ring, self.rows, 1, tuple(self.col(j)))

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def is_zero(self):
        return all(self.ring.is_zero(e) for e in self.entries)

    # ---- arithmetic ------------------------------------------------------

    def _check_same_shape(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def add(self, other):
        self._check_same_shape(other)
        add = self.ring.add
        return Mat(
            self.ring,
            self.rows,
            self.cols,
            tuple(add(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def sub(self, other):
        self._check_same_shape(other)
        sub = self.ring.sub
        return Mat(
            self.ring,
            self.rows,
            self.cols,
            tuple(sub(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def neg(self):
        neg = self.ring.neg
        return Mat(self.ring, self.rows, self.cols, tuple(neg(a) for a in self.entries))

    def scale(self, c):
        mul = self.ring.mul
        return Mat(self.ring, self.rows, self.cols, tuple(mul(c, a) for a in self.entries))

    def mul(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # row i of the product accumulates x*(row k of B) for each
        # nonzero x = A[i, k], k ascending
        r = self.ring
        z, add, mul = r.zero(), r.add, r.mul
        a, n, m = self.entries, self.cols, other.cols
        brows = [other.entries[k * m : (k + 1) * m] for k in range(n)]
        out = []
        for i in range(self.rows):
            acc = [z] * m
            for x, brow in zip(a[i * n : (i + 1) * n], brows):
                if x != z:
                    acc = [add(s, mul(x, y)) for s, y in zip(acc, brow)]
            out += acc
        return Mat(self.ring, self.rows, m, tuple(out))

    def transpose(self):
        return Mat(
            self.ring,
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    # ---- block operations ------------------------------------------------

    def hstack(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        a, b, ac, bc = self.entries, other.entries, self.cols, other.cols
        out = []
        for i in range(self.rows):
            out += a[i * ac : (i + 1) * ac]
            out += b[i * bc : (i + 1) * bc]
        return Mat(self.ring, self.rows, ac + bc, tuple(out))

    def vstack(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return Mat(self.ring, self.rows + other.rows, self.cols, self.entries + other.entries)

    @staticmethod
    def block_diag(a, b):
        top = a.hstack(Mat.zeros(a.ring, a.rows, b.cols))
        bot = Mat.zeros(a.ring, b.rows, a.cols).hstack(b)
        return top.vstack(bot)

    def kron(self, other):
        """Kronecker product (row-major block layout); a zero entry of
        self gives a zero block."""
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        z, mul = self.ring.zero(), self.ring.mul
        brows = other.to_rows()
        zrow = [z] * other.cols
        out = []
        for i in range(self.rows):
            arow = self.row(i)
            for brow in brows:
                for a in arow:
                    out += [mul(a, b) for b in brow] if a != z else zrow
        return Mat(self.ring, self.rows * other.rows, self.cols * other.cols, tuple(out))

    def select_columns(self, idxs):
        ents = []
        for i in range(self.rows):
            row = self.row(i)
            ents.extend(row[j] for j in idxs)
        return Mat(self.ring, self.rows, len(idxs), tuple(ents))

    def nonzero_columns(self, rows=None):
        """The matrix of the columns that are not zero in their leading
        rows (all rows by default), in their order."""
        is_zero = self.ring.is_zero
        return self.select_columns(
            [j for j in range(self.cols) if not all(is_zero(e) for e in self.col(j)[:rows])]
        )

    def select_rows(self, idxs):
        ents = []
        for i in idxs:
            ents.extend(self.row(i))
        return Mat(self.ring, len(idxs), self.cols, tuple(ents))

    def map_entries(self, fn, new_ring=None):
        ring = new_ring if new_ring is not None else self.ring
        return Mat(ring, self.rows, self.cols, tuple(ring.canon(fn(e)) for e in self.entries))

    def vec(self):
        """Column-major vectorization as a (rows*cols) x 1 matrix."""
        ents = [self.get(i, j) for j in range(self.cols) for i in range(self.rows)]
        return Mat(self.ring, self.rows * self.cols, 1, tuple(ents))

    @staticmethod
    def unvec(ring, v, rows, cols):
        """Inverse of vec: rebuild a rows x cols matrix from a column."""
        ents = [ring.zero()] * (rows * cols)
        for j in range(cols):
            for i in range(rows):
                ents[i * cols + j] = v.entries[j * rows + i]
        return Mat(ring, rows, cols, tuple(ents))

    def __str__(self):
        return "[" + "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows)) + "]"
