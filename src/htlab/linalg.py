"""Dense matrices over any of the ring-like carriers.

A ring handle only needs zero() and one(); entries follow the shared scalar
protocol.  The same class therefore serves K matrices, chart matrices,
matrices of pd elements, and matrices of t-series.

kernel_basis and k_rank do exact-at-precision Gaussian elimination over K
with minimal-valuation pivoting; they require entries that can be inverted
(point-mode scalars).
"""

from .errors import BadIndex, NotAUnit


class Mat:
    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        m = len(self.rows[0]) if self.rows else 0
        if any(len(r) != m for r in self.rows):
            raise BadIndex("ragged matrix")

    @classmethod
    def zero(cls, ring, n, m=None):
        m = n if m is None else m
        return cls(ring, [[ring.zero() for _ in range(m)] for _ in range(n)])

    @classmethod
    def identity(cls, ring, n):
        out = cls.zero(ring, n)
        for i in range(n):
            out.rows[i][i] = ring.one()
        return out

    @classmethod
    def scalar(cls, ring, n, s):
        out = cls.zero(ring, n)
        for i in range(n):
            out.rows[i][i] = s
        return out

    @classmethod
    def from_ints(cls, ring, rows):
        return cls(ring, [[ring.from_int(a) for a in r] for r in rows])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i, j):
        return self.rows[i][j]

    def __add__(self, other):
        return Mat(self.ring, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Mat(self.ring, [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Mat(self.ring, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise BadIndex("inner dimensions differ")
        # only full-precision zeros may be skipped: a zero stored at reduced
        # precision must lower the claim of the sum.  The rule is decided once
        # per entry, and each entry of the product sums its kept terms in
        # increasing k, as the dense loop would.  Entries are immutable, so
        # one zero serves for every empty sum.
        ncols = other.ncols
        live = [[(j, b) for j, b in enumerate(r) if not b.droppable()] for r in other.rows]
        zero = self.ring.zero()
        out = []
        for r in self.rows:
            acc = [None] * ncols
            for a, bs in zip(r, live):
                if not bs or a.droppable():
                    continue
                for j, b in bs:
                    prev = acc[j]
                    acc[j] = a * b if prev is None else prev + a * b
            out.append([zero if x is None else x for x in acc])
        return Mat(self.ring, out)

    def smul(self, n):
        return Mat(self.ring, [[a.smul(n) for a in r] for r in self.rows])

    def mul_scalar(self, s):
        return Mat(self.ring, [[a * s for a in r] for r in self.rows])

    def add_scalar_diag(self, s):
        """self + s * identity."""
        if self.nrows != self.ncols:
            raise BadIndex("square matrices only")
        out = [list(r) for r in self.rows]
        for i in range(self.nrows):
            out[i][i] = out[i][i] + s
        return Mat(self.ring, out)

    def map(self, fn, ring=None):
        return Mat(ring if ring is not None else self.ring, [[fn(a) for a in r] for r in self.rows])

    def transpose(self):
        return Mat(self.ring, [list(c) for c in zip(*self.rows)])

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def storage_zero(self):
        return all(a.storage_zero() for r in self.rows for a in r)

    def eq(self, other):
        return (self - other).is_zero()

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.eq(other)

    def __hash__(self):
        raise TypeError("Mat compares at precision; not hashable")

    def integral(self):
        return all(a.integral() for r in self.rows for a in r)

    @property
    def truncated(self):
        return any(a.truncated for r in self.rows for a in r)

    def col(self, j):
        return [r[j] for r in self.rows]

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} over {self.ring!r})"


def commutator(a, b):
    return a * b - b * a


def _min_val_pivot(rows, cols_used, rows_used):
    """Position of an entry with minimal pi-valuation among unused rows/cols."""
    best = None
    pos = None
    for i, row in enumerate(rows):
        if i in rows_used:
            continue
        for j, a in enumerate(row):
            if j in cols_used:
                continue
            v = a.min_val()
            if v is None:
                continue
            if best is None or v < best:
                best, pos = v, (i, j)
    return pos


def k_rank(mat):
    """Rank over K of a matrix with invertible-scalar entries."""
    rows = [list(r) for r in mat.rows]
    rows_used, cols_used = set(), set()
    rank = 0
    while True:
        pos = _min_val_pivot(rows, cols_used, rows_used)
        if pos is None:
            return rank
        pi, pj = pos
        rank += 1
        rows_used.add(pi)
        cols_used.add(pj)
        try:
            inv = rows[pi][pj].inv()
        except NotAUnit:
            return rank  # entry vanished at precision; nothing sharper exists
        for i, row in enumerate(rows):
            if i in rows_used:
                continue
            f = row[pj] * inv
            if f.storage_zero():
                continue
            rows[i] = [a - f * b for a, b in zip(row, rows[pi])]


def kernel_basis(mat):
    """Columns spanning ker over K, via column reduction.

    Returns a list of column vectors (lists of scalars).  Entries must be
    point-mode scalars so pivots can be inverted exactly.
    """
    n, m = mat.nrows, mat.ncols
    work = [list(r) for r in mat.rows]
    # record of the column operations applied to the identity
    ops = [[mat.ring.one() if i == j else mat.ring.zero() for j in range(m)] for i in range(m)]
    pivot_cols = set()
    used_rows = set()
    while True:
        best, pos = None, None
        for i in range(n):
            if i in used_rows:
                continue
            for j in range(m):
                if j in pivot_cols:
                    continue
                v = work[i][j].min_val()
                if v is None:
                    continue
                if best is None or v < best:
                    best, pos = v, (i, j)
        if pos is None:
            break
        pi, pj = pos
        used_rows.add(pi)
        pivot_cols.add(pj)
        inv = work[pi][pj].inv()
        for j in range(m):
            if j == pj or j in pivot_cols:
                continue
            f = work[pi][j] * inv
            if f.storage_zero():
                continue
            for i in range(n):
                work[i][j] = work[i][j] - f * work[i][pj]
            for i in range(m):
                ops[i][j] = ops[i][j] - f * ops[i][pj]
    return [[ops[i][j] for i in range(m)] for j in range(m) if j not in pivot_cols]


def matvec(mat, vec):
    """mat * vec, with the droppable rule and the sum order of Mat.__mul__."""
    if len(vec) != mat.ncols:
        raise BadIndex("vector length differs from the column count")
    live = [(k, x) for k, x in enumerate(vec) if not x.droppable()]
    zero = mat.ring.zero()
    out = []
    for row in mat.rows:
        acc = None
        for k, x in live:
            a = row[k]
            if not a.droppable():
                acc = a * x if acc is None else acc + a * x
        out.append(zero if acc is None else acc)
    return out
