"""Dense matrices over any of the ring-like carriers.

A ring handle only needs zero() and one(); entries follow the shared scalar
protocol.  The same class therefore serves K matrices, chart matrices and
matrices of pd elements.  A matrix of t-series is no Mat: it is its r^2
{t-degree: coefficient} cells in row-major order (htlab.galois).
Elimination lives in one place, cohomology.snf_dvr.
"""

from .errors import BadIndex


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
        # entries are immutable, so one zero serves every entry
        m = n if m is None else m
        zero = ring.zero()
        return cls(ring, [[zero] * m for _ in range(n)])

    @classmethod
    def identity(cls, ring, n):
        one, zero = ring.one(), ring.zero()
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

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
        # per entry, and each entry of the product is one sum of its kept
        # terms in increasing k.  Entries are immutable, so one zero serves
        # for every empty sum.
        cols = [[(k, b) for k, b in enumerate(c) if not b.droppable()] for c in zip(*other.rows)]
        zero = self.ring.zero()
        dot = self.ring.cfg.dot
        out = []
        for r in self.rows:
            keep = [None if a.droppable() else a for a in r]
            row = []
            for col in cols:
                xs = []
                ys = []
                for k, b in col:
                    a = keep[k]
                    if a is not None:
                        xs.append(a)
                        ys.append(b)
                row.append(dot(xs, ys) if xs else zero)
            out.append(row)
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

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def storage_zero(self):
        for r in self.rows:
            for a in r:
                if not a.storage_zero():
                    return False
        return True

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
