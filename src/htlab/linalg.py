"""Dense matrices over any of the ring-like carriers.

A ring handle only needs zero() and one(); entries follow the shared scalar
protocol.  The same class therefore serves K matrices, chart matrices and
matrices of pd elements.  A matrix of t-series is no Mat: it is its r^2
{t-degree: coefficient} cells in row-major order (htlab.galois).
Elimination lives in one place, cohomology.snf_dvr.
"""

from .base import AtPrecision, KElem
from .errors import BadIndex


class Mat(AtPrecision):
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
        # precision must lower the claim of the sum.  The rule is decided
        # once per factor entry, and each entry of the product is one sum of
        # its kept terms in increasing k.  Over K a droppable factor is
        # skipped only when its partner has shift 0: 0 * (1/p) is a zero to
        # N - 1 digits.  A droppable entry has shift 0, so when no kept
        # entry of either factor has a positive shift, every term with a
        # droppable factor is skipped; otherwise each entry reads every
        # pair.  Entries are immutable, so one zero serves for every empty
        # sum.
        zero = self.ring.zero()
        dot = self.ring.cfg.dot
        cols = [[(k, b) for k, b in enumerate(c) if not b.droppable()] for c in zip(*other.rows)]
        keeps = [[None if a.droppable() else a for a in r] for r in self.rows]
        if type(zero) is KElem and (
            any([b.shift for col in cols for _, b in col]) or any([a.shift for keep in keeps for a in keep if a is not None])
        ):
            return Mat(self.ring, [[_dot_kept(dot, r, c, zero) for c in zip(*other.rows)] for r in self.rows])
        out = []
        for keep in keeps:
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

    def integral(self):
        return all(a.integral() for r in self.rows for a in r)

    @property
    def truncated(self):
        return any(a.truncated for r in self.rows for a in r)

    def col(self, j):
        return [r[j] for r in self.rows]

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} over {self.ring!r})"


def _dot_kept(dot, r, c, zero):
    """The entry of row r times column c over K, where some factor has a
    positive shift: every pair but those with a droppable factor whose
    partner has shift 0, summed by one dot."""
    kept = [(a, b) for a, b in zip(r, c) if not (a.droppable() and not b.shift or b.droppable() and not a.shift)]
    return dot(*zip(*kept)) if kept else zero


def commutator(a, b):
    return a * b - b * a
