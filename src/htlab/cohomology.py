"""Cohomology of enhanced Higgs modules via Smith reduction over O_K.

For the relative flavor the complex is the Koszul complex on the commuting
operators theta_1..theta_d, concentrated in degrees 0..d.  The arithmetic
flavors fold in phi: writing L^n for the Koszul term on subsets of size n,
the total complex has terms T^n = L^n + L^{n-1} in degrees 0..d+1 and
differential

    D(x, z) = (dK x, (phi + n beta) x - dK z),   x in L^n, z in L^{n-1},

with beta the braiding unit of the module's normalization.  D D = 0 reduces
to the braiding relation, so verify_complex doubles as an independent check
on the algebra feeding it.

snf_dvr puts an integral matrix in diagonal form with pivots pi^v, ascending.
It updates only the working matrix and records its row and column steps; V
is replayed from that record when first read, and the test oracles replay U
and the inverses from it.  A zero that is only zero at its stored precision
makes the answer provisional: the result carries a precision_limited flag,
and strict mode raises instead.

Cohomology reads no transform.  Over the DVR O_K, C^n / ker d_n embeds in
the free C^{n+1}, so ker d_n is saturated in C^n and
0 -> H^n -> coker d_{n-1} -> C^n / ker d_n -> 0 splits.  So H^n is reported
as a module shape: free rank l_n - rk d_n - rk d_{n-1}, plus the pi-power
torsion of coker d_{n-1}, the positive pivot exponents of d_{n-1};
cohomology_all reduces each differential once.
"""

from itertools import combinations
from math import comb as _math_comb

from .errors import InsufficientPrecision, ValidationFailure
from .linalg import Mat


def comb(n, k):
    return _math_comb(n, k) if 0 <= k <= n else 0


class ComplexRep:
    """A bounded complex of free modules: ranks per degree and differentials."""

    __slots__ = ("base", "ranks", "diffs")

    def __init__(self, base, ranks, diffs):
        if len(diffs) != len(ranks) - 1:
            raise ValidationFailure("need one differential per adjacent pair")
        for i, m in enumerate(diffs):
            if m.nrows != ranks[i + 1] or m.ncols != ranks[i]:
                raise ValidationFailure(f"differential {i} has the wrong shape")
        self.base = base
        self.ranks = list(ranks)
        self.diffs = list(diffs)

    @property
    def top(self):
        return len(self.ranks) - 1

    def __repr__(self):
        return f"ComplexRep(ranks={self.ranks})"


def _koszul_blocks(h, n):
    """Blocks of L^n -> L^{n+1}; position maps subset pairs, sign by count below."""
    d = h.d
    subs_n = list(combinations(range(d), n))
    subs_n1 = list(combinations(range(d), n + 1))
    col_of = {S: j for j, S in enumerate(subs_n)}
    row_of = {T: i for i, T in enumerate(subs_n1)}
    blocks = {}
    for S in subs_n:
        for i in range(d):
            if i in S:
                continue
            T = tuple(sorted(S + (i,)))
            blk = h.theta[i]
            if sum(1 for j in S if j < i) % 2:
                blk = -blk
            blocks[(row_of[T], col_of[S])] = blk
    return len(subs_n1), len(subs_n), blocks


def _block_mat(base, grid, l):
    rows = []
    for brow in grid:
        for i in range(l):
            row = []
            for blk in brow:
                row.extend(blk.rows[i])
            rows.append(row)
    return Mat(base, rows)


def build_higgs_complex(h):
    """The cohomology complex of a module, shaped by its flavor.

    Relative: the Koszul complex, degrees 0..d.  Arithmetic flavors: the
    weighted total complex above, degrees 0..d+1.
    """
    l, d, base = h.rank, h.d, h.base
    if h.flavor == "rel-geom":
        ranks = [comb(d, n) * l for n in range(d + 1)]
        diffs = []
        for n in range(d):
            nr, nc, blocks = _koszul_blocks(h, n)
            zero = Mat.zero(base, l)
            grid = [[blocks.get((i, j), zero) for j in range(nc)] for i in range(nr)]
            diffs.append(_block_mat(base, grid, l))
        return ComplexRep(base, ranks, diffs)
    beta = base.from_k(h.braid_unit())
    ranks = [(comb(d, n) + comb(d, n - 1)) * l for n in range(d + 2)]
    diffs = []
    zero = Mat.zero(base, l)
    for n in range(d + 1):
        rows_top, cols_left, kosz = _koszul_blocks(h, n)
        rows_bot = cols_left
        cols_right = comb(d, n - 1)
        grid = [[zero] * (cols_left + cols_right) for _ in range(rows_top + rows_bot)]
        for (i, j), blk in kosz.items():
            grid[i][j] = blk
        phi_n = h.phi.add_scalar_diag(beta.smul(n)) if n else h.phi
        for k in range(cols_left):
            grid[rows_top + k][k] = phi_n
        if cols_right:
            _, _, kosz_prev = _koszul_blocks(h, n - 1)
            for (i, j), blk in kosz_prev.items():
                grid[rows_top + i][cols_left + j] = -blk
        diffs.append(_block_mat(base, grid, l))
    return ComplexRep(base, ranks, diffs)


def verify_complex(rep):
    """Check that consecutive differentials compose to zero."""
    failures = []
    for i in range(len(rep.diffs) - 1):
        if not (rep.diffs[i + 1] * rep.diffs[i]).is_zero():
            failures.append(i)
    return {"ok": not failures, "top": rep.top, "failures": failures}


# ---------------------------------------------------------------------------
# Smith reduction over the valuation ring
# ---------------------------------------------------------------------------


# A reduction records each step as (op, i, t, f): _SWAP exchanges rows (or
# columns) i and t, _RESCALE multiplies row t by u^-1 with f = (u, u^-1), and
# _ELIM subtracts f times row (or column) t from row (or column) i.  Row steps
# act on U and Uinv, column steps on V and Vinv, each list in the order taken.
_SWAP, _RESCALE, _ELIM = 0, 1, 2


def _replay_v(ring, n, steps):
    # V accumulates the column operations: swap, M[:, j] -= f M[:, t]
    out = Mat.identity(ring, n)
    V = out.rows
    for op, j, t, f in steps:
        if op == _SWAP:
            for row in V:
                row[j], row[t] = row[t], row[j]
        else:
            for row in V:
                row[j] = row[j] - f * row[t]
    return out


class SnfResult:
    """The exponents of a Smith reduction and the record of its steps; V is
    replayed from the column steps when first read (by the fixed vectors of
    htlab.sen), and the test oracles replay U, Uinv and Vinv from the record."""

    __slots__ = ("vals", "nrows", "ncols", "precision_limited", "_ring", "_row_steps", "_col_steps", "_V")

    def __init__(self, ring, vals, nrows, ncols, precision_limited, row_steps, col_steps):
        self._ring = ring
        self.vals = vals
        self.nrows = nrows
        self.ncols = ncols
        self.precision_limited = precision_limited
        self._row_steps = row_steps
        self._col_steps = col_steps
        self._V = None

    @property
    def V(self):
        if self._V is None:
            self._V = _replay_v(self._ring, self.ncols, self._col_steps)
        return self._V

    def __repr__(self):
        flag = ", precision_limited" if self.precision_limited else ""
        return f"SnfResult(vals={self.vals}{flag})"


def snf_dvr(mat, strict=False):
    """Diagonalize an integral matrix: U * mat * V = diag(pi^v), v ascending.

    Global minimal-valuation pivoting; the pivot row is rescaled so the pivot
    becomes exactly a power of pi.  Only the working matrix is updated: each
    row and column step is recorded, V is replayed from the record when first
    read, and the test oracles replay U, Uinv and Vinv (all invertible over
    O_K) from it.  Entries must be point-mode scalars.
    """
    ring = mat.ring
    cfg = ring.cfg
    if not ring.is_point:
        raise ValidationFailure("Smith reduction needs a point base, not a chart")
    if not mat.integral():
        raise ValidationFailure("Smith reduction expects an integral matrix")
    a, b = mat.nrows, mat.ncols
    M = [list(r) for r in mat.rows]
    row_steps, col_steps = [], []
    vals = []
    t = 0
    drained = False
    while t < min(a, b):
        best, pos = None, None
        for i in range(t, a):
            for j in range(t, b):
                x = M[i][j]
                if x.abs_prec <= 0:
                    # no certified digits left; unusable as a pivot
                    drained = True
                    continue
                if x.is_zero():
                    continue
                v = x.val_pi()
                if best is None or v < best:
                    best, pos = v, (i, j)
        if pos is None:
            break
        pi_, pj = pos
        if pi_ != t:
            M[pi_], M[t] = M[t], M[pi_]
            row_steps.append((_SWAP, pi_, t, None))
        if pj != t:
            for row in M:
                row[pj], row[t] = row[t], row[pj]
            col_steps.append((_SWAP, pj, t, None))
        # rescale the pivot row so the pivot is pi^v on the nose; the unit
        # part comes from an exact divide so ramified bases lose no digits
        u = M[t][t].div_pi_exact(best)
        if u.val_pi() != 0:
            # the pivot digit fell below certified precision during the divide
            if strict:
                raise InsufficientPrecision("pivot unit part has no certified digits")
            drained = True
            break
        uinv = u.inv()
        M[t] = [uinv * x for x in M[t]]
        row_steps.append((_RESCALE, t, t, (u, uinv)))
        # the rescaled pivot is pi^best by construction; keep the exact
        # representative so later quotients divide by it exactly
        M[t][t] = _pi_power(ring, best)
        for i in range(t + 1, a):
            x = M[i][t]
            if x.storage_zero():
                continue
            f = x.div_pi_exact(best)
            M[i] = [y - f * z for y, z in zip(M[i], M[t])]
            row_steps.append((_ELIM, i, t, f))
        for j in range(t + 1, b):
            x = M[t][j]
            if x.storage_zero():
                continue
            f = x.div_pi_exact(best)
            for row in M:
                row[j] = row[j] - f * row[t]
            col_steps.append((_ELIM, j, t, f))
        vals.append(best)
        t += 1
    limited = drained
    for i in range(t, a):
        for j in range(t, b):
            if M[i][j].abs_prec < cfg.N:
                limited = True
    if limited and strict:
        raise InsufficientPrecision("a residual zero is certified below working precision")
    return SnfResult(ring, vals, a, b, limited, row_steps, col_steps)


# ---------------------------------------------------------------------------
# module-shaped cohomology
# ---------------------------------------------------------------------------


def _pi_power(ring, v):
    x = ring.one()
    pi = ring.from_k(ring.cfg.pi)
    for _ in range(v):
        x = x * pi
    return x


def cohomology(rep, degree, strict=False):
    """H^degree as {free_rank, torsion exponents, precision_limited}.

    rep must be a complex (verify_complex checks it); the module docstring
    gives the shape.  Degrees outside the complex give the zero module.
    """
    return _cohomology(rep, degree, strict, None)[0]


def cohomology_all(rep, strict=False):
    """H^n for every degree of the complex; each differential is reduced once,
    and degree n hands its exponents and flag on to degree n + 1."""
    groups, out = [], None
    for n in range(rep.top + 1):
        group, out = _cohomology(rep, n, strict, out)
        groups.append(group)
    return groups


def _reduce(rep, n, strict):
    """(exponents, flag) of the reduction of differential n; none past the top."""
    if n == rep.top:
        return [], False
    s = snf_dvr(rep.diffs[n], strict=strict)
    return s.vals, s.precision_limited


def _cohomology(rep, degree, strict, inc):
    """(H^degree, (exponents, flag) of d_degree); inc is the pair of d_{degree-1} or None."""
    if degree < 0 or degree > rep.top:
        return {"degree": degree, "free_rank": 0, "torsion": [], "precision_limited": False}, None
    out = _reduce(rep, degree, strict)
    free, torsion, limited = rep.ranks[degree] - len(out[0]), [], out[1]
    if degree > 0 and free > 0:
        vals, inc_limited = inc or _reduce(rep, degree - 1, strict)
        limited = limited or inc_limited
        free -= len(vals)
        torsion = [v for v in vals if v > 0]
        if free < 0:
            # a complex has rk d_{n-1} <= l_n - rk d_n; at a limited reduction
            # a rank can be off, elsewhere the input is not a complex
            if not limited:
                raise ValidationFailure(f"image rank exceeds kernel rank in degree {degree}")
            free = 0
    return {"degree": degree, "free_rank": free, "torsion": torsion, "precision_limited": limited}, out


def kernel_cokernel_mod(mat, prec, strict=False):
    """|ker| and |coker| of the induced map on (O_K / p^prec)-modules.

    Read off the Smith form: an invariant factor pi^v contributes
    q^min(v, e*prec) to both sides, a missing pivot contributes a full
    q^(e*prec) to the side it leaves free (q the residue field size).
    """
    cfg = mat.ring.cfg
    s = snf_dvr(mat, strict=strict)
    m = prec * cfg.e
    q = cfg.p**cfg.f
    shared = sum(min(v, m) for v in s.vals)
    r = len(s.vals)
    return {
        "kernel": q ** (shared + m * (mat.ncols - r)),
        "cokernel": q ** (shared + m * (mat.nrows - r)),
        "precision_limited": s.precision_limited,
    }
