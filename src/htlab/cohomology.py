"""Cohomology of enhanced Higgs modules via Smith reduction over O_K.

For the relative flavor the complex is the Koszul complex on the commuting
operators theta_1..theta_d, concentrated in degrees 0..d.  The arithmetic
flavors fold in phi: writing L^n for the Koszul term on subsets of size n,
the total complex is the cone of phi + n beta on the Koszul complex, with
terms T^n = L^n + L^{n-1} in degrees 0..d+1 and differential

    D(x, z) = (dK x, (phi + n beta) x - dK z),   x in L^n, z in L^{n-1},

with beta the braiding unit of the module's normalization.  D D = 0 reduces
to the braiding relation, so verify_complex doubles as an independent check
on the algebra feeding it.  build_higgs_complex builds both flavors in one
loop over degrees: the relative complex is the Koszul part of the cone,
with no phi block and no z-column.

snf_dvr puts an integral matrix in diagonal form with pivots pi^v, ascending.
U is never formed, and V is built in place, alongside the working matrix,
only when the caller asks for it (the fixed vectors of htlab.sen do).  A
zero that is only zero at its stored precision makes the answer
provisional: the result carries a precision_limited flag, and strict mode
raises instead.

The reduction does no arithmetic whose result it can prove is the stored
form already there.  Trailing block: step t never reads rows or columns
below t again, nor row t after its row eliminations, so row steps and
column swaps touch columns >= t and column eliminations rows > t.  Zero
rule: an update y - f z where z stores a zero numerator and the product's
absolute precision min(prec_f, prec_z) - s_f - s_z is at least y's keeps y,
because f z is then a zero of at least y's precision, the sum aligns y at
the larger shift S exactly (numerator p^(S - s_y) u_y), and normalization
cancels just those factors of p again, y being normalized; the pivot-row
rescale by a unit at shift 0 keeps a zero of no more digits than the unit.

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


def _koszul_blocks(d, n):
    """Blocks of L^n -> L^{n+1}: the position of subsets (T, S) with
    T = S + {i} maps to (i, odd), the block theta_i, negated when odd, that
    is when an odd number of members of S lie below i."""
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
            blocks[(row_of[T], col_of[S])] = (i, sum(1 for j in S if j < i) % 2)
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

    Degree by degree, one loop builds the Koszul differential L^n -> L^{n+1}
    from its blocks, laid out once per degree.  The relative complex is that
    Koszul part alone, degrees 0..d.  The arithmetic flavors take its cone
    under phi + n beta, the weighted total complex above, degrees 0..d+1:
    the rows of L^n below with the phi_n diagonal, and the columns of
    L^{n-1} on the right with the previous degree's blocks, negated.  Each
    -theta_i is formed at most once: the z-block -(+-theta_i) is the other
    member of the pair, as -(-theta) stores as theta.
    """
    l, d, base = h.rank, h.d, h.base
    signed = [[th, None] for th in h.theta]

    def block(i, odd):
        pair = signed[i]
        if pair[odd] is None:
            pair[odd] = -pair[0]
        return pair[odd]

    zero = Mat.zero(base, l)
    cone = h.flavor != "rel-geom"
    ranks = [comb(d, n) * l for n in range(d + 1)]
    if cone:
        beta = base.from_k(h.braid_unit())
        ranks = [a + b for a, b in zip(ranks + [0], [0] + ranks)]
    diffs = []
    kosz_prev = {}
    for n in range(len(ranks) - 1):
        rows_top, cols_left, kosz = _koszul_blocks(d, n)
        rows, cols = rows_top, cols_left
        if cone:
            rows, cols = rows + cols_left, cols + comb(d, n - 1)
        grid = [[zero] * cols for _ in range(rows)]
        for (i, j), (k, odd) in kosz.items():
            grid[i][j] = block(k, odd)
        if cone:
            phi_n = h.phi.add_scalar_diag(beta.smul(n)) if n else h.phi
            for k in range(cols_left):
                grid[rows_top + k][k] = phi_n
            for (i, j), (k, odd) in kosz_prev.items():
                grid[rows_top + i][cols_left + j] = block(k, 1 - odd)
            kosz_prev = kosz
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


class SnfResult:
    """The exponents of a Smith reduction, its precision flag, and V when it
    was asked for (by the fixed vectors of htlab.sen), else None."""

    __slots__ = ("vals", "precision_limited", "V")

    def __init__(self, vals, precision_limited, V):
        self.vals = vals
        self.precision_limited = precision_limited
        self.V = V

    def __repr__(self):
        flag = ", precision_limited" if self.precision_limited else ""
        return f"SnfResult(vals={self.vals}{flag})"


def snf_dvr(mat, strict=False, with_v=False):
    """Diagonalize an integral matrix: U * mat * V = diag(pi^v), v ascending.

    Global minimal-valuation pivoting; the pivot row is rescaled so the pivot
    becomes exactly BaseConfig.pi_pow's power of pi.  U is never formed.
    With with_v, V (over O_K, invertible) is built alongside in the column
    swaps and eliminations, over all of its rows and with no skipped
    arithmetic; otherwise only the working matrix is updated.  Entries must
    be point-mode scalars.

    The first pivot scan is also the integrality check: before any step it
    raises if its least valuation is negative, or if an entry with no
    certified digit (prec <= shift) has a nonzero numerator, whose valuation
    is below e prec <= e shift.

    Trailing block.  Step t reads nothing of rows or columns below t again,
    and nothing of row t after its row eliminations.  So in the working
    matrix the rescale, the row eliminations and the column swaps touch
    columns >= t only, and the column eliminations rows > t only.

    The zero rule.  An update y - f z in which z stores a zero numerator,
    and in which A' = min(prec_f, prec_z) - s_f - s_z >= A_y = prec_y - s_y,
    keeps y as it is.  Proof: f z is a zero of absolute precision A'.  The
    difference aligns both at the larger shift S, so its prec is
    A_y + S >= prec_y >= 1 and its numerator is exactly p^(S - s_y) u_y;
    _norm cancels those S - s_y factors of p and stops there, since y is
    stored normalized (p divides u_y only where s_y = 0 or prec_y = 1).  So
    the difference stores as (u_y, s_y, prec_y), and a y with no digit
    stays the one no-digit form.  The rescale u^-1 x keeps a zero x by the
    same argument: u^-1 is a unit at shift 0, so when prec_{u^-1} >= prec_x
    the product is a zero at (s_x, prec_x), stored as x is.
    """
    ring = mat.ring
    cfg = ring.cfg
    if not ring.is_point:
        raise ValidationFailure("Smith reduction needs a point base, not a chart")
    zero_u = cfg.zero_u
    a, b = mat.nrows, mat.ncols
    M = [list(r) for r in mat.rows]
    V = Mat.identity(ring, b) if with_v else None
    vals = []
    t = 0
    drained = False
    while t < min(a, b):
        best, pos = None, None
        for i in range(t, a):
            row = M[i]
            for j in range(t, b):
                x = row[j]
                if x.prec <= x.shift:
                    # no certified digits left; unusable as a pivot
                    if not t and x.u != zero_u:
                        raise ValidationFailure("Smith reduction expects an integral matrix")
                    drained = True
                    continue
                if x.u == zero_u:
                    continue
                v = x.val_pi()
                if best is None or v < best:
                    best, pos = v, (i, j)
        if pos is None:
            break
        if not t and best < 0:
            raise ValidationFailure("Smith reduction expects an integral matrix")
        pi_, pj = pos
        if pi_ != t:
            M[pi_], M[t] = M[t], M[pi_]
        if pj != t:
            for i in range(t, a):
                row = M[i]
                row[pj], row[t] = row[t], row[pj]
            if with_v:
                for row in V.rows:
                    row[pj], row[t] = row[t], row[pj]
        piv = M[t]
        # rescale the pivot row so the pivot is pi^v on the nose; the unit
        # part comes from an exact divide so ramified bases lose no digits
        u = piv[t].div_pi_exact(best)
        if u.val_pi() != 0:
            # the pivot digit fell below certified precision during the divide
            if strict:
                raise InsufficientPrecision("pivot unit part has no certified digits")
            drained = True
            break
        uinv = u.inv()
        pu = uinv.prec
        for j in range(t + 1, b):
            x = piv[j]
            if x.u != zero_u or x.prec > pu:
                piv[j] = uinv * x
        # the rescaled pivot is pi^best by construction; keep the exact
        # representative so later quotients divide by it exactly
        piv[t] = cfg.pi_pow(best)
        for i in range(t + 1, a):
            row = M[i]
            x = row[t]
            if x.u == zero_u:
                continue
            f = x.div_pi_exact(best)
            pf, sf = f.prec, f.shift
            for j in range(t, b):
                z = piv[j]
                y = row[j]
                if z.u == zero_u and (pf if pf < z.prec else z.prec) - sf - z.shift >= y.prec - y.shift:
                    continue
                row[j] = y - f * z
        below = M[t + 1 :]
        for j in range(t + 1, b):
            x = piv[j]
            if x.u == zero_u:
                continue
            f = x.div_pi_exact(best)
            pf, sf = f.prec, f.shift
            for row in below:
                z = row[t]
                y = row[j]
                if z.u == zero_u and (pf if pf < z.prec else z.prec) - sf - z.shift >= y.prec - y.shift:
                    continue
                row[j] = y - f * z
            if with_v:
                for row in V.rows:
                    row[j] = row[j] - f * row[t]
        vals.append(best)
        t += 1
    limited = drained
    N = cfg.N
    for i in range(t, a):
        for x in M[i][t:]:
            if x.prec - x.shift < N:
                limited = True
    if limited and strict:
        raise InsufficientPrecision("a residual zero is certified below working precision")
    return SnfResult(vals, limited, V)


# ---------------------------------------------------------------------------
# module-shaped cohomology
# ---------------------------------------------------------------------------


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


def kernel_cokernel_mod(mat, prec):
    """|ker| and |coker| of the induced map on (O_K / p^prec)-modules.

    Read off the Smith form: an invariant factor pi^v contributes
    q^min(v, e*prec) to both sides, a missing pivot contributes a full
    q^(e*prec) to the side it leaves free (q the residue field size).
    """
    cfg = mat.ring.cfg
    s = snf_dvr(mat)
    m = prec * cfg.e
    q = cfg.p**cfg.f
    shared = sum(min(v, m) for v in s.vals)
    r = len(s.vals)
    return {
        "kernel": q ** (shared + m * (mat.ncols - r)),
        "cokernel": q ** (shared + m * (mat.nrows - r)),
        "precision_limited": s.precision_limited,
    }
