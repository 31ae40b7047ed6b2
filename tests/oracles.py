"""Brute-force reference computations used by the test suite.

Everything here is deliberately naive: direct iteration, exhaustive
enumeration, plain polynomial algebra.  The main code paths are checked
against these, never the other way round.
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from htlab.deltaring import _core, _div_p, _frob, _int_digits, _one, frobenius
from htlab.errors import AxiomViolation, PrecisionExhausted


def teich_fixpoint(p, a, prec, f=1):
    """Iterate a -> a^(p^f) over the integers until stable mod p^prec."""
    M = p**prec
    x = a % M
    for _ in range(prec + 2):
        y = pow(x, p**f, M)
        if y == x:
            return x
        x = y
    return x


# ---------------------------------------------------------------------------
# Tiny exact model of O_K/p^prec for f=1: elements are tuples of e ints
# mod p^prec, multiplication reduces via pi^e = -E_lower(pi).
# ---------------------------------------------------------------------------


class TinyOk:
    def __init__(self, p, E_coeffs, prec):
        self.p = p
        self.e = len(E_coeffs)
        self.E = E_coeffs
        self.M = p**prec

    def elements(self):
        return itertools.product(range(self.M), repeat=self.e)

    def add(self, x, y):
        return tuple((a + b) % self.M for a, b in zip(x, y))

    def smul(self, n, x):
        return tuple((n * a) % self.M for a in x)

    def mul(self, x, y):
        e, M = self.e, self.M
        tmp = [0] * (2 * e - 1)
        for i in range(e):
            for j in range(e):
                tmp[i + j] += x[i] * y[j]
        for m in range(2 * e - 2, e - 1, -1):
            c = tmp[m] % M
            tmp[m] = 0
            for j in range(e):
                tmp[m - e + j] -= c * self.E[j]
        return tuple(v % M for v in tmp[:e])

    def matvec(self, rows, v):
        out = []
        for row in rows:
            acc = (0,) * self.e
            for a, x in zip(row, v):
                acc = self.add(acc, self.mul(a, x))
            out.append(acc)
        return tuple(out)

    def zero_vec(self, n):
        return tuple((0,) * self.e for _ in range(n))


def kernel_cokernel_cardinalities(p, E_coeffs, prec, rows):
    """|ker| and |coker| of the square matrix over O_K/p^prec by enumeration."""
    ring = TinyOk(p, E_coeffs, prec)
    n = len(rows)
    ker = 0
    image = set()
    for v in itertools.product(ring.elements(), repeat=n):
        w = ring.matvec(rows, v)
        image.add(w)
        if w == ring.zero_vec(n):
            ker += 1
    total = (ring.M**ring.e) ** n
    return ker, total // len(image)


def image_size_mod(rows, p, E_coeffs, prec):
    """|im| of the matrix over O_K/p^prec (f = 1) by additive closure.

    rows holds TinyOk tuples.  Over Z/p^prec the image is generated by
    pi^i times each column, i < e; the span grows one generator at a time,
    adding it to the newest elements until nothing new appears."""
    ring = TinyOk(p, E_coeffs, prec)
    span = {ring.zero_vec(len(rows))}
    basis = [tuple(int(i == j) for j in range(ring.e)) for i in range(ring.e)]
    for col in zip(*rows):
        for pi_i in basis:
            g = tuple(ring.mul(pi_i, x) for x in col)
            fresh = span
            while fresh:
                fresh = {tuple(ring.add(a, b) for a, b in zip(v, g)) for v in fresh} - span
                span |= fresh
    return len(span)


# ---------------------------------------------------------------------------
# The Smith elimination as first written: every step updates whole rows and
# columns, every scalar operation is carried out, and each step is recorded.
# ---------------------------------------------------------------------------

# A step is (op, i, t, f): SWAP exchanges rows (or columns) i and t, RESCALE
# multiplies row t by u^-1 with f = (u, u^-1), and ELIM subtracts f times
# row (or column) t from row (or column) i.  Row steps act on U and Uinv,
# column steps on V and Vinv, each list in the order taken.
SWAP, RESCALE, ELIM = 0, 1, 2

NaiveSnf = namedtuple("NaiveSnf", "vals precision_limited row_steps col_steps")


def _pi_power(ring, v):
    """pi^v in ring, the chain one() * pi * .. * pi."""
    x = ring.one()
    pi = ring.from_k(ring.cfg.pi)
    for _ in range(v):
        x = x * pi
    return x


def snf_dvr_naive(mat, strict=False):
    """htlab.cohomology.snf_dvr with no skipped arithmetic: an integrality
    pass over the matrix, then global minimal-valuation pivoting in which
    each step updates the whole working matrix and is recorded."""
    from htlab.errors import InsufficientPrecision, ValidationFailure

    ring = mat.ring
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
            row_steps.append((SWAP, pi_, t, None))
        if pj != t:
            for row in M:
                row[pj], row[t] = row[t], row[pj]
            col_steps.append((SWAP, pj, t, None))
        u = M[t][t].div_pi_exact(best)
        if u.val_pi() != 0:
            if strict:
                raise InsufficientPrecision("pivot unit part has no certified digits")
            drained = True
            break
        uinv = u.inv()
        M[t] = [uinv * x for x in M[t]]
        row_steps.append((RESCALE, t, t, (u, uinv)))
        M[t][t] = _pi_power(ring, best)
        for i in range(t + 1, a):
            x = M[i][t]
            if x.storage_zero():
                continue
            f = x.div_pi_exact(best)
            M[i] = [y - f * z for y, z in zip(M[i], M[t])]
            row_steps.append((ELIM, i, t, f))
        for j in range(t + 1, b):
            x = M[t][j]
            if x.storage_zero():
                continue
            f = x.div_pi_exact(best)
            for row in M:
                row[j] = row[j] - f * row[t]
            col_steps.append((ELIM, j, t, f))
        vals.append(best)
        t += 1
    limited = drained
    for i in range(t, a):
        for j in range(t, b):
            if M[i][j].abs_prec < ring.cfg.N:
                limited = True
    if limited and strict:
        raise InsufficientPrecision("a residual zero is certified below working precision")
    return NaiveSnf(vals, limited, row_steps, col_steps)


# ---------------------------------------------------------------------------
# Smith transforms replayed from the step record of snf_dvr_naive.
# U * mat * V = diag(pi^v); each matrix gets its own update expressions, in
# the order the steps were taken.
# ---------------------------------------------------------------------------


def replay_u(mat, s):
    """U: the row operations (swap, rescale by u^-1, M[i] -= f M[t])."""
    from htlab.linalg import Mat

    out = Mat.identity(mat.ring, mat.nrows)
    U = out.rows
    for op, i, t, f in s.row_steps:
        if op == SWAP:
            U[i], U[t] = U[t], U[i]
        elif op == RESCALE:
            uinv = f[1]
            U[t] = [uinv * x for x in U[t]]
        else:
            U[i] = [y - f * z for y, z in zip(U[i], U[t])]
    return out


def replay_uinv(mat, s):
    """Uinv: the inverses of the row operations, composed on the right."""
    from htlab.linalg import Mat

    out = Mat.identity(mat.ring, mat.nrows)
    Uinv = out.rows
    for op, i, t, f in s.row_steps:
        if op == SWAP:
            for row in Uinv:
                row[i], row[t] = row[t], row[i]
        elif op == RESCALE:
            u = f[0]
            for row in Uinv:
                row[t] = row[t] * u
        else:
            for row in Uinv:
                row[t] = row[t] + f * row[i]
    return out


def replay_v(mat, s):
    """V: the column operations (swap, M[:, j] -= f M[:, t])."""
    from htlab.linalg import Mat

    out = Mat.identity(mat.ring, mat.ncols)
    V = out.rows
    for op, j, t, f in s.col_steps:
        if op == SWAP:
            for row in V:
                row[j], row[t] = row[t], row[j]
        else:
            for row in V:
                row[j] = row[j] - f * row[t]
    return out


def replay_vinv(mat, s):
    """Vinv: the inverses of the column operations, composed on the left."""
    from htlab.linalg import Mat

    out = Mat.identity(mat.ring, mat.ncols)
    Vinv = out.rows
    for op, j, t, f in s.col_steps:
        if op == SWAP:
            Vinv[j], Vinv[t] = Vinv[t], Vinv[j]
        else:
            Vinv[t] = [y + f * z for y, z in zip(Vinv[t], Vinv[j])]
    return out


def snf_diag(mat, vals):
    """The reduced matrix itself: diag(pi^v) padded with zeros, mat's shape."""
    from htlab.linalg import Mat

    ring = mat.ring
    pi = ring.from_k(ring.cfg.pi)
    rows = [[ring.zero() for _ in range(mat.ncols)] for _ in range(mat.nrows)]
    for t, v in enumerate(vals):
        x = ring.one()
        for _ in range(v):
            x = x * pi
        rows[t][t] = x
    return Mat(ring, rows)


# ---------------------------------------------------------------------------
# Smith exponents by determinantal divisors, in exact integer arithmetic.
# An element of O = Z[pi]/(E(pi)) is its coefficient list [c_0, .., c_{e-1}]
# on 1, pi, .., pi^(e-1); no KElem is formed.
# ---------------------------------------------------------------------------


def exact_mul(a, b, E_coeffs):
    """a * b in Z[pi]/(E(pi)), reduced by pi^e = -(E_0 + E_1 pi + ..)."""
    e = len(E_coeffs)
    out = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for k in range(2 * e - 2, e - 1, -1):
        c, out[k] = out[k], 0
        for i, E_i in enumerate(E_coeffs):
            out[k - e + i] -= c * E_i
    return out[:e]


def exact_val_pi(a, p):
    """v_pi(sum c_i pi^i) = min(e v_p(c_i) + i): the terms' valuations differ
    mod e, so the least is attained once.  None for 0."""
    e = len(a)
    best = None
    for i, c in enumerate(a):
        if c:
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            if best is None or e * v + i < best:
                best = e * v + i
    return best


def determinantal_exponents(rows, p, E_coeffs):
    """The exact Smith exponents e_k = v(d_k) - v(d_{k-1}) of an a x b matrix
    over Z_p[pi], d_k being a k x k minor of least valuation (d_0 = 1), for
    k = 1..min(a, b); None past the rank.  Entries are coefficient lists.
    Each k x k minor is the Laplace expansion along its first row of the
    (k-1) x (k-1) minors, so every minor is formed once, with no division."""
    a, b = len(rows), len(rows[0]) if rows else 0
    e = len(E_coeffs)
    minors = {((), ()): [1] + [0] * (e - 1)}
    out, prev = [], 0
    for k in range(1, min(a, b) + 1):
        level = {}
        least = None
        for R in itertools.combinations(range(a), k):
            for C in itertools.combinations(range(b), k):
                det = [0] * e
                for idx, c in enumerate(C):
                    term = exact_mul(rows[R[0]][c], minors[(R[1:], C[:idx] + C[idx + 1 :])], E_coeffs)
                    sign = -1 if idx % 2 else 1
                    det = [x + sign * y for x, y in zip(det, term)]
                level[(R, C)] = det
                v = exact_val_pi(det, p)
                if v is not None and (least is None or v < least):
                    least = v
        if least is None:
            out.extend([None] * (min(a, b) - k + 1))
            break
        out.append(least - prev)
        prev = least
        minors = level
    return out


# ---------------------------------------------------------------------------
# Plain-polynomial multiplication oracle for the divided-power basis.
# Works over Fraction-valued coefficients keyed by ordinary exponents.
# ---------------------------------------------------------------------------


def _factorial(n):
    r = 1
    for i in range(2, n + 1):
        r *= i
    return r


def pd_to_plain(coeffs):
    """{pd key: int} -> {key: Fraction} dividing by the factorials."""
    out = {}
    for key, c in coeffs.items():
        den = 1
        for _, a in key:
            den *= _factorial(a)
        out[key] = Fraction(c, den)
    return out


def plain_mul(a, b, degcap):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            merged = {}
            for v, ex in list(k1) + list(k2):
                merged[v] = merged.get(v, 0) + ex
            if sum(merged.values()) > degcap:
                continue
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def plain_to_pd(plain):
    out = {}
    for key, c in plain.items():
        num = 1
        for _, a in key:
            num *= _factorial(a)
        v = c * num
        assert v.denominator == 1
        out[key] = int(v)
    return out


# ---------------------------------------------------------------------------
# Naive product in O_K/p^prec for any e and f: x[i][j] is the coefficient of
# pi^i g^j.  Multiply as polynomials in two variables, then reduce g by its
# modulus and pi by E, highest degree first.
# ---------------------------------------------------------------------------


def ok_mul_naive(p, E_coeffs, modpoly, prec, x, y):
    e, f, M = len(E_coeffs), len(modpoly), p**prec
    tmp = [[0] * (2 * f - 1) for _ in range(2 * e - 1)]
    for i, row in enumerate(x):
        for j, a in enumerate(row):
            for i2, row2 in enumerate(y):
                for j2, b in enumerate(row2):
                    tmp[i + i2][j + j2] += a * b
    for row in tmp:
        for m in range(2 * f - 2, f - 1, -1):
            c, row[m] = row[m], 0
            for l in range(f):
                row[m - f + l] -= c * modpoly[l]
    for m in range(2 * e - 2, e - 1, -1):
        c, tmp[m] = tmp[m], [0] * (2 * f - 1)
        for j in range(e):
            tmp[m - e + j] = [v - E_coeffs[j] * w for v, w in zip(tmp[m - e + j], c)]
    return [[v % M for v in row[:f]] for row in tmp[:e]]


# ---------------------------------------------------------------------------
# Truncated divided powers on readable monomials.  A monomial is a sorted
# tuple of (variable, exponent) pairs, a variable (0, 0, j) for X_j or
# (1, k, j) for Y_{k,j}.  An element is (terms, truncated) with terms a list
# of (monomial, coefficient) in dict order.  Coefficients are scalars of the
# shared protocol (+, -, *, smul, div_int, droppable, truncated), and each
# sum is formed left to right in the order its terms are met: that is the
# order, and so the stored form, that htlab.pdring promises for a packed key.
# ---------------------------------------------------------------------------


def _pd_clean(pairs, truncated):
    """The constructor's rule: drop droppable coefficients, flag truncated ones."""
    terms = []
    for key, c in pairs:
        truncated = truncated or c.truncated
        if not c.droppable():
            terms.append((key, c))
    return terms, truncated


def pd_mul_naive(x, y, D):
    """x * y: v^[a] v^[b] = C(a+b, a) v^[a+b], monomials of degree > D dropped and flagged."""
    (xt, xf), (yt, yf) = x, y
    trunc = xf or yf
    sums = {}
    for k1, c1 in xt:
        for k2, c2 in yt:
            exps = dict(k1)
            mult = 1
            for v, b in k2:
                a = exps.get(v, 0)
                mult *= comb(a + b, a)
                exps[v] = a + b
            if sum(exps.values()) > D:
                trunc = True
                continue
            sums.setdefault(tuple(sorted(exps.items())), []).append((c1 * c2).smul(mult))
    pairs = []
    for key, parts in sums.items():
        c = parts[0]
        for t in parts[1:]:
            c = c + t
        pairs.append((key, c))
    return _pd_clean(pairs, trunc)


def pd_add_naive(x, y, sub=False):
    """x + y (x - y with sub): x's terms first, y's new monomials after them."""
    (xt, xf), (yt, yf) = x, y
    out = dict(xt)
    trunc = xf or yf
    for key, c in yt:
        prev = out.get(key)
        if prev is None:
            out[key] = -c if sub else c
            continue
        c = prev - c if sub else prev + c
        trunc = trunc or c.truncated
        if c.droppable():
            del out[key]
        else:
            out[key] = c
    return list(out.items()), trunc


def pd_face_naive(x, i, variant, D, one, alpha):
    """The face d^i of a pd element, from the formulas of the pdring docstring.

    i > 0 shifts j -> j + 1 for j >= i.  i = 0 sends each variable v to its
    image (v_{j+1} - v_1), times (1 - alpha X_1)^{-1} = sum alpha^k k! X_1^[k]
    unless the variant is rel-geom, and v^[a] to image^a / a!; each monomial
    is its coefficient times those images in the monomial's variable order.
    ``one`` is the base's one, ``alpha`` the twist unit.
    """
    terms, trunc = x
    if i > 0:
        shifted = []
        for key, c in terms:
            moved = [((kind, k, j if j < i else j + 1), a) for (kind, k, j), a in key]
            shifted.append((tuple(sorted(moved)), c))
        return shifted, trunc
    series = None
    if variant != "rel-geom":
        power, pairs = one, [((), one)]
        for k in range(1, D + 1):
            power = power * alpha
            pairs.append(((((0, 0, 1), k),), power.smul(factorial(k))))
        series = _pd_clean(pairs, False)

    def gamma(v, a):
        kind, k, j = v
        moved, first = (((kind, k, j + 1), 1),), (((kind, k, 1), 1),)
        image = ([(moved, one), (first, -one)], False)
        if series is not None:
            image = pd_mul_naive(image, series, D)
        if a == 1:
            return image
        out = ([((), one)], False)
        for _ in range(a):
            out = pd_mul_naive(out, image, D)
        return _pd_clean([(key, c.div_int(factorial(a))) for key, c in out[0]], out[1])

    acc = ([], trunc)
    for key, c in terms:
        term = ([((), c)], False)
        for v, a in key:
            term = pd_mul_naive(term, gamma(v, a), D)
        acc = pd_add_naive(acc, term)
    return acc


def _sum_into(out, key, c):
    """Add c into out[key], dropping a droppable sum; whether it dropped one."""
    if key not in out:
        out[key] = c
        return False
    c = out[key] + c
    if c.droppable():
        del out[key]
        return True
    out[key] = c
    return False


def chart_dot_chain(xs, ys, ms=None):
    """(coeffs, truncated, dropped): x0 y0 m0 + x1 y1 m1 + ... over chart
    scalars as a chain of products and sums.

    Each x y is formed pair by pair: each raw key (the exponent-wise sum of
    the factors' keys) is summed as its pairs are met, then each raw sum goes
    through the constructor's rule: dropped if droppable, times pi^m (the
    chain pi * pi * ...) where the relation T_0 ... T_r = pi strips m off,
    dropped if that is droppable, flagged and dropped outside the box, and
    summed with the raw sums that reach its key.  Each term is multiplied by
    its m with smul and added in, left to right.  dropped is whether a
    droppable coefficient or partial sum was dropped on the way: only then
    may the key order differ from that of BaseConfig.dot.
    """
    ring = xs[0].ring
    cfg, r = ring.cfg, ring.r
    acc = {}
    trunc = dropped = False
    for x, y, m in zip(xs, ys, ms or [1] * len(xs)):
        trunc = trunc or x.truncated or y.truncated
        raw = {}
        for e1, c1 in x.coeffs.items():
            for e2, c2 in y.coeffs.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                raw[exps] = raw[exps] + c if exps in raw else c
        term = {}
        for exps, c in raw.items():
            if c.droppable():
                dropped = True
                continue
            k = min(exps[: r + 1])
            if k:
                exps = tuple(e - k if i <= r else e for i, e in enumerate(exps))
                pik = cfg.pi
                for _ in range(k - 1):
                    pik = pik * cfg.pi
                c = c * pik
                if c.droppable():
                    dropped = True
                    continue
            if sum(abs(e) for e in exps) > ring.Dy:
                trunc = True
                continue
            dropped |= _sum_into(term, exps, c)
        for exps, c in term.items():
            if m != 1:
                c = c.smul(m)
            if c.droppable():
                dropped = True
                continue
            dropped |= _sum_into(acc, exps, c)
    return acc, trunc, dropped


def _chain_pairs(sums, x, y):
    """Add every pair of x * y to sums, {key: (xs, ys, ms)}, in the order
    met; whether a pair lies above the cutoff."""
    ring = x.ring
    limit, w, field = (ring.D + 1) << ring.shift, ring.width, ring.field
    low, add, top = (1 << ring.shift) - 1, ring.support_add, ring.support_top
    cut = False
    right = [(k2, ((k2 & low) + add) & top, c2) for k2, c2 in y.coeffs.items()]
    for k1, c1 in x.coeffs.items():
        s1 = ((k1 & low) + add) & top
        for k2, s2, c2 in right:
            key = k1 + k2
            if key >= limit:
                cut = True
                continue
            mult = 1
            shared = s1 & s2
            while shared:
                bit = shared & -shared
                off = bit.bit_length() - w
                a = (k1 >> off) & field
                mult *= comb(a + ((k2 >> off) & field), a)
                shared ^= bit
            terms = sums.get(key)
            if terms is None:
                sums[key] = ([c1], [c2], [mult])
            else:
                terms[0].append(c1)
                terms[1].append(c2)
                terms[2].append(mult)
    return cut


def _dot_keys(ring, sums, trunc):
    """The element whose every key is one dot over its pairs in sums; a key
    holding a scalar instead keeps it as it is."""
    dot = ring.cfg.dot
    out = {}
    for key, acc in sums.items():
        c = dot(*acc) if isinstance(acc, tuple) else acc
        if c.truncated:
            trunc = True
        if not c.droppable():
            out[key] = c
    return ring.zero()._adopt(out, trunc)


def pd_mul_chain(x, y):
    """x * y on packed keys, every pair visited: a pair above the cutoff sets
    the flag, and each key is one dot over its pairs in the order met."""
    sums = {}
    cut = _chain_pairs(sums, x, y)
    return _dot_keys(x.ring, sums, cut or x.truncated or y.truncated)


def mat_mul_chain(a, b):
    """a * b over pd elements, cell by cell as a chain: a droppable factor
    adds no term, each product is pd_mul_chain, and the products are added
    in l order."""
    from htlab.linalg import Mat

    zero = a.ring.zero()
    rows = []
    for r in a.rows:
        row = []
        for col in zip(*b.rows):
            acc = zero
            for x, y in zip(r, col):
                if not x.droppable() and not y.droppable():
                    acc = acc + pd_mul_chain(x, y)
            row.append(acc)
        rows.append(row)
    return Mat(a.ring, rows)


def _face_gammas(ctx):
    """gamma(vid, a): v^[a] under the twisted face d^0 of ``ctx``, built
    apart from the context.

    Each generator's image is (v_{j+1} - v_1) times the context's geometric
    series (none for rel-geom), and v^[a] goes to image^a / a! through the
    power chain one * image * image ...; every product is pd_mul_chain.
    """
    t = ctx.target
    gammas = {}

    def gamma(vid, a):
        if (vid, a) in gammas:
            return gammas[vid, a]
        kind, k, j = vid
        diff = t.x(j + 1) - t.x(1) if kind == 0 else t.y(k, j + 1) - t.y(k, 1)
        image = diff if ctx._geom is None else pd_mul_chain(diff, ctx._geom)
        power = image
        if a > 1:
            power = t.one()
            for _ in range(a):
                power = pd_mul_chain(power, image)
            power = power.div_int(factorial(a))
        gammas[vid, a] = power
        return power

    return gamma


def _face_terms(ctx, x):
    """(c, the gammas of key in slot order) for each term c v^[key] of x."""
    ring, gamma = x.ring, _face_gammas(ctx)
    for key, c in x.coeffs.items():
        yield c, [gamma(vid, a) for vid, off in ring.slots if (a := (key >> off) & ring.field)]


def face_apply_chain(ctx, x):
    """The twisted face d^0 of ``ctx`` applied to x, term by term: a term is
    from_scalar(c) times the divided powers of _face_gammas in slot order,
    each product pd_mul_chain, and the image is the left-to-right sum of
    the terms."""
    t = ctx.target
    acc = type(x)._clean(t, {}, x.truncated)
    for c, gammas in _face_terms(ctx, x):
        term = t.from_scalar(c)
        for g in gammas:
            term = pd_mul_chain(term, g)
        acc = acc + term
    return acc


def face_apply_one_sum(ctx, x):
    """The twisted face d^0 of ``ctx`` applied to x as one sum: each term's
    prefix from_scalar(c) times all of its gammas but the last is formed by
    pd_mul_chain, the pairs of every prefix with its last gamma go into one
    table, and each key is one dot over its pairs in the order met.  The
    constant key keeps c as it is, at its place in x's order."""
    t = ctx.target
    sums = {}
    trunc = x.truncated
    for c, gammas in _face_terms(ctx, x):
        if not gammas:
            sums[0] = c
            continue
        prefix = t.from_scalar(c)
        for g in gammas[:-1]:
            prefix = pd_mul_chain(prefix, g)
        if _chain_pairs(sums, prefix, gammas[-1]) or prefix.truncated or gammas[-1].truncated:
            trunc = True
    return _dot_keys(t, sums, trunc)


def pd_evaluate_naive(terms, values, T):
    """{m: Fraction}: sum of c * prod v^a / a! over the monomials of degree m < T.

    ``terms`` holds (monomial, int coefficient) pairs and ``values`` the
    integer value of each variable.
    """
    out = {}
    for key, c in terms:
        m = sum(a for _, a in key)
        if m >= T:
            continue
        value = Fraction(c)
        for v, a in key:
            value *= Fraction(values[v] ** a, factorial(a))
        out[m] = out.get(m, 0) + value
    return out


# ---------------------------------------------------------------------------
# The group cochain U(sigma), cell by cell and term by term.
# ---------------------------------------------------------------------------


def cocycle_matrix_naive(strat, s, T):
    """U(sigma) as rows of {t-degree: scalar}, every term formed.

    The t^m slot of a cell is the chain A_{n,I}[i][j] * s_{n,I} over every
    included coefficient of weight m, zeros included: plain products, summed
    left to right in coefficient order.  s_{n,I} is
    (c^n prod n_k^i_k) / (n! prod i_k!), and a coefficient is included
    unless its numerator is 0 and m > 0.  Degrees come in the order of each
    weight's first included coefficient; droppable slots are left out.
    """
    cfg, base = strat.cfg, strat.base
    groups = {}
    for (n, index), A in strat.coeffs.items():
        m = n + sum(index)
        if m >= T:
            continue
        num = s.c**n
        den = factorial(n)
        for nk, ik in zip(s.n, index):
            num *= nk**ik
            den *= factorial(ik)
        if num == 0 and m > 0:
            continue
        sc = base.from_k(cfg.k_from_int(num).div_int(den))
        groups.setdefault(m, []).append((A, sc))
    out = []
    for i in range(strat.rank):
        row = []
        for j in range(strat.rank):
            cell = {}
            for m, terms in groups.items():
                acc = None
                for A, sc in terms:
                    t = A.rows[i][j] * sc
                    acc = t if acc is None else acc + t
                if not acc.droppable():
                    cell[m] = acc
            row.append(cell)
        out.append(row)
    return out


def series_dot_per_slot(row, col, T, dot):
    """{k: slot}: the t^k slots below T of sum_l row[l] * col[l] that are not
    droppable, by operand lists: the pairs x * y with a + b = k are listed in
    (l, a, b) order, and each slot is then one dot over its lists.  Slots
    come in the order their first pair is met."""
    sums = {}
    for xs, ys in zip(row, col):
        if not ys:
            continue
        for a, x in xs:
            for b, y in ys:
                k = a + b
                if k >= T:
                    continue
                pair = sums.get(k)
                if pair is None:
                    sums[k] = ([x], [y])
                else:
                    pair[0].append(x)
                    pair[1].append(y)
    out = {}
    for k, (xs, ys) in sums.items():
        v = dot(xs, ys)
        if not v.droppable():
            out[k] = v
    return out


def series_add_chain(a, b):
    """a + b for {t-degree: coefficient} dicts as a running sum: a's slots in
    their order, each slot of b added in, a droppable sum dropped (a slot
    entered again goes to the end)."""
    out = dict(a)
    for k, c in b.items():
        prev = out.get(k)
        if prev is None:
            out[k] = c
            continue
        c = prev + c
        if c.droppable():
            del out[k]
        else:
            out[k] = c
    return out


def subs_t_chain(xs, t_img, base, T):
    """t -> t_img in each {t-degree: coefficient} dict of xs as a running
    chain: for k in increasing order, each term v * x_k (v a coefficient of
    t_img^k) is added into its slot one by one, and a droppable term or
    partial sum is dropped at once."""
    top = max((k for x in xs for k in x), default=0)
    powers = [{0: base.one()}]
    for _ in range(top):
        powers.append(series_dot_per_slot([powers[-1].items()], [t_img.items()], T, base.cfg.dot))
    out = []
    for x in xs:
        acc = {}
        for k in sorted(x):
            terms = {j: v * x[k] for j, v in powers[k].items()}
            acc = series_add_chain(acc, {j: t for j, t in terms.items() if not t.droppable()})
        out.append(acc)
    return out


def series_mat_mul_chain(a, b, r, T, dot):
    """a * b for r x r matrices of t-series (r^2 {t-degree: coefficient}
    cells, row by row) as a chain: an empty cell adds no term, each product
    of two cells is series_dot_per_slot, and the products are added in l
    order by series_add_chain."""
    out = []
    for i in range(r):
        for j in range(r):
            acc = {}
            for l in range(r):
                x, y = a[i * r + l], b[l * r + j]
                if x and y:
                    acc = series_add_chain(acc, series_dot_per_slot([x.items()], [y.items()], T, dot))
            out.append(acc)
    return out


def agree(a, b):
    """(ok, truncated): whether coefficient dicts a and b agree, by the rule of a difference.

    The reference for the one-sum zero tests of src (htlab.sparse): a key
    of both is subtracted, and the difference is dropped if droppable; a
    key of one alone is left as it is, since it is zero exactly when its
    negative is.  ok is whether every key left is zero, and truncated
    whether a difference formed here is truncated.
    """
    ok, truncated = True, False
    for key, x in a.items():
        y = b.get(key)
        if y is not None:
            x = x - y
            if x.truncated:
                truncated = True
            if x.droppable():
                continue
        if ok and not x.is_zero():
            ok = False
    if ok:
        ok = all(y.is_zero() for key, y in b.items() if key not in a)
    return ok, truncated


def first_disagreement(got, want, r):
    """The first cell (i, j), row by row, where two matrices of t-series do
    not agree by the rule of a difference (agree), or None."""
    for c, (x, y) in enumerate(zip(got, want)):
        if not agree(x, y)[0]:
            return divmod(c, r)
    return None


def cocycle_law_naive(strat, s, u, T=None):
    """U(s u) = U(s) * s(U(u)) through whole matrices: the three cochains,
    s applied to each cell of U(u) (galois.act_slots), the product by
    series_mat_mul_chain, and the first cell of the residual that is not
    zero in row-major order."""
    from htlab.galois import act_slots
    from htlab.sen import cocycle_matrix

    T = strat.cfg.cutoffs.T if T is None else T
    base, r = strat.base, strat.rank
    lhs = cocycle_matrix(strat, s * u, T=T)
    acted = act_slots(s, cocycle_matrix(strat, u, T=T), base, T, strat.braid_unit())
    rhs = series_mat_mul_chain(cocycle_matrix(strat, s, T=T), acted, r, T, strat.cfg.dot)
    witness = first_disagreement(lhs, rhs, r)
    return {"ok": witness is None, "witness": witness}


def gamma_image_chain(ring, s, k, a, chi_inv):
    """sigma(Y_k^[a]) = chi^{-a} sum_j Y_k^[j] n_k^{a-j} / (a-j)! as a chain:
    each term the basis element Y_k^[j] times its scalar, added in
    increasing j."""
    cfg = ring.cfg
    M = cfg.p**cfg.N
    nk = s.n[k]
    out = None
    for j in range(a + 1):
        sc = cfg.k_from_int(pow(chi_inv, a, M) * nk ** (a - j)).div_int(factorial(a - j))
        term = ring.y(k + 1, 1, j).mul_scalar(ring.base.from_k(sc))
        out = term if out is None else out + term
    return out


def crosscheck_chain(strat, s, T=None):
    """B^{-1} F(sigma) B(sigma t, sigma Y) = U(sigma) as the chain of whole
    matrices: B and B^{-1} from sen.period_kernel_rep on a copy of strat,
    never the period kept on strat; U(sigma) and the phi-only F(sigma) from
    sen.cocycle_matrix, each lifted to the pd ring; B(sigma t, sigma Y)
    summed term by term over I, each term
    Theta^I times sigma(t)^|I| times the image of Y^[I]; products by
    series_mat_mul_chain, and the first cell of the residual that is not
    zero in row-major order."""
    from htlab.galois import GroupElt, sigma_t
    from htlab.higgs import Stratification
    from htlab.sen import cocycle_matrix, period_kernel_rep

    cfg, r = strat.cfg, strat.rank
    T = cfg.cutoffs.T if T is None else T
    # a copy of strat, so the period is built here and not read from strat
    copy = Stratification(strat.base, strat.flavor, strat.coeffs, strat.D, r, twist=strat.twist)
    per = period_kernel_rep(copy, T=T)
    ring, dot = per["ring"], cfg.dot

    def lift(cells):
        return [{m: ring.from_scalar(v) for m, v in cell.items()} for cell in cells]

    u = lift(cocycle_matrix(strat, s, T=T))
    arith = {(n, ()): A for (n, index), A in strat.coeffs.items() if sum(index) == 0}
    sa = Stratification(strat.base, "abs-arith", arith, strat.D, r, twist=strat.twist)
    f = lift(cocycle_matrix(sa, GroupElt(cfg, (), s.c, s.chi), T=T))
    st = sigma_t(ring, s, T=T, alpha=strat.braid_unit())
    powers = [{0: ring.one()}]
    for _ in range(T - 1):
        powers.append(series_dot_per_slot([powers[-1].items()], [st.items()], T, dot))
    chi_inv = pow(s.chi, -1, cfg.p**cfg.N)
    b_sub = [{} for _ in range(r * r)]
    for (n, index), A in strat.coeffs.items():
        if n or sum(index) >= T or A.storage_zero():
            continue
        coeff = ring.one()
        for k, ik in enumerate(index):
            if ik:
                coeff = coeff * gamma_image_chain(ring, s, k, ik, chi_inv)
        series = {m: v * coeff for m, v in powers[sum(index)].items()}
        series = {m: v for m, v in series.items() if not v.droppable()}
        for c, a in enumerate(a for row in A.rows for a in row):
            e = ring.from_scalar(a)
            if not e.droppable():
                term = series_dot_per_slot([[(0, e)]], [series.items()], T, dot)
                b_sub[c] = series_add_chain(b_sub[c], term)
    conj = series_mat_mul_chain(series_mat_mul_chain(per["Binv"], f, r, T, dot), b_sub, r, T, dot)
    witness = first_disagreement(u, conj, r)
    return {"ok": witness is None, "witness": witness}


def corrupted_strat(strat, rng):
    """strat with one coefficient of positive weight bumped by p in a random
    cell, or None if no coefficient has positive weight."""
    from htlab.higgs import Stratification
    from htlab.linalg import Mat

    keys = [key for key in strat.coeffs if key[0] + sum(key[1]) >= 1]
    if not keys:
        return None
    key = rng.choice(keys)
    r = strat.rank
    i, j = rng.randrange(r), rng.randrange(r)
    p, zero = strat.base.from_int(strat.cfg.p), strat.base.zero()
    bump = Mat(strat.base, [[p if (a, b) == (i, j) else zero for b in range(r)] for a in range(r)])
    coeffs = dict(strat.coeffs)
    coeffs[key] = coeffs[key] + bump
    return Stratification(strat.base, strat.flavor, coeffs, strat.D, r, twist=strat.twist)


def descent_faces(strat):
    """(p_0*(eps), p_1*(eps), p_2*(eps)): the three face images of the descent
    matrix, the 0th twisted by the stratification's braiding unit and formed
    term by term by face_apply_chain, on a context of its own."""
    from htlab.higgs import descent_matrix
    from htlab.pdring import FaceContext, PdRing

    ring1 = PdRing(strat.base, strat.flavor, 1, d=strat.d, D=strat.D)
    eps = descent_matrix(strat, ring=ring1)
    alpha = strat.braid_unit()
    contexts = [FaceContext(ring1, i, alpha) for i in range(3)]
    ring2 = contexts[0].target
    p0 = eps.map(lambda x: face_apply_chain(contexts[0], x), ring=ring2)
    return (p0,) + tuple(eps.map(c.apply, ring=ring2) for c in contexts[1:])


def dot_vanishes_by_cell(xs, ys, ms=None):
    """pdring.dot_vanishes by the cell route: the pd element BaseConfig.dot
    forms, tested by is_zero, and its truncated flag."""
    cell = xs[0].ring.cfg.dot(xs, ys, ms)
    return cell.is_zero(), cell.truncated


def cocycle_strat_naive(strat):
    """check_cocycle_strat through whole matrices: the product p_2*(eps) p_0*(eps)
    by mat_mul_chain, the residual by Mat.__sub__, its flag, and its first
    cell that is not zero in row-major order."""
    from htlab.higgs import _first_nonzero

    p0, p1, p2 = descent_faces(strat)
    residual = mat_mul_chain(p2, p0) - p1
    ok = residual.is_zero()
    return {
        "ok": ok,
        "rank": strat.rank,
        "terms": len(strat.coeffs),
        "truncated": residual.truncated,
        "witness": None if ok else _first_nonzero(residual),
    }


# ---------------------------------------------------------------------------
# The precision ladder: a result at N against the same result at a higher N.
# ---------------------------------------------------------------------------


def claims_agree(lo, hi):
    """Whether K scalar hi knows every digit lo claims, and agrees with it there.

    Both are read as p^-shift u on the same basis pi^i g^j; a scalar with no
    digit claims nothing."""
    A = lo.prec - lo.shift
    if A < 1:
        return True
    if hi.prec - hi.shift < A:
        return False
    p = lo.cfg.p
    S = max(lo.shift, hi.shift)
    M = p ** (A + S)
    us = [(a,) if isinstance(a, int) else a for a in (lo.u, hi.u)]
    return all((b * p ** (S - hi.shift) - a * p ** (S - lo.shift)) % M == 0 for a, b in zip(*us))


# ---------------------------------------------------------------------------
# Tensor products and duals of modules, entry by entry.
# ---------------------------------------------------------------------------


def kron(a, b):
    """The Kronecker product a (x) b: entry (i r_b + k, j r_b + l) is a[i][j] * b[k][l]."""
    from htlab.linalg import Mat

    return Mat(a.ring, [[x * y for x in ra for y in rb] for ra in a.rows for rb in b.rows])


def higgs_tensor(h1, h2):
    """h1 (x) h2: theta_k (x) 1 + 1 (x) theta'_k and phi (x) 1 + 1 (x) phi'.

    Both modules share base, flavor, d and twist; the braiding is linear in
    (theta, phi), so the tensor module is braided by the same unit.
    """
    from htlab.higgs import HiggsData
    from htlab.linalg import Mat

    one1, one2 = Mat.identity(h1.base, h1.rank), Mat.identity(h2.base, h2.rank)

    def field(a, b):
        return kron(a, one2) + kron(one1, b)

    theta = [field(a, b) for a, b in zip(h1.theta, h2.theta)]
    phi = None if h1.phi is None else field(h1.phi, h2.phi)
    return HiggsData(h1.base, h1.flavor, theta, phi, integral=h1.integral and h2.integral, twist=h1.twist)


def higgs_dual(h):
    """The dual module: -theta_k^T and -phi^T."""
    from htlab.higgs import HiggsData
    from htlab.linalg import Mat

    def field(a):
        return Mat(a.ring, [[-x for x in col] for col in zip(*a.rows)])

    phi = None if h.phi is None else field(h.phi)
    return HiggsData(h.base, h.flavor, [field(a) for a in h.theta], phi, integral=h.integral, twist=h.twist)


# ---------------------------------------------------------------------------
# Conjugates and direct sums of modules.
# ---------------------------------------------------------------------------


def higgs_conj(h, P, P_inv):
    """P h P^-1: each theta_k and phi conjugated by P, whose inverse is P_inv."""
    from htlab.higgs import HiggsData

    phi = None if h.phi is None else P * h.phi * P_inv
    return HiggsData(h.base, h.flavor, [P * a * P_inv for a in h.theta], phi, integral=h.integral, twist=h.twist)


def higgs_sum(h1, h2):
    """h1 (+) h2: each theta_k and phi block diagonal, h1's block first.

    Both modules share base, flavor, d and twist.
    """
    from htlab.higgs import HiggsData
    from htlab.linalg import Mat

    def field(a, b):
        zero = a.ring.zero()
        rows = [list(r) + [zero] * h2.rank for r in a.rows] + [[zero] * h1.rank + list(r) for r in b.rows]
        return Mat(a.ring, rows)

    theta = [field(a, b) for a, b in zip(h1.theta, h2.theta)]
    phi = None if h1.phi is None else field(h1.phi, h2.phi)
    return HiggsData(h1.base, h1.flavor, theta, phi, integral=h1.integral and h2.integral, twist=h1.twist)


# ---------------------------------------------------------------------------
# The delta and delta_log axioms on a hand-built Breuil-Kisin prelog datum:
# the series carrier W[u]/(u^M) with phi(u) = u^p beside W itself, a delta
# view of either, and checks of the product rule and of the delta_log axioms
# on the words of a monoid.
# ---------------------------------------------------------------------------


class USeries:
    """Element of W[u]/(u^M), coefficients mod p^prec, phi(u) = u^p."""

    __slots__ = ("cfg", "coeffs", "prec", "M")

    def __init__(self, cfg, coeffs, prec, M, reduce=True):
        wc = _core(cfg)
        self.cfg = cfg
        self.prec = prec
        self.M = M
        if reduce:
            mod = cfg.p**prec if prec > 0 else 1
            out = {}
            for i, c in coeffs.items():
                if i < M:
                    c = wc.linu(c, c, 1, 0, mod)
                    if c != wc.zero_u:
                        out[i] = c
            coeffs = out
        self.coeffs = coeffs

    @classmethod
    def from_int(cls, cfg, n, M, prec=None):
        prec = cfg.N if prec is None else prec
        return cls(cfg, {0: _int_digits(_core(cfg), n, prec)}, prec, M)

    @classmethod
    def u(cls, cfg, M, prec=None):
        prec = cfg.N if prec is None else prec
        return cls(cfg, {1: _int_digits(_core(cfg), 1, prec)}, prec, M)

    def _lin(self, other, t):
        cfg = self.cfg
        wc = cfg._witt
        prec = min(self.prec, other.prec)
        mod = cfg.p**prec
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = wc.linu(out.get(i, wc.zero_u), c, 1, t, mod)
        return USeries(cfg, out, prec, self.M)

    def _map(self, fn, prec, reduce=True):
        return USeries(self.cfg, {i: fn(c) for i, c in self.coeffs.items()}, prec, self.M, reduce)

    def __add__(self, other):
        return self._lin(other, 1)

    def __sub__(self, other):
        return self._lin(other, -1)

    def __neg__(self):
        return self.smul(-1)

    def __mul__(self, other):
        cfg = self.cfg
        wc = cfg._witt
        prec = min(self.prec, other.prec)
        mod = cfg.p**prec
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                if i + j >= self.M:
                    continue
                prod = wc.mulu(a, b, mod)
                k = i + j
                out[k] = wc.linu(out[k], prod, 1, 1, mod) if k in out else prod
        return USeries(cfg, out, prec, self.M)

    def pow(self, n):
        r = USeries.from_int(self.cfg, 1, self.M, self.prec)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def scale_pk(self, k):
        if k == 0:
            return self
        wc, prec = self.cfg._witt, self.prec + k
        mod, pk = self.cfg.p**prec, self.cfg.p**k
        return self._map(lambda c: wc.linu(c, c, pk, 0, mod), prec, reduce=False)

    def smul(self, n):
        wc, mod = self.cfg._witt, self.cfg.p**self.prec
        return self._map(lambda c: wc.linu(c, c, n, 0, mod), self.prec)

    def div_p_exact(self):
        if self.prec <= 1:
            raise PrecisionExhausted("division by p exhausts precision")
        wc = self.cfg._witt
        return self._map(lambda c: _div_p(wc, c, self.prec), self.prec - 1)

    def phi(self):
        cfg = self.cfg
        out = {}
        for i, c in self.coeffs.items():
            if i * cfg.p < self.M:
                out[i * cfg.p] = _frob(cfg._witt, c, 1, self.prec)
        return USeries(cfg, out, self.prec, self.M)

    def is_zero(self):
        if self.prec <= 0:
            raise PrecisionExhausted("no digits left")
        return not self.coeffs

    def eq(self, other):
        return (self - other).is_zero()

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        return self.eq(other)

    def __hash__(self):
        raise TypeError("USeries compares at precision; not hashable")

    def __repr__(self):
        return f"USeries({self.coeffs}, prec={self.prec}, mod u^{self.M})"


class DeltaRingView:
    """A carrier ring together with its Frobenius lift."""

    def __init__(self, cfg, carrier="witt", series_horizon=None):
        if carrier not in ("witt", "series"):
            raise ValueError("carrier must be 'witt' or 'series'")
        if carrier == "series" and not series_horizon:
            raise ValueError("series carrier needs a horizon")
        self.cfg = cfg
        self.carrier = carrier
        self.M = series_horizon

    def one(self, prec=None):
        prec = self.cfg.N if prec is None else prec
        if self.carrier == "witt":
            return _one(self.cfg, prec)
        return USeries.from_int(self.cfg, 1, self.M, prec)

    def phi(self, x):
        if self.carrier == "witt":
            return frobenius(x, 1)
        return x.phi()

    def delta(self, x):
        """(phi(x) - x^p)/p, exact at one digit less than x."""
        if x.prec < 2:
            raise PrecisionExhausted("delta needs at least two digits")
        return (self.phi(x) - x.pow(self.cfg.p)).div_p_exact()


def delta_product_rule_check(view, samples):
    """delta(xy) = x^p delta(y) + y^p delta(x) + p delta(x) delta(y)."""
    p = view.cfg.p
    failures = []
    for x, y in samples:
        lhs = view.delta(x * y)
        dx, dy = view.delta(x), view.delta(y)
        rhs = x.pow(p) * dy + y.pow(p) * dx + (dx * dy).scale_pk(1)
        if not (lhs - rhs).is_zero():
            failures.append((x, y))
    return {"ok": not failures, "checked": len(samples), "failures": failures}


@dataclass
class PrelogCandidate:
    """Monoid generators with candidate images alpha(e_i) and delta_log(e_i)."""

    view: DeltaRingView
    generators: tuple
    alpha: dict
    deltalog: dict


def _fold_deltalog(view, parts):
    """delta_log of a product via the sum-plus-p-product rule."""
    acc = None
    for d in parts:
        if acc is None:
            acc = d
        else:
            acc = acc + d + (acc * d).scale_pk(1)
    return acc


def delta_log_validate(cand, max_len=3, strict=False):
    """Check the delta_log axioms on all words of length <= max_len.

    Returns (ok, violations); each violation is an AxiomViolation instance.
    Axiom ids: 'unit' (empty word has delta_log 0 compatible with delta),
    'compat' (alpha(m)^p delta_log(m) = delta(alpha(m))), and 'frobenius'
    (phi(alpha(m)) = alpha(m)^p (1 + p delta_log(m))).
    """
    view = cand.view
    p = view.cfg.p
    violations = []

    one = view.one()
    if not view.delta(one).is_zero():
        violations.append(AxiomViolation("unit", ()))

    words = []
    for ln in range(1, max_len + 1):
        words.extend(itertools.combinations_with_replacement(cand.generators, ln))

    for w in words:
        try:
            a = one
            for g in w:
                a = a * cand.alpha[g]
            d = _fold_deltalog(view, [cand.deltalog[g] for g in w])
        except KeyError as exc:
            raise ValueError(f"missing data for generator {exc}") from exc
        ap = a.pow(p)
        if not (ap * d - view.delta(a)).is_zero():
            violations.append(AxiomViolation("compat", w))
            continue
        if not (view.phi(a) - ap * (one + d.scale_pk(1))).is_zero():
            violations.append(AxiomViolation("frobenius", w))

    if strict and violations:
        raise violations[0]
    return (not violations, violations)


# ---------------------------------------------------------------------------
# Unramified base change on descriptors: Z_p -> W(F_{p^f}) keeps E, beta and
# every valuation, so each answer must come back digit for digit.
# ---------------------------------------------------------------------------


def lift_unramified(doc, f):
    """The module descriptor doc, over a base with f = 1, read over W(F_{p^f}).

    f is set in the config block, and each coefficient c of every scalar
    record becomes the W coordinates [c, 0, .., 0] on 1, g, .., g^(f-1).
    doc itself is left as it is.
    """

    def lift(x):
        if isinstance(x, list):
            return [lift(v) for v in x]
        if not isinstance(x, dict):
            return x
        if "coeffs" in x and "prec" in x:
            return {**x, "coeffs": [[c] + ["0"] * (f - 1) for c in x["coeffs"]]}
        return {k: lift(v) for k, v in x.items()}

    if doc["config"].get("f", "1") not in ("1", 1):
        raise ValueError("lift_unramified reads a descriptor with f = 1")
    out = {k: lift(v) for k, v in doc.items() if k != "config"}
    out["config"] = {**doc["config"], "f": str(f)}
    return out
