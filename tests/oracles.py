"""Brute-force reference computations used by the test suite.

Everything here is deliberately naive: direct iteration, exhaustive
enumeration, plain polynomial algebra.  The main code paths are checked
against these, never the other way round.
"""

import itertools
from fractions import Fraction
from math import comb, factorial


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


def pd_mul_chain(x, y):
    """x * y on packed keys, every pair visited: a pair above the cutoff sets
    the flag, and each key is one dot over its pairs in the order met."""
    ring = x.ring
    limit, w, field = (ring.D + 1) << ring.shift, ring.width, ring.field
    low, add, top = (1 << ring.shift) - 1, ring.support_add, ring.support_top
    sums = {}
    trunc = x.truncated or y.truncated
    right = [(k2, ((k2 & low) + add) & top, c2) for k2, c2 in y.coeffs.items()]
    for k1, c1 in x.coeffs.items():
        s1 = ((k1 & low) + add) & top
        for k2, s2, c2 in right:
            key = k1 + k2
            if key >= limit:
                trunc = True
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
    dot = ring.cfg.dot
    out = {}
    for key, (xs, ys, ms) in sums.items():
        c = dot(xs, ys, ms)
        if c.truncated:
            trunc = True
        if not c.droppable():
            out[key] = c
    return type(x)._clean(ring, out, trunc)


def face_apply_chain(ctx, x):
    """The twisted face d^0 of ``ctx`` applied to x, term by term.

    Each generator's image is (v_{j+1} - v_1) times the context's geometric
    series (none for rel-geom), and v^[a] goes to image^a / a! through the
    power chain one * image * image ...; a term is from_scalar(c) times
    those divided powers in slot order, and the image is the left-to-right
    sum of the terms.  Every product is pd_mul_chain.
    """
    t = ctx.target
    ring = x.ring
    field = ring.field

    def gamma(vid, a):
        kind, k, j = vid
        diff = t.x(j + 1) - t.x(1) if kind == 0 else t.y(k, j + 1) - t.y(k, 1)
        image = diff if ctx._geom is None else pd_mul_chain(diff, ctx._geom)
        if a == 1:
            return image
        power = t.one()
        for _ in range(a):
            power = pd_mul_chain(power, image)
        return power.div_int(factorial(a))

    acc = type(x)._clean(t, {}, x.truncated)
    for key, c in x.coeffs.items():
        term = t.from_scalar(c)
        for vid, off in ring.slots:
            a = (key >> off) & field
            if a:
                term = pd_mul_chain(term, gamma(vid, a))
        acc = acc + term
    return acc


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


def subs_t_chain(xs, t_img):
    """t -> t_img in each series of xs as a running chain: for k in increasing
    order, each term v * x_k (v a coefficient of t_img^k) is added into its
    slot one by one, and a droppable term or partial sum is dropped at once."""
    from htlab.galois import FormalCElem

    if not xs:
        return []
    base, T = xs[0].base, xs[0].T
    top = max((k for x in xs for k in x.coeffs), default=0)
    powers = [FormalCElem.scalar(base, T, base.one())]
    for _ in range(top):
        powers.append(powers[-1] * t_img)
    out = []
    for x in xs:
        acc = {}
        for k in sorted(x.coeffs):
            c = x.coeffs[k]
            for j, v in powers[k].coeffs.items():
                term = v * c
                if term.droppable():
                    continue
                prev = acc.get(j)
                if prev is None:
                    acc[j] = term
                else:
                    total = prev + term
                    if total.droppable():
                        del acc[j]
                    else:
                        acc[j] = total
        out.append(FormalCElem(base, T, acc, reduce=False))
    return out


def galois_act_mat(s, mat, alpha):
    """sigma applied entrywise to a matrix of t-series (t moves, nothing else),
    twisted by the unit alpha."""
    from htlab.galois import galois_act_all
    from htlab.linalg import Mat

    acted = iter(galois_act_all(s, [e for row in mat.rows for e in row], alpha=alpha))
    return Mat(mat.ring, [[next(acted) for _ in row] for row in mat.rows])


def cocycle_law_naive(strat, s, u, T=None):
    """U(s u) = U(s) * s(U(u)) through whole matrices: the three cochains,
    s applied to U(u) as a matrix, the product by Mat.__mul__, the residual
    lhs - rhs, and its first cell that is not zero in row-major order."""
    from htlab.higgs import _first_nonzero
    from htlab.sen import cocycle_matrix

    alpha = strat.braid_unit()
    lhs = cocycle_matrix(strat, s * u, T=T)
    rhs = cocycle_matrix(strat, s, T=T) * galois_act_mat(s, cocycle_matrix(strat, u, T=T), alpha=alpha)
    residual = lhs - rhs
    ok = residual.is_zero()
    return {"ok": ok, "witness": None if ok else _first_nonzero(residual)}


def descent_faces(strat):
    """(p_0*(eps), p_1*(eps), p_2*(eps)): the three face images of the descent
    matrix, the 0th twisted by the stratification's braiding unit."""
    from htlab.higgs import descent_matrix
    from htlab.pdring import FaceContext, PdRing

    ring1 = PdRing(strat.cfg, strat.base, strat.flavor, 1, d=strat.d, D=strat.D)
    eps = descent_matrix(strat, ring=ring1)
    alpha = strat.braid_unit()
    contexts = [FaceContext(ring1, i, alpha) for i in range(3)]
    ring2 = contexts[0].target
    return tuple(eps.map(c.apply, ring=ring2) for c in contexts)


def cocycle_strat_naive(strat):
    """check_cocycle_strat through whole matrices: the product p_2*(eps) p_0*(eps)
    by Mat.__mul__, the residual by Mat.__sub__, its flag, and its first cell
    that is not zero in row-major order."""
    from htlab.higgs import _first_nonzero

    p0, p1, p2 = descent_faces(strat)
    residual = p2 * p0 - p1
    ok = residual.is_zero()
    return {
        "ok": ok,
        "rank": strat.rank,
        "terms": len(strat.coeffs),
        "truncated": residual.truncated,
        "witness": None if ok else _first_nonzero(residual),
    }


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
