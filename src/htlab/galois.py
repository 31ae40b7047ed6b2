"""Group elements of Gamma and truncated series in the period scalar t.

A group element sigma = gamma^n g is stored as (n, c, chi): the vector of
geometric exponents, the cocycle scalar c(g), and the cyclotomic unit chi(g).
The semidirect law is (n, c, chi) (m, c', chi') = (n + chi m, c + chi c',
chi chi').

t stands for the single period lambda (1 - zeta_p); the two factors never
appear separately.  Formally v(t) = 1/(p-1), but that is bookkeeping only:
coefficients do all the real valuation work.  The derived Galois action is

    sigma(t) = chi * t * (1 - alpha c t)^{-1},

extended coefficientwise (trivially on K and on chart variables), with alpha
the twist unit that also twists the 0th face map (higgs.twist_unit):
beta = pi E'(pi) in the log normalization, E'(pi) in the smooth one.
sigma_t and act_slots take alpha itself.  The action is not assumed: the
evaluation/face compatibility oracle in the cosimplicial module certifies
it.

A t-series is a {t-degree: coefficient} dict, and an r x r matrix of them
is its r^2 cells in row-major order.  series_dot is the one t-slot kernel:
a series product, a matrix product (series_matmul), the powers of a series
(series_powers) and the substitution t -> sigma(t) (subs_slots, act_slots)
form every slot as one sum over its pairs, gathered by one pair loop
(_gather_slots) that reads the scalar kind once per left coefficient.
Over K the loop keeps [A, top, terms, shifts] per slot, as pdring._gather
does per pd key, and each slot is reduced once by BaseConfig.reduce_terms;
over other scalars it keeps each slot's pairs, and each slot is one _dot
of the scalars' class (htlab.sparse), the routine BaseConfig.dot runs on
them.  series_dot_vanishes runs the same loop for an identity
left * right = minus, and first_residual for each cell of a matrix one:
each slot of the difference is one sum.  Over K it ends in a zero test of
the exact sum, with no scalar formed; over other scalars in
the _dot_vanishes of the scalars' class, which over pd scalars is
pdring.dot_vanishes, so no scalar is formed over K there either.  Every
t-series identity htlab certifies is one first_residual call: the group law
(sen.verify_cocycle_law), the period and the inverse Simpson crosscheck
(sen.period_kernel_rep, sen.crosscheck_inverse_simpson).  No routine here
imports pdring or takes a dot: each asks its scalars.
"""

from .base import KElem


class GroupElt:
    """(n, c, chi) with n a d-vector; parameters live in Z_p mod p^N."""

    __slots__ = ("cfg", "n", "c", "chi")

    def __init__(self, cfg, n, c, chi):
        M = cfg.p**cfg.N
        self.cfg = cfg
        self.n = tuple(x % M for x in n)
        self.c = c % M
        if chi % cfg.p == 0:
            raise ValueError("chi must be a unit")
        self.chi = chi % M

    @classmethod
    def identity(cls, cfg, d=0):
        return cls(cfg, (0,) * d, 0, 1)

    @property
    def d(self):
        return len(self.n)

    def __mul__(self, other):
        if self.d != other.d:
            raise ValueError("mismatched geometric dimensions")
        n = tuple(a + self.chi * b for a, b in zip(self.n, other.n))
        return GroupElt(self.cfg, n, self.c + self.chi * other.c, self.chi * other.chi)

    def inverse(self):
        M = self.cfg.p**self.cfg.N
        ci = pow(self.chi, -1, M)
        return GroupElt(self.cfg, tuple(-ci * x for x in self.n), -ci * self.c, ci)

    def is_identity(self):
        return all(x == 0 for x in self.n) and self.c == 0 and self.chi == 1

    def to_json(self):
        return {"n": [str(x) for x in self.n], "c": str(self.c), "chi": str(self.chi)}

    def __eq__(self, other):
        if not isinstance(other, GroupElt):
            return NotImplemented
        return self.n == other.n and self.c == other.c and self.chi == other.chi

    def __hash__(self):
        return hash((self.n, self.c, self.chi))

    def __repr__(self):
        return f"GroupElt(n={self.n}, c={self.c}, chi={self.chi})"


def sigma_t(base, s, T=None, alpha=None):
    """{k: coefficient} of sigma(t) = chi t (1 - alpha c t)^{-1} below T,
    over base, droppable coefficients left out.

    alpha is the twist unit of the 0th face map; it defaults to
    beta = pi E'(pi), the twist of the logarithmic normalization.
    """
    cfg = s.cfg
    T = cfg.cutoffs.T if T is None else T
    if alpha is None:
        alpha = cfg.beta
    ac = alpha.smul(s.c)
    coeffs = {}
    power = cfg.k_from_int(s.chi)
    for k in range(1, T):
        if not power.droppable():
            coeffs[k] = base.from_k(power)
        power = power * ac
    return coeffs


def _first_scalar(row):
    """The first coefficient of the series of row, None if they are all empty."""
    for xs in row:
        for _, x in xs:
            return x
    return None


def _gather_slots(sums, row, col, T, zero, m):
    """Add the pairs of m * sum_l row[l] * col[l] below T to sums, in
    (l, a, b) order.

    zero is the zero numerator of K scalars, None over other scalars; a
    slot is entered where its first pair is met, whatever its numerators.
    Over K, as pdring._gather does per pd key, sums is {k: [A, top, terms,
    shifts]}: per slot, A is the least term precision, top the top shift,
    and terms and shifts the (u_x, u_y, m) and shift of each pair with two
    nonzero numerators, in the order met.  Over other scalars it is
    {k: (xs, ys, ms)}, the pairs' scalars and multipliers in the order met.
    """
    for xs, ys in zip(row, col):
        if not ys:
            continue
        for a, x in xs:
            if zero is None:
                for b, y in ys:
                    k = a + b
                    if k >= T:
                        continue
                    acc = sums.get(k)
                    if acc is None:
                        sums[k] = acc = ([], [], [])
                    acc[0].append(x)
                    acc[1].append(y)
                    acc[2].append(m)
                continue
            u1, s1, p1 = x.u, x.shift, x.prec
            if u1 == zero:
                u1 = None
            for b, y in ys:
                k = a + b
                if k >= T:
                    continue
                s = s1 + y.shift
                p2 = y.prec
                A = (p1 if p1 < p2 else p2) - s
                acc = sums.get(k)
                if acc is None:
                    sums[k] = acc = [A, 0, [], []]
                elif A < acc[0]:
                    acc[0] = A
                if u1 is not None and y.u != zero:
                    acc[2].append((u1, y.u, m))
                    acc[3].append(s)
                    if s > acc[1]:
                        acc[1] = s


def series_dot(row, col, T):
    """{k: slot}: the t^k slots below T of sum_l row[l] * col[l] that are not droppable.

    row[l] and col[l] hold the (t-degree, coefficient) pairs of two series,
    as lists or dict items views.  Slot k is one sum over the products
    x * y with a + b = k, x the t^a coefficient of row[l] and y the t^b
    coefficient of col[l], taken in (l, a, b) order: the stored form of the
    chain that sums them in that order.  The pair loop (_gather_slots)
    gathers every slot, and each slot ends in one reduction: over K in
    BaseConfig.reduce_terms, as BaseConfig.dot would, over other scalars in
    the _dot of the first scalar's class, the routine BaseConfig.dot runs
    on them.  Slots come in the order their first pair is met.
    """
    x0 = _first_scalar(row)
    if x0 is None:
        return {}
    if type(x0) is KElem:
        zero, reduce = x0.cfg.zero_u, x0.cfg.reduce_terms
    else:
        zero, reduce = None, x0._dot
    sums = {}
    _gather_slots(sums, row, col, T, zero, 1)
    out = {}
    for k, acc in sums.items():
        v = reduce(*acc)
        if not v.droppable():
            out[k] = v
    return out


def series_dot_vanishes(row, col, minus, T, one):
    """Whether every slot below T of sum_l row[l] * col[l] - minus is zero.

    row and col are as in series_dot, minus a {t-degree: coefficient} dict
    with degrees below T and one the one of the coefficients' ring.  Slot k
    is one sum: the pairs of series_dot's slot k in (l, a, b) order, then
    minus[k] as the term minus[k] * one * (-1).  That sum is the chain rhs + (minus[k] * 1).smul(-1) with rhs series_dot's
    slot, and by the stored form lemma (htlab.base; chart._dot keeps it per
    chart key) its zero test is that of minus[k] - rhs, the rule of a
    difference (htlab.sparse), whenever minus[k] * 1 stores as minus[k],
    that is whenever minus[k] claims at most N numerator digits, as no
    stored scalar does.  Both sides go through series_dot's pair loop.
    Over K each slot ends in a zero test of the one exact sum mod
    p^(A + top) (BaseConfig.terms_vanish), with no scalar formed; over
    other scalars each slot is one sum with multipliers, tested by the
    _dot_vanishes of one's class (htlab.sparse): over pd scalars
    pdring.dot_vanishes, which forms no scalar over K either.
    """
    zero = one.cfg.zero_u if type(one) is KElem else None
    sums = {}
    _gather_slots(sums, row, col, T, zero, 1)
    _gather_slots(sums, [minus.items()], [((0, one),)], T, zero, -1)
    if zero is None:
        return all(one._dot_vanishes(*acc)[0] for acc in sums.values())
    vanish = one.cfg.terms_vanish
    return all(vanish(*acc) for acc in sums.values())


def series_matmul(left, right, r, T):
    """left * right for two r x r matrices of t-series, each given as its r^2
    {t-degree: coefficient} cells in row-major order: cell (i, j) is
    series_dot of row i of left against column j of right."""
    out = []
    for i in range(r):
        row = [cell.items() for cell in left[i * r : (i + 1) * r]]
        out.extend(series_dot(row, [cell.items() for cell in right[j::r]], T) for j in range(r))
    return out


def first_residual(left, right, minus, r, T, one):
    """The first cell (i, j), in row-major order, of left * right - minus
    with a slot below T that is not zero, or None.

    left, right and minus are r x r matrices of t-series as in
    series_matmul, one as in series_dot_vanishes, which tests each
    cell: every slot of it is one sum, and no later cell is formed.  Its
    zero test is the rule of a difference (htlab.sparse) between minus and
    the cell series_matmul would form, whenever each slot of minus claims
    at most N numerator digits.
    """
    for i in range(r):
        row = [cell.items() for cell in left[i * r : (i + 1) * r]]
        for j in range(r):
            col = [cell.items() for cell in right[j::r]]
            if not series_dot_vanishes(row, col, minus[i * r + j], T, one):
                return (i, j)
    return None


def series_powers(img, top, one, T):
    """[img^0, .., img^top] below T, each a {t-degree: coefficient} dict:
    {0: one}, then one series product (series_dot) with img per power.
    img is the {t-degree: coefficient} dict of a series and one the one of
    its coefficients' ring."""
    img = img.items()
    powers = [{0: one}]
    for _ in range(top):
        powers.append(series_dot([powers[-1].items()], [img], T))
    return powers


def subs_slots(cells, img, base, T):
    """Substitute t -> img in each {t-degree: coefficient} dict of cells.

    img is the {t-degree: coefficient} dict of a series of positive t-order
    over base, the coefficients' ring.  The powers of img are built once
    for all of cells, up to the highest degree present (series_powers).
    Slot j of a result is one sum (series_dot) over the terms v * x_k, v
    the t^j coefficient of img^k, in increasing k: the stored form of the
    chain that drops each droppable term and partial sum, as no scalar
    holds more than N digits (htlab.base), so a dropped zero, at A = N,
    never lowers the chain's A.
    """
    top = max((k for x in cells for k in x), default=0)
    powers = series_powers(img, top, base.one(), T)
    out = []
    for x in cells:
        ks = sorted(x)
        out.append(series_dot([powers[k].items() for k in ks], [[(0, x[k])] for k in ks], T))
    return out


def act_slots(s, cells, base, T, alpha=None):
    """sigma applied to each {t-degree: coefficient} dict of cells, over base:
    t -> sigma(t) by subs_slots, with sigma(t) twisted by the unit alpha.
    The identity on t (c = 0, chi = 1) hands cells back as they are."""
    if s.c == 0 and s.chi == 1:
        return list(cells)
    return subs_slots(cells, sigma_t(base, s, T, alpha), base, T)
