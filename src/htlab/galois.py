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
sigma_t and galois_act_all take alpha itself.  The action is not assumed:
the evaluation/face compatibility oracle in the cosimplicial module
certifies it.

series_dot is the one t-slot kernel: a t-series product, the substitution
t -> sigma(t) (subs_t_all) and each cell of the group law's right side
(sen.verify_cocycle_law) form every slot as one dot over its pairs.
"""

from .sparse import Sparse


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


class FormalCElem(Sparse):
    """Polynomial in t of degree < T with coefficients in the base ring."""

    __slots__ = ("base", "T", "coeffs")

    def __init__(self, base, T, coeffs=None, reduce=True):
        self.base = base
        self.T = T
        if coeffs is None:
            coeffs = {}
        if reduce:
            coeffs = {k: v for k, v in coeffs.items() if k < T and not v.droppable()}
        self.coeffs = coeffs

    @classmethod
    def scalar(cls, base, T, s):
        return cls(base, T, {0: s})

    def _new(self, coeffs, truncated):
        return FormalCElem(self.base, self.T, coeffs)

    def _adopt(self, coeffs, truncated):
        return FormalCElem(self.base, self.T, coeffs, reduce=False)

    def _flag(self, other=None):
        # the flag is derived from the coefficients (see truncated), so no
        # operation reads it off its operands
        return False

    def __mul__(self, other):
        coeffs = series_dot([self.coeffs.items()], [other.coeffs.items()], self.T, self.base.cfg.dot)
        return FormalCElem(self.base, self.T, coeffs, reduce=False)

    def droppable(self):
        return not self.coeffs

    @property
    def truncated(self):
        return any(v.truncated for v in self.coeffs.values())

    def coeff(self, k):
        if k in self.coeffs:
            return self.coeffs[k]
        return self.base.zero()

    def __repr__(self):
        return f"FormalCElem({self.coeffs}, T={self.T})"


class FormalRing:
    """Ring handle for matrices whose entries are truncated t-series."""

    __slots__ = ("base", "T")

    def __init__(self, base, T):
        self.base = base
        self.T = T

    @property
    def cfg(self):
        return self.base.cfg

    def zero(self):
        return FormalCElem(self.base, self.T)

    def one(self):
        return FormalCElem.scalar(self.base, self.T, self.base.one())

    def from_k(self, x):
        return FormalCElem.scalar(self.base, self.T, self.base.from_k(x))

    def __repr__(self):
        return f"FormalRing({self.base!r}, T={self.T})"


def sigma_t(base, s, T=None, alpha=None):
    """sigma(t) = chi t (1 - alpha c t)^{-1} expanded to order T.

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
        coeffs[k] = base.from_k(power)
        power = power * ac
    return FormalCElem(base, T, coeffs)


def series_dot(row, col, T, dot):
    """{k: slot}: the t^k slots below T of sum_l row[l] * col[l] that are not droppable.

    row[l] and col[l] hold the (t-degree, coefficient) pairs of two series,
    as lists or dict items views.  Slot k is one dot over the products x * y
    with a + b = k, x the t^a coefficient of row[l] and y the t^b coefficient
    of col[l], taken in (l, a, b) order: the stored form of the chain that
    sums them in that order.
    """
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


def subs_t_all(xs, t_img):
    """Substitute t -> t_img in each series of xs, which share one base and T.

    The powers of t_img are built once for all of xs, up to the highest
    degree present.  Slot j of a result is one dot (series_dot) over the
    terms v * x_k, v the t^j coefficient of t_img^k, in increasing k: the
    stored form of the chain that drops each droppable term and partial sum,
    as no scalar holds more than N digits (htlab.base), so a dropped zero,
    at A = N, never lowers the chain's A.
    """
    if 0 in t_img.coeffs:
        raise ValueError("substitution target must have positive t-order")
    if not xs:
        return []
    base, T = xs[0].base, xs[0].T
    top = max((k for x in xs for k in x.coeffs), default=0)
    powers = [FormalCElem.scalar(base, T, base.one())]
    for _ in range(top):
        powers.append(powers[-1] * t_img)
    dot = base.cfg.dot
    out = []
    for x in xs:
        ks = sorted(x.coeffs)
        row = [powers[k].coeffs.items() for k in ks]
        col = [[(0, x.coeffs[k])] for k in ks]
        out.append(FormalCElem(base, T, series_dot(row, col, T, dot), reduce=False))
    return out


def galois_act_all(s, xs, alpha=None):
    """Apply sigma to each t-series of xs, sharing sigma(t) and its powers."""
    if (s.c == 0 and s.chi == 1) or not xs:
        return list(xs)
    return subs_t_all(xs, sigma_t(xs[0].base, s, T=xs[0].T, alpha=alpha))
