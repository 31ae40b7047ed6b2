"""Coefficient base rings: a point, or a small semistable chart.

Point mode is the fast path: scalars are plain K elements and the factory
methods hand them straight back.  Chart mode models

    O_K<T_0, ..., T_r, T_{r+1}^{+-1}, ..., T_d^{+-1}> / (T_0 ... T_r - pi)

truncated at total degree Dy.  Monomials are exponent tuples of length d+1;
positions 0..r must stay nonnegative, the rest are Laurent.  The relation is
applied as a normal form: the minimum exponent over positions 0..r is
stripped off and absorbed into the coefficient as a power of pi, so every
stored monomial has min(e_0..e_r) = 0.  Products that leave the degree box
are dropped and flagged, never silently wrapped.

Both kinds of scalar speak the same protocol (arithmetic dunders, smul,
div_int, is_zero, storage_zero, droppable, integral, truncated) so
the pd rings, matrices, and t-series above never branch on the mode.
droppable is the sparse-drop rule: a stored zero may be forgotten only when
it still carries the ambient precision, otherwise dropping it would silently
sharpen later comparisons.

The constructor is the one place that normalizes a key: it checks each
key's shape, drops a droppable coefficient (before and after the power of
pi the relation brings), applies the relation and the box.  A coefficient
map keeps its keys, which are clean already, and runs only the droppable
filter.  Products and sums of products over a chart base take one
reduction per output key: BaseConfig.dot hands chart scalars to _dot, and
a product is its one-term case; _dot puts the sums that the relation or
the box acts on through the constructor.  Elements combine only over one
ring, or over rings eq_ring finds alike (configs of one p, E, f and N, and
one mode, d, r and Dy); sums and _dot raise BadIndex otherwise.
"""

from itertools import repeat

from .base import int_from_json
from .errors import BadIndex
from .sparse import Sparse, same_ring


class ChartRing:
    __slots__ = ("cfg", "mode", "d", "r", "Dy", "origin", "_zero", "faces")

    def __init__(self, cfg, mode="point", d=0, r=0, Dy=None):
        if mode not in ("point", "chart"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "chart":
            if not (0 <= r <= d):
                raise BadIndex("need 0 <= r <= d")
            if Dy is None:
                Dy = cfg.cutoffs.Dy
        self.cfg = cfg
        self.mode = mode
        self.d = d if mode == "chart" else 0
        self.r = r if mode == "chart" else 0
        self.Dy = Dy if mode == "chart" else None
        # the key (0, ..., 0) of the constants
        self.origin = (0,) * (self.d + 1)
        # elements are immutable, so one shared zero serves, and the identity
        # shortcuts of higgs fire on it
        self._zero = cfg.k_zero() if mode == "point" else ChartElem(self, {})
        # the twisted face contexts of the pd rings over this base
        # (pdring.face_context): tables of a ring and a twist, no module data
        self.faces = {}

    @property
    def is_point(self):
        return self.mode == "point"

    def zero(self):
        return self._zero

    def one(self):
        return self.from_k(self.cfg.k_one())

    def from_int(self, n):
        return self.from_k(self.cfg.k_from_int(n))

    def from_k(self, x):
        if self.is_point:
            return x
        return self._zero._new({self.origin: x}, False)

    def var(self, i, power=1):
        """T_i^power as an element; Laurent powers only past position r."""
        if self.is_point:
            raise BadIndex("point base has no chart variables")
        if not (0 <= i <= self.d):
            raise BadIndex(f"variable index {i} out of range")
        exps = [0] * (self.d + 1)
        exps[i] = power
        return self.monomial(tuple(exps))

    def monomial(self, exps, coeff=None):
        if self.is_point:
            raise BadIndex("point base has no chart variables")
        if coeff is None:
            coeff = self.cfg.k_one()
        return ChartElem(self, {tuple(exps): coeff})

    def eq_ring(self, other):
        """Whether elements of self and other combine: configs of one p, E, f
        and N, which is all a scalar reads of its config, and one mode, d, r
        and Dy."""
        c1, c2 = self.cfg, other.cfg
        return (
            (c1 is c2 or (c1.p, c1.E_coeffs, c1.f, c1.N) == (c2.p, c2.E_coeffs, c2.f, c2.N))
            and self.mode == other.mode
            and self.d == other.d
            and self.r == other.r
            and self.Dy == other.Dy
        )

    def to_json(self):
        if self.is_point:
            return {"mode": "point"}
        return {"mode": "chart", "d": str(self.d), "r": str(self.r)}

    @classmethod
    def from_json(cls, cfg, data):
        mode = data["mode"]
        if mode == "point":
            return cls(cfg, "point")
        return cls(cfg, "chart", d=int_from_json(data["d"]), r=int_from_json(data["r"]))

    def __repr__(self):
        if self.is_point:
            return "ChartRing(point)"
        return f"ChartRing(chart d={self.d} r={self.r} Dy={self.Dy})"


def _normal(exps, r):
    """(m, key): the relation T_0 ... T_r = pi applied to exps, m = min(e_0..e_r)
    being the power of pi it strips off, and key the exponents left."""
    m = min(exps[: r + 1])
    if m:
        exps = tuple([e - m for e in exps[: r + 1]]) + exps[r + 1 :]
    return m, exps


def _dot(xs, ys, ms=None):
    """The stored form of x0 y0 m0 + x1 y1 m1 + ... over chart scalars, a term
    x y m being (x * y).smul(m): one reduction per output key.

    Each output key gathers the least term precision, the top shift and the
    (u_x, u_y, m) terms of its pairs, as BaseConfig.dot does for K scalars,
    and is reduced once by BaseConfig.reduce_terms.  A pair with an origin
    factor keeps the other factor's stored key.  A pair whose key the
    relation or the box acts on is summed first with the pairs of its term
    that share its raw key, and the term's raw sums go through the
    constructor, ChartElem(ring, {raw key: sum}), which applies the relation
    and the box; each coefficient it keeps enters its key's sum as one
    term, with the term's multiplier, and its flag joins the result's.
    Where two raw keys of a term normalize alike, the constructor adds them
    first: by the stored form lemma of htlab.base a chain's stored form
    depends only on its value mod p^A and on A, so that is the chain's
    form too.  So no product is regrouped, and every sum has the stored
    form of the chain that forms each x y, applies smul and adds them left
    to right.  Keys are in the order they are first met; the chain's order
    differs only where a partial sum is droppable.  Every factor must be
    over the ring of xs[0], or one eq_ring finds alike; else BadIndex.
    """
    x0 = xs[0]
    ring = x0.ring
    origin = ring.origin
    if len(xs) == 1 and len(x0.coeffs) == 1 == len(ys[0].coeffs):
        # a lone pair with an origin factor is one K product at the other key
        y = ys[0]
        same_ring(ring, y.ring)
        ((e1, c1),) = x0.coeffs.items()
        ((e2, c2),) = y.coeffs.items()
        if e1 == origin or e2 == origin:
            c = c1 * c2 if ms is None or ms[0] == 1 else (c1 * c2).smul(ms[0])
            out = {} if c.droppable() else {e2 if e1 == origin else e1: c}
            return x0._adopt(out, x0.truncated or y.truncated)
    cfg = ring.cfg
    zero, reduce = cfg.zero_u, cfg.reduce_terms
    r, Dy = ring.r, ring.Dy
    r1 = r + 1
    sums = {}
    # per term, the multiplier and {raw key: its sum} of the pairs that the
    # relation or the box acts on
    groups = []
    trunc = False
    for x, y, w in zip(xs, ys, repeat(1) if ms is None else ms):
        same_ring(ring, x.ring)
        same_ring(ring, y.ring)
        if x.truncated or y.truncated:
            trunc = True
        right = y.coeffs.items()
        raw = None
        for e1, c1 in x.coeffs.items():
            u1, s1, p1 = c1.u, c1.shift, c1.prec
            o1 = e1 == origin
            for e2, c2 in right:
                target, v = sums, w
                if o1:
                    key = e2
                elif e2 == origin:
                    key = e1
                else:
                    key = tuple([a + b for a, b in zip(e1, e2)])
                    if min(key[:r1]) or sum(map(abs, key)) > Dy:
                        if raw is None:
                            raw = {}
                            groups.append((w, raw))
                        if key not in raw:
                            # hold the place where the chain first meets the key
                            nkey = _normal(key, r)[1]
                            if nkey not in sums and sum(map(abs, nkey)) <= Dy:
                                sums[nkey] = [cfg.N, 0, [], []]
                        target, v = raw, 1
                s = s1 + c2.shift
                p2 = c2.prec
                a = (p1 if p1 < p2 else p2) - s
                acc = target.get(key)
                if acc is None:
                    target[key] = acc = [a, 0, [], []]
                elif a < acc[0]:
                    acc[0] = a
                u2 = c2.u
                if u1 != zero and u2 != zero:
                    acc[2].append((u1, u2, v))
                    acc[3].append(s)
                    if s > acc[1]:
                        acc[1] = s
    if groups:
        one = cfg.k_one().u
        for w, raw in groups:
            # the constructor normalizes the term's raw sums, and each
            # coefficient it keeps joins its key's sum as one term
            part = ChartElem(ring, {key: reduce(*acc) for key, acc in raw.items()})
            if part.truncated:
                trunc = True
            for key, c in part.coeffs.items():
                acc = sums[key]
                s = c.shift
                if c.prec - s < acc[0]:
                    acc[0] = c.prec - s
                if c.u != zero:
                    acc[2].append((c.u, one, w))
                    acc[3].append(s)
                    if s > acc[1]:
                        acc[1] = s
    out = {}
    for key, acc in sums.items():
        c = reduce(*acc)
        if not c.droppable():
            out[key] = c
    return x0._adopt(out, trunc)


class ChartElem(Sparse):
    __slots__ = ("ring", "coeffs", "truncated")

    def __init__(self, ring, coeffs, truncated=False):
        norm = {}
        for exps, c in coeffs.items():
            if len(exps) != ring.d + 1:
                raise BadIndex("wrong monomial length")
            if min(exps[: ring.r + 1]) < 0:
                raise BadIndex("negative exponent in a non-Laurent position")
            if c.droppable():
                continue
            m, exps = _normal(exps, ring.r)
            if m:
                c = c * ring.cfg.pi_pow(m)
                if c.droppable():
                    continue
            if sum(abs(e) for e in exps) > ring.Dy:
                truncated = True
                continue
            if exps in norm:
                c = norm[exps] + c
                if c.droppable():
                    del norm[exps]
                    continue
            norm[exps] = c
        self.ring = ring
        self.coeffs = norm
        self.truncated = truncated

    # the dot kernel BaseConfig.dot runs on chart scalars
    _dot = staticmethod(_dot)

    def _new(self, coeffs, truncated):
        # the keys of a coefficient map are clean; only a coefficient can drop
        return self._adopt({k: c for k, c in coeffs.items() if not c.droppable()}, truncated)

    def _adopt(self, coeffs, truncated):
        x = ChartElem.__new__(ChartElem)
        x.ring = self.ring
        x.coeffs = coeffs
        x.truncated = truncated
        return x

    def __mul__(self, other):
        return _dot((self,), (other,))
    def droppable(self):
        # constructor already pruned droppable coefficients; a truncated
        # element has lost terms, and forgetting it would lose the flag
        return not self.coeffs and not self.truncated

    def coeff(self, exps):
        return self.coeffs.get(tuple(exps), self.ring.cfg.k_zero())

    def __repr__(self):
        parts = []
        for exps in sorted(self.coeffs):
            parts.append(f"{exps}:{self.coeffs[exps]!r}")
        flag = ", truncated" if self.truncated else ""
        return f"ChartElem({{{', '.join(parts)}}}{flag})"
