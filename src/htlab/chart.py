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
div_int, is_zero, storage_zero, droppable, min_val, integral, truncated) so
the pd rings, matrices, and t-series above never branch on the mode.
droppable is the sparse-drop rule: a stored zero may be forgotten only when
it still carries the ambient precision, otherwise dropping it would silently
sharpen later comparisons.
"""

from .base import int_from_json
from .errors import BadIndex
from .sparse import Sparse


class ChartRing:
    __slots__ = ("cfg", "mode", "d", "r", "Dy", "_zero")

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
        # elements are immutable, so one shared zero serves, and the identity
        # shortcuts of higgs fire on it
        self._zero = cfg.k_zero() if mode == "point" else ChartElem(self, {})

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
        return ChartElem(self, {(0,) * (self.d + 1): x})

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
        return (
            self.cfg is other.cfg
            and self.mode == other.mode
            and self.d == other.d
            and self.r == other.r
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


class ChartElem(Sparse):
    __slots__ = ("ring", "coeffs", "truncated")

    def __init__(self, ring, coeffs, truncated=False):
        norm = {}
        for exps, c in coeffs.items():
            if c.droppable():
                continue
            if len(exps) != ring.d + 1:
                raise BadIndex("wrong monomial length")
            m = min(exps[: ring.r + 1])
            if m < 0:
                raise BadIndex("negative exponent in a non-Laurent position")
            if m > 0:
                # apply T_0 ... T_r = pi
                exps = tuple(e - m if i <= ring.r else e for i, e in enumerate(exps))
                pim = ring.cfg.pi
                for _ in range(m - 1):
                    pim = pim * ring.cfg.pi
                c = c * pim
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

    def _new(self, coeffs, truncated):
        return ChartElem(self.ring, coeffs, truncated)

    def _adopt(self, coeffs, truncated):
        x = ChartElem.__new__(ChartElem)
        x.ring = self.ring
        x.coeffs = coeffs
        x.truncated = truncated
        return x

    def __mul__(self, other):
        out = {}
        trunc = self.truncated or other.truncated
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if exps in out:
                    out[exps] = out[exps] + c
                else:
                    out[exps] = c
        return ChartElem(self.ring, out, trunc)

    def droppable(self):
        # constructor already pruned droppable coefficients; a truncated
        # element has lost terms, and forgetting it would lose the flag
        return not self.coeffs and not self.truncated

    def min_val(self):
        best = None
        for c in self.coeffs.values():
            v = c.val_pi()
            if v is not None and (best is None or v < best):
                best = v
        return best

    def coeff(self, exps):
        return self.coeffs.get(tuple(exps), self.ring.cfg.k_zero())

    def __repr__(self):
        parts = []
        for exps in sorted(self.coeffs):
            parts.append(f"{exps}:{self.coeffs[exps]!r}")
        flag = ", truncated" if self.truncated else ""
        return f"ChartElem({{{', '.join(parts)}}}{flag})"
