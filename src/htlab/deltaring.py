"""Delta-ring structure, delta_log validators, and unit factorization.

Two concrete carriers are supported:

  * W(F_{p^f}) with its Witt Frobenius, and
  * the truncated series ring W(F_{p^f})[u]/(u^M) with phi(u) = u^p.

delta(x) = (phi(x) - x^p)/p is exact division and loses exactly one digit.
"""

import itertools
from dataclasses import dataclass, field

from .base import WittElem, frobenius, teichmuller
from .errors import AxiomViolation, HorizonTooSmall, NotAUnit, PrecisionExhausted


class USeries:
    """Element of W[u]/(u^M), coefficients mod p^prec, phi(u) = u^p."""

    __slots__ = ("cfg", "coeffs", "prec", "M")

    def __init__(self, cfg, coeffs, prec, M, reduce=True):
        self.cfg = cfg
        self.prec = prec
        self.M = M
        if reduce:
            mod = cfg.p**prec if prec > 0 else 1
            coeffs = {
                i: cfg.w.red(c, mod)
                for i, c in coeffs.items()
                if i < M and not cfg.w.is_zero(c, mod)
            }
        self.coeffs = coeffs

    @classmethod
    def from_int(cls, cfg, n, M, prec=None):
        prec = cfg.N if prec is None else prec
        return cls(cfg, {0: cfg.w.from_int(n, cfg.p**prec)}, prec, M)

    @classmethod
    def u(cls, cfg, M, prec=None):
        prec = cfg.N if prec is None else prec
        return cls(cfg, {1: cfg.w.from_int(1, cfg.p**prec)}, prec, M)

    def _zip(self, other, op):
        cfg = self.cfg
        prec = min(self.prec, other.prec)
        mod = cfg.p**prec
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            cur = out.get(i, cfg.w.zero())
            out[i] = getattr(cfg.w, op)(cur, c, mod)
        return USeries(cfg, out, prec, self.M)

    def __add__(self, other):
        return self._zip(other, "add")

    def __sub__(self, other):
        return self._zip(other, "sub")

    def __neg__(self):
        mod = self.cfg.p**self.prec
        return USeries(self.cfg, {i: self.cfg.w.neg(c, mod) for i, c in self.coeffs.items()}, self.prec, self.M)

    def __mul__(self, other):
        cfg = self.cfg
        prec = min(self.prec, other.prec)
        mod = cfg.p**prec
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                if i + j >= self.M:
                    continue
                prod = cfg.w.mul(a, b, mod)
                k = i + j
                out[k] = cfg.w.add(out.get(k, cfg.w.zero()), prod, mod) if k in out else prod
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
        cfg = self.cfg
        prec = self.prec + k
        mod = cfg.p**prec
        pk = cfg.p**k
        return USeries(cfg, {i: cfg.w.smul(pk, c, mod) for i, c in self.coeffs.items()}, prec, self.M, reduce=False)

    def smul(self, n):
        mod = self.cfg.p**self.prec
        return USeries(self.cfg, {i: self.cfg.w.smul(n, c, mod) for i, c in self.coeffs.items()}, self.prec, self.M)

    def div_p_exact(self):
        if self.prec <= 1:
            raise PrecisionExhausted("division by p exhausts precision")
        cfg = self.cfg
        mod = cfg.p ** (self.prec - 1)
        return USeries(cfg, {i: cfg.w.div_p_exact(c, mod) for i, c in self.coeffs.items()}, self.prec - 1, self.M)

    def phi(self):
        cfg = self.cfg
        mod = cfg.p**self.prec
        out = {}
        for i, c in self.coeffs.items():
            if i * cfg.p < self.M:
                out[i * cfg.p] = cfg.w.frob(c, 1, self.prec)
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
            return WittElem(self.cfg, self.cfg.w.from_int(1, self.cfg.p**prec), prec)
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


@dataclass
class FactorizationCertificate:
    """Witness data for x = [a] * prod_{i=1..M} (1 + p phi^{-i}(y))^(p^(i-1))."""

    residue: object         # a = x mod p
    y: object               # (phi(x) x^{-p} - 1)/p
    horizon: int
    verified_prec: int
    cfg: object = field(repr=False)

    def factors(self):
        out = []
        for i in range(1, self.horizon + 1):
            yi = frobenius(self.y, -i)
            one = WittElem(self.cfg, self.cfg.w.one(), yi.prec + 1)
            out.append((one + yi.scale_pk(1)).pow(self.cfg.p ** (i - 1)))
        return out

    def recombine(self):
        acc = teichmuller(self.cfg, self.residue, self.verified_prec)
        for f in self.factors():
            acc = acc * f
        return acc


def teichmuller_factorize(x, horizon, target_prec=None):
    """Split a unit of W into Teichmuller times a convergent (1 + p ...) product.

    Every unit satisfies phi(x) = x^p (1 + p y) with y = (phi(x) x^{-p} - 1)/p;
    the truncated product is provably correct mod p^(horizon+1), so the attained
    precision is min(x.prec, horizon + 1).
    """
    cfg = x.cfg
    if not x.is_unit():
        raise NotAUnit("factorization needs a unit")
    attain = min(x.prec, horizon + 1)
    if target_prec is not None and target_prec > attain:
        raise HorizonTooSmall(
            f"requested precision {target_prec} exceeds attainable {attain}"
        )
    y = (frobenius(x) * x.pow(cfg.p).inv() - WittElem(cfg, cfg.w.one(), x.prec)).div_p_exact()
    a = cfg.w.red(x.w, cfg.p)
    cert = FactorizationCertificate(a, y, horizon, attain, cfg)
    rebuilt = cert.recombine()
    diff = rebuilt - x
    mod = cfg.p**attain
    if not cfg.w.is_zero(cfg.w.red(diff.w, mod), mod):
        raise AssertionError("factorization identity failed; this is a bug")
    return a, cert
