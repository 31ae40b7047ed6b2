"""Witt vectors with their Witt Frobenius, and unit factorization.

The carrier is W(F_{p^f}) with its Witt Frobenius phi.  teichmuller_factorize,
which lab factorize reports, splits a unit x as its Teichmuller lift times
a convergent product of (1 + p ...) factors, read off phi(x) = x^p (1 + p y).
The delta view, the series carrier W[u]/(u^M) and the checks of the delta
and delta_log axioms on them are test oracles (tests/oracles.py).

W/p^M is O_K/p^M at e = 1, with the same coordinates: a bare int when f = 1,
the f coordinates on 1, g, .., g^(f-1) otherwise.  So the digits of a Witt
vector are a numerator of the unramified config BaseConfig(p, [-p], f, N),
and every operation on them is one of its kernels: linu, mulu, unit_inv.
That config is cfg itself when e = 1; otherwise it is built on first use."""

from dataclasses import dataclass, field

from .base import AtPrecision, BaseConfig, KElem, _pow
from .errors import HorizonTooSmall, NotAUnit, PrecisionExhausted


def _core(cfg):
    """The unramified config whose kernels carry the Witt vectors over cfg.

    It is kept on cfg as cfg._witt, where the operations of existing Witt
    vectors read it, together with its Frobenius table wc._frob.
    """
    wc = getattr(cfg, "_witt", None)
    if wc is None:
        wc = cfg if cfg.e == 1 else BaseConfig(cfg.p, [-cfg.p], cfg.f, cfg.N)
        cfg._witt, wc._frob = wc, None
    return wc


def _int_digits(wc, n, prec):
    """The digits of the integer n mod p^prec.  A Witt vector may hold more
    than N digits (scale_pk), which the scalar constructors cap."""
    n %= wc.p**prec if prec > 0 else 1
    return n if wc.n == 1 else (n,) + wc.zero_u[1:]


def _div_p(wc, w, prec):
    """w / p for digits w divisible by p, known mod p^prec; the quotient is known mod p^(prec-1)."""
    q = KElem(wc, w, 0, prec).div_int(wc.p)
    if q.shift:
        raise ValueError("not divisible by p")
    return q.u


def _combine(wc, a, images, M):
    """sum_i a_i images[i] mod M, a linear map given by the images of the basis g^i."""
    out = wc.zero_u
    for c, img in zip(a, images):
        out = wc.linu(out, img, 1, c, M)
    return out


def _frob_table(wc, prec):
    """table[k][i] = phi^k(g^i) to at least prec digits, for 0 < k < f.

    phi(g) is the root of the modulus congruent to g^p mod p, found by Newton
    iteration; phi is Z_p-linear with phi(g^i) = phi(g)^i.
    """
    P = max(wc.N, prec)
    if wc._frob is None or wc._frob[0] < P:
        p, f, one = wc.p, wc.f, wc.k_one().u
        m = wc.modpoly + (1,)
        dm = tuple(j * c for j, c in enumerate(m))[1:]

        def at(poly, x, M):
            acc = wc.zero_u
            for c in reversed(poly):
                acc = wc.linu(wc.mulu(acc, x, M), one, 1, c, M)
            return acc

        r = _pow(wc, wc.zero_u[:1] + (1,) + wc.zero_u[2:], p, p)
        k = 1
        while k < P:
            k = min(2 * k, P)
            M = p**k
            r = wc.linu(r, wc.mulu(at(m, r, M), wc.unit_inv(at(dm, r, M), k), M), 1, -1, M)
        M = p**P
        table = [None, [one]]
        for _ in range(f - 1):
            table[1].append(wc.mulu(table[1][-1], r, M))
        for _ in range(f - 2):
            table.append([_combine(wc, img, table[1], M) for img in table[-1]])
        wc._frob = (P, table)
    return wc._frob[1]


def _frob(wc, w, k, prec):
    """phi^k on digits known mod p^prec."""
    k %= wc.f
    if not k:
        return w
    return _combine(wc, w, _frob_table(wc, prec)[k], wc.p**prec)


class WittElem(AtPrecision):
    """Element of W(F_{p^f}) mod p^prec plus a record of applied phi-twists.

    w holds the digits, reduced mod p^prec: a numerator of the unramified
    config of cfg (see the module docstring).
    """

    __slots__ = ("cfg", "w", "prec", "frob_power")

    def __init__(self, cfg, w, prec=None, frob_power=0):
        wc = _core(cfg)
        self.cfg = cfg
        self.prec = cfg.N if prec is None else prec
        self.w = wc.linu(w, w, 1, 0, cfg.p**self.prec) if self.prec > 0 else w
        self.frob_power = frob_power % cfg.f

    def _lin(self, other, s, t, prec):
        cfg = self.cfg
        return WittElem(cfg, cfg._witt.linu(self.w, other.w, s, t, cfg.p**prec), prec)

    def __add__(self, other):
        return self._lin(other, 1, 1, min(self.prec, other.prec))

    def __sub__(self, other):
        return self._lin(other, 1, -1, min(self.prec, other.prec))

    def __neg__(self):
        return self._lin(self, -1, 0, self.prec)

    def __mul__(self, other):
        cfg = self.cfg
        prec = min(self.prec, other.prec)
        return WittElem(cfg, cfg._witt.mulu(self.w, other.w, cfg.p**prec), prec)

    def pow(self, n):
        cfg = self.cfg
        return WittElem(cfg, _pow(cfg._witt, self.w, n, cfg.p**self.prec), self.prec)

    def smul(self, n):
        return self._lin(self, n, 0, self.prec)

    def scale_pk(self, k):
        """Exact multiplication by p^k (k >= 0); gains k digits."""
        if k == 0:
            return self
        return self._lin(self, self.cfg.p**k, 0, self.prec + k)

    def is_zero(self):
        if self.prec <= 0:
            raise PrecisionExhausted("no digits left")
        return self.w == self.cfg._witt.zero_u

    def val(self):
        """p-adic valuation; None when indistinguishable from 0 at prec digits."""
        if self.prec <= 0:
            return None
        return KElem(self.cfg._witt, self.w, 0, self.prec).val_pi()

    def is_unit(self):
        return self.val() == 0

    def inv(self):
        if self.val() != 0:
            raise NotAUnit("not a unit in W")
        cfg = self.cfg
        return WittElem(cfg, cfg._witt.unit_inv(self.w, self.prec), self.prec)

    def div_p_exact(self):
        if self.prec <= 1:
            raise PrecisionExhausted("division by p exhausts precision")
        return WittElem(self.cfg, _div_p(self.cfg._witt, self.w, self.prec), self.prec - 1)

    def __repr__(self):
        return f"WittElem({self.w}, prec={self.prec}, phi^{self.frob_power})"


def _one(cfg, prec):
    return WittElem(cfg, _int_digits(_core(cfg), 1, prec), prec)


def teichmuller(cfg, a, prec=None):
    """Teichmuller lift of a residue; fixed by x -> x^(p^f)."""
    prec = cfg.N if prec is None else prec
    if isinstance(a, WittElem):
        a = a.w
    wc = _core(cfg)
    M = cfg.p**prec
    x = wc.linu(a, a, 1, 0, M)
    q = cfg.p**cfg.f
    for _ in range(prec + 1):
        y = _pow(wc, x, q, M)
        if y == x:
            break
        x = y
    return WittElem(cfg, x, prec)


def frobenius(x, k=1):
    """phi^k on W(F_{p^f}); k may be negative (phi^{-1} = phi^{f-1})."""
    cfg = x.cfg
    return WittElem(cfg, _frob(cfg._witt, x.w, k, x.prec), x.prec, x.frob_power + k)


@dataclass
class FactorizationCertificate:
    """Witness data for x = [a] * prod_{i=1..M} (1 + p phi^{-i}(y))^(p^(i-1))."""

    residue: object         # a = x mod p
    y: object               # (phi(x) x^{-p} - 1)/p
    horizon: int
    verified_prec: int
    cfg: object = field(repr=False)
    _factors: list = field(default=None, init=False, repr=False, compare=False)

    def factors(self):
        """The factors i = 1 .. min(M, prec - 1) of the product, computed once and kept.

        Factor i is known to prec = y.prec + 1 digits and is 1 mod p^i, so
        from i = prec on it is the one at that precision: those factors are
        left out, and neither the list nor recombine grows with M.
        """
        if self._factors is None:
            p, prec = self.cfg.p, self.y.prec + 1
            self._factors = []
            for i in range(1, min(self.horizon, prec - 1) + 1):
                yi = frobenius(self.y, -i)
                self._factors.append((_one(self.cfg, prec) + yi.scale_pk(1)).pow(p ** (i - 1)))
        return self._factors

    def recombine(self):
        acc = teichmuller(self.cfg, self.residue, self.verified_prec)
        for f in self.factors():
            acc = acc * f
        return acc


def teichmuller_factorize(x, horizon, target_prec=None):
    """Split a unit of W into Teichmuller times a convergent (1 + p ...) product.

    Every unit satisfies phi(x) = x^p (1 + p y) with y = (phi(x) x^{-p} - 1)/p;
    the truncated product is provably correct mod p^(horizon+1), so the attained
    precision is min(x.prec, horizon + 1).  The certificate keeps the factors
    it verified.
    """
    cfg = x.cfg
    if horizon < 0:
        raise HorizonTooSmall(f"horizon must be >= 0, got {horizon}")
    if not x.is_unit():
        raise NotAUnit("factorization needs a unit")
    attain = min(x.prec, horizon + 1)
    if target_prec is not None and target_prec > attain:
        raise HorizonTooSmall(
            f"requested precision {target_prec} exceeds attainable {attain}"
        )
    y = (frobenius(x) * x.pow(cfg.p).inv() - _one(cfg, x.prec)).div_p_exact()
    a = cfg._witt.linu(x.w, x.w, 1, 0, cfg.p)
    cert = FactorizationCertificate(a, y, horizon, attain, cfg)
    if not (cert.recombine() - x).is_zero():
        raise AssertionError("factorization identity failed; this is a bug")
    return a, cert
