"""Exact truncated arithmetic for the base rings of the laboratory.

Everything downstream works over one of

    W = W(F_{p^f})            (unramified coefficients, Frobenius phi)
    O_K = W[u]/(E(u))         (monogenic Eisenstein extension, uniformizer pi)
    K = O_K[1/p]              (fraction field, elements p^{-shift} * unit)

at a declared absolute p-adic precision.  Elements carry their attained
precision with them; operations never report more digits than they actually
know.  Valuations are measured in pi-units, so v(pi) = 1 and v(p) = e.

A K element (KElem) is p^{-shift} times a numerator in O_K/p^prec, stored as
its coordinates on the Z/p^prec-basis pi^i g^j: plain ints, multiplied by
straight-line code compiled from the structure constants of BaseConfig (by
plain int arithmetic when e*f = 1).
W/p^M is O_K/p^M at e = 1, so the Witt vectors of the delta-ring side
(deltaring.WittElem) run on these same kernels, taken from the unramified
config BaseConfig(p, [-p], f, N).

No stored scalar claims more than A = N absolute digits, A = prec - shift.
k_from_int and k_from_coeffs cap the precision they are given at N (and
k_from_coeffs multiplies a negative shift out, so every stored shift is
>= 0), KElem.inv caps the digits an inverse gains, and every other
operation yields at most the least A of its inputs.

The stored form lemma.  Normalization cancels p until shift is 0, p no
longer divides u, or one digit is left, and a scalar with no digit
(prec <= 0) is stored as the one zero (0, 1 - A, 1).  So at every A <= N
the stored (u, shift, prec) depends only on the value mod p^A and on A; a
droppable zero is exactly (0, 0, N).  A chain of products and sums has the
least A of its terms, whatever the order of the sum, so BaseConfig.dot may
form the sum as one exact integer and reduce it once: it gets the chain's
stored form.
Regrouping products is not covered.  Containers skip droppable
intermediates, and a skipped zero pays nothing for a later denominator, so
(a b) c and a (b c) need not store alike.
"""

from dataclasses import dataclass
from itertools import product, repeat
from math import gcd
from textwrap import indent

from .errors import (
    NotAUnit,
    NotEisenstein,
    NotPrime,
    PrecisionExhausted,
)


def _is_prime(n):
    """Miller-Rabin to the first 13 prime bases: exact below 3.3 * 10^24, the
    least strong pseudoprime to all of them (Sorenson and Webster, Math.
    Comp. 86, 2017); ValueError past it."""
    if n >= 3317044064679887385961981:
        raise ValueError(f"{n} is out of the range of the primality test, below 3.3 * 10^24")
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for a in bases:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# The modulus of g, the generator of W(F_{p^f}) over Z_p: the lexicographically
# least monic lift of an irreducible polynomial over F_p, which makes the
# representation deterministic across runs.
# ---------------------------------------------------------------------------


def _poly_mulmod_p(a, b, modpoly, p):
    f = len(modpoly)
    c = [0] * (2 * f - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] = (c[i + j] + ai * bj) % p
    for m in range(2 * f - 2, f - 1, -1):
        w = c[m]
        if w:
            c[m] = 0
            for j in range(f):
                c[m - f + j] = (c[m - f + j] - w * modpoly[j]) % p
    return tuple(c[:f])


def _poly_powmod_p(a, n, modpoly, p):
    f = len(modpoly)
    r = (1,) + (0,) * (f - 1)
    while n:
        if n & 1:
            r = _poly_mulmod_p(r, a, modpoly, p)
        a = _poly_mulmod_p(a, a, modpoly, p)
        n >>= 1
    return r


def _irreducible_mod_p(modpoly, p):
    # f >= 2: x^(p^f) == x mod (p, m) and x^(p^(f/r)) != x for prime r | f.
    f = len(modpoly)
    x = (0, 1) + (0,) * (f - 2)
    y = _poly_powmod_p(x, p**f, modpoly, p)
    if y != x:
        return False
    for r in range(2, f + 1):
        if f % r == 0 and _is_prime(r):
            y = _poly_powmod_p(x, p ** (f // r), modpoly, p)
            if y == x:
                return False
    return True


def _find_modulus(p, f):
    """The first (c_0, .., c_{f-1}), c_0 running fastest, with x^f + sum c_i x^i irreducible mod p:
    (0,) at f = 1; at f > 1 a search over p^f candidates, so p^f <= 10^6 or ValueError."""
    if f == 1:
        return (0,)
    if p**f > 10**6:
        raise ValueError(f"residue field of {p}^{f} elements; f > 1 needs p^f <= 10^6")
    for c in product(range(p), repeat=f):
        if _irreducible_mod_p(c[::-1], p):
            return c[::-1]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def int_from_json(v):
    """An integer field: an int that is no bool, or a decimal string; else ValueError."""
    if type(v) is int or isinstance(v, str) and v.lstrip("+-").isdecimal():
        return int(v)
    raise ValueError(f"{v!r} is not an integer")


# Upper limits on a config, checked before any work: the precision N, the
# degree e * f of K over Q_p, and each cutoff.  They bound the cost of
# every command (README, "Limits").
MAX_N = 4096
MAX_EF = 64
MAX_CUTOFFS = {"D": 16, "T": 16, "Dy": 64, "n_max": 4096}


@dataclass(frozen=True)
class Cutoffs:
    D: int = 5       # divided-power total degree
    T: int = 6       # truncation order in the period variable t
    Dy: int = 4      # degree bound in chart / period polynomial variables
    n_max: int = 64  # horizon for convergence certificates

    def validate(self):
        if min(self.D, self.T, self.Dy, self.n_max) < 1:
            raise ValueError("all cutoffs must be >= 1")
        for name, top in MAX_CUTOFFS.items():
            if getattr(self, name) > top:
                raise ValueError(f"cutoff {name} = {getattr(self, name)} is above its limit {top}")


class BaseConfig:
    """Base prism data: p, Eisenstein E(u), residue degree f, precision N.

    E_coeffs lists the lower coefficients of E in ascending order, so
    E(u) = u^e + E_coeffs[e-1] u^(e-1) + ... + E_coeffs[0].  Eisenstein means
    every listed coefficient is divisible by p and the constant one is not
    divisible by p^2.

    O_K/p^k is a free Z/p^k-module of rank n = e*f on the basis pi^i g^j,
    numbered i*f + j.  Its multiplication is one table of integer structure
    constants, which folds in both pi^e = -p B and the modulus of g.
    """

    def __init__(self, p, E_coeffs, f=1, N=8, cutoffs=None):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        E_coeffs = tuple(int(c) for c in E_coeffs)
        e = len(E_coeffs)
        if e < 1:
            raise NotEisenstein("E must have positive degree")
        for c in E_coeffs:
            if c % p != 0:
                raise NotEisenstein(f"coefficient {c} not divisible by {p}")
        if E_coeffs[0] % (p * p) == 0:
            raise NotEisenstein("constant term divisible by p^2")
        if N < 2:
            raise ValueError("precision N must be >= 2")
        if N > MAX_N:
            raise ValueError(f"precision N = {N} is above its limit {MAX_N}")
        if f < 1:
            raise ValueError("residue degree f must be >= 1")
        if e * f > MAX_EF:
            raise ValueError(f"degree e * f = {e * f} is above its limit {MAX_EF}")
        self.p = p
        self.e = e
        self.E_coeffs = E_coeffs
        self.f = f
        self.n = e * f
        self.N = N
        self.cutoffs = cutoffs or Cutoffs()
        self.cutoffs.validate()
        self.modpoly = _find_modulus(p, f)
        self.zero_u = 0 if self.n == 1 else (0,) * self.n
        self.mulu, self.linu, self.dotu = _kernels(self.n, self._structure_constants())
        self._zero = KElem(self, self.zero_u, 0, N)
        # pi^e = -p * B with B = sum (E_coeffs[i]/p) pi^i; B is a unit.
        self.B_int_coeffs = tuple(c // p for c in E_coeffs)
        self.pi = self.k_from_coeffs([0, 1]) if e > 1 else self.k_from_int(-E_coeffs[0])
        # E'(pi) = e pi^(e-1) + sum_{i>=1} i E_coeffs[i] pi^(i-1); degree < e
        self.Ep = self.k_from_coeffs([i * E_coeffs[i] for i in range(1, e)] + [e])
        self.beta = self.pi * self.Ep
        self._pi_pows = [self.k_one()]
        self._pi_inv = None
        self._beta_inv = None
        self._neg_b_inv_pows = None

    def _structure_constants(self):
        """rows[a] lists (b, c, t): basis a times basis b has coordinate t at c."""

        def powers(low, top):
            # x^0 .. x^top reduced modulo the monic x^d + sum low[j] x^j, over Z
            d = len(low)
            vec = [1] + [0] * (d - 1)
            out = [vec]
            for _ in range(top):
                c = vec[-1]
                vec = [0] + vec[:-1]
                vec = [v - c * l for v, l in zip(vec, low)]
                out.append(vec)
            return out

        e, f = self.e, self.f
        pi_pow = powers(self.E_coeffs, 2 * e - 2)
        g_pow = powers(self.modpoly, 2 * f - 2)
        rows = []
        for i in range(e):
            for j in range(f):
                row = []
                for i2 in range(e):
                    for j2 in range(f):
                        for m, a in enumerate(pi_pow[i + i2]):
                            for l, b in enumerate(g_pow[j + j2]):
                                if a * b:
                                    row.append((i2 * f + j2, m * f + l, a * b))
                rows.append(row)
        return rows

    def unit_inv(self, u, prec):
        """Inverse of a unit numerator mod p^prec: Newton from the residue field."""
        p, f = self.p, self.f
        if not any(c % p for c in ((u,) if self.n == 1 else u[:f])):
            raise NotAUnit("O_K inversion requires valuation 0")
        M = p**prec
        if self.n == 1:
            return pow(u, -1, M)
        # u^(q-1) = 1 in the residue field F_q, so u^(q-2) inverts u mod pi
        z = _pow(self, u, p**f - 2, p)
        # each Newton step doubles the pi-adic agreement, which starts at 1
        two = (2,) + self.zero_u[1:]
        reach = 1
        while reach < self.e * prec:
            z = self.mulu(z, self.linu(two, self.mulu(u, z, M), 1, -1, M), M)
            reach *= 2
        return z

    def dot(self, xs, ys, ms=None):
        """The stored form of the chain x0 y0 m0 + x1 y1 m1 + ..., summed left to right.

        xs and ys are nonempty and of one length; the integers ms default to
        1, and a term x y m is (x * y).smul(m).  On K scalars the chain's
        result depends only on its value mod p^A and on A, the least
        absolute precision of its terms, so the terms are summed as one
        exact integer at the top shift S and reduced once: a term with a
        zero numerator costs its precision and nothing else.  Any other
        scalar's class supplies the routine, its _dot: chart scalars take
        one such reduction per chart key (htlab.chart), pd scalars one per
        pd key (htlab.pdring).
        """
        if len(xs) == 1:
            t = xs[0] * ys[0]
            return t if ms is None or ms[0] == 1 else t.smul(ms[0])
        if type(xs[0]) is not KElem:
            return xs[0]._dot(xs, ys, ms)
        if ms is None:
            ms = repeat(1)
        zero = self.zero_u
        A = None
        top = 0
        terms = []
        shifts = []
        for x, y, m in zip(xs, ys, ms):
            s = x.shift + y.shift
            px, py = x.prec, y.prec
            a = (px if px < py else py) - s
            if A is None or a < A:
                A = a
            if x.u != zero and y.u != zero:
                terms.append((x.u, y.u, m))
                shifts.append(s)
                if s > top:
                    top = s
        return self.reduce_terms(A, top, terms, shifts)

    def reduce_terms(self, A, top, terms, shifts):
        """The stored form of the chain whose least term precision is A.

        terms holds the (u_x, u_y, m) of the terms with two nonzero
        numerators, shifts the shift s_x + s_y of each, and top the largest
        of those shifts (0 when terms is empty).  The terms are summed as one
        exact integer at shift top and reduced once mod p^(A + top); when
        A + top < 1 no digit is left, and the chain is the zero of
        precision A.
        """
        if A + top < 1:
            return _no_digit(self, A)
        if not terms:
            return KElem(self, self.zero_u, 0, A)
        if not top:
            return KElem(self, self.dotu(terms, self.p**A), 0, A)
        p = self.p
        terms = [(a, b, m * p ** (top - s)) for (a, b, m), s in zip(terms, shifts)]
        return _norm(self, self.dotu(terms, p ** (A + top)), top, A + top)

    def terms_vanish(self, A, top, terms, shifts):
        """Whether reduce_terms(A, top, terms, shifts) is zero, with no scalar
        formed: no digit is left, or no term is, or the exact sum at shift top
        is 0 mod p^(A + top).  Cancelling p from a nonzero numerator leaves it
        nonzero, so this is the zero test of the reduced scalar."""
        if A + top < 1 or not terms:
            return True
        p = self.p
        if top:
            terms = [(a, b, m * p ** (top - s)) for (a, b, m), s in zip(terms, shifts)]
        return self.dotu(terms, p ** (A + top)) == self.zero_u

    # -- constructors -------------------------------------------------------

    def k_zero(self, prec=None):
        if prec is None:
            return self._zero  # scalars are immutable, so one shared zero serves
        return self.k_from_int(0, prec)

    def k_one(self, prec=None):
        return self.k_from_int(1, prec)

    def k_from_int(self, n, prec=None):
        """n known mod p^prec, prec capped at N."""
        prec = self.N if prec is None or prec > self.N else prec
        if prec < 1:
            return _no_digit(self, prec)
        n %= self.p**prec
        return KElem(self, n if self.n == 1 else (n,) + self.zero_u[1:], 0, prec)

    def k_from_coeffs(self, coeffs, prec=None, shift=0):
        """p^-shift * sum_i c_i pi^i, known mod p^prec before the shift.

        Each c_i is an int or, when f > 1, the f coordinates of a W element
        on 1, g, .., g^(f-1).  A negative shift is multiplied out (p^-shift c
        at prec - shift digits, the same A), and A = prec - shift is capped
        at N.
        """
        prec = self.N if prec is None else prec
        m = 1
        if shift < 0:
            m, prec, shift = self.p**-shift, prec - shift, 0
        if prec - shift > self.N:
            prec = self.N + shift
        M = self.p**prec if prec > 0 else 1
        f = self.f
        if len(coeffs) > self.e:
            raise ValueError("too many coefficients")
        flat = [0] * self.n
        for i, c in enumerate(coeffs):
            if isinstance(c, int):
                flat[i * f] = c * m % M
            elif f > 1 and len(c) == f:
                flat[i * f : (i + 1) * f] = [x * m % M for x in c]
            else:
                raise ValueError(f"a W coefficient needs {f} coordinates")
        return _norm(self, flat[0] if self.n == 1 else tuple(flat), shift, prec)

    # -- derived constants --------------------------------------------------

    def pi_pow(self, v):
        """pi^v for v >= 0, the chain one() * pi * .. * pi.

        one() * pi stores as pi, so this is also the chain pi * .. * pi.  The
        powers are kept in one list as it grows, scalars being immutable; the
        chart relation, the Smith pivots and the fixed-point rescale read it.
        """
        pows = self._pi_pows
        while len(pows) <= v:
            pows.append(pows[-1] * self.pi)
        return pows[v]

    def pi_inv(self):
        """1/pi as a K element: p^{-1} * (-pi^(e-1) * B^{-1})."""
        if self._pi_inv is None:
            B = self.k_from_coeffs(self.B_int_coeffs)
            top = self.k_from_coeffs([0] * (self.e - 1) + [1])
            num = -(top * B.inv())
            self._pi_inv = _norm(self, num.u, 1, num.prec)
        return self._pi_inv

    def beta_inv(self):
        if self._beta_inv is None:
            self._beta_inv = self.beta.inv()
        return self._beta_inv

    def neg_b_inv(self, k=1):
        """(-B)^{-k}; (-B)^{-1} is the unit with pi^e * (-B)^{-1} = p."""
        if self._neg_b_inv_pows is None:
            self._neg_b_inv_pows = [self.k_one(), (-self.k_from_coeffs(self.B_int_coeffs)).inv()]
        pows = self._neg_b_inv_pows
        while len(pows) <= k:
            pows.append(pows[-1] * pows[1])
        return pows[k]

    # -- serialization ------------------------------------------------------

    def to_json(self):
        c = self.cutoffs
        return {
            "p": str(self.p),
            "E_coeffs": [str(x) for x in self.E_coeffs],
            "f": str(self.f),
            "N": str(self.N),
            "cutoffs": {"D": str(c.D), "T": str(c.T), "Dy": str(c.Dy), "n_max": str(c.n_max)},
        }

    @classmethod
    def from_json(cls, d):
        """The config of a to_json block.  Every field goes through
        int_from_json, so a float, a boolean or a non-decimal string raises
        ValueError; an absent key takes Cutoffs' or __init__'s own default."""
        cut = d.get("cutoffs", {})
        cutoffs = Cutoffs(**{k: int_from_json(cut[k]) for k in ("D", "T", "Dy", "n_max") if k in cut})
        kw = {k: int_from_json(d[k]) for k in ("f", "N") if k in d}
        return cls(int_from_json(d["p"]), [int_from_json(x) for x in d["E_coeffs"]], cutoffs=cutoffs, **kw)

    def __repr__(self):
        return f"BaseConfig(p={self.p}, e={self.e}, f={self.f}, N={self.N})"


def make_base_config(p, E_coeffs, f=1, precision=8, cutoffs=None):
    return BaseConfig(p, E_coeffs, f=f, N=precision, cutoffs=cutoffs)


# ---------------------------------------------------------------------------
# K elements
# ---------------------------------------------------------------------------


def _mulu1(a, b, M):
    return a * b % M


def _linu1(a, b, s, t, M):
    return (s * a + t * b) % M


def _dotu1(terms, M):
    return sum([w * a * b for a, b, w in terms]) % M


# compiled kernels by (n, structure-constant table), shared by every config
# with that table in this process
_COMPILED = {}


def _kernels(n, table):
    """The kernels on the flat numerators.

    mulu(a, b, M) is the product a b mod M; linu(a, b, s, t, M) is s a + t b
    mod M; dotu(terms, M) is sum w a b mod M over the (a, b, w) of terms,
    accumulated unreduced and reduced once.  An element is a bare int when
    n = 1, where the kernels are plain int arithmetic, and an n-tuple
    otherwise, where they are straight-line code compiled from the table,
    once per table and process.
    """
    if n == 1:
        return _mulu1, _linu1, _dotu1
    key = (n, tuple(map(tuple, table)))
    kernels = _COMPILED.get(key)
    if kernels is None:
        kernels = _COMPILED[key] = _compile_kernels(n, table)
    return kernels


def _compile_kernels(n, table):
    terms = [[] for _ in range(n)]
    for i, row in enumerate(table):
        for j, k, t in row:
            terms[k].append(f"a{i} * b{j}" if t == 1 else f"{t} * a{i} * b{j}")
    unpack = "".join(f"{', '.join(f'{v}{i}' for i in range(n))} = {v}\n" for v in "ab")
    sums = [" + ".join(ts) for ts in terms]
    prod = ", ".join(f"({t}) % M" for t in sums)
    lin = ", ".join(f"(s * a{i} + t * b{i}) % M" for i in range(n))
    cs = [f"c{k}" for k in range(n)]
    acc = "".join(f"{c} += w * ({t})\n" for c, t in zip(cs, sums))
    src = f"def mulu(a, b, M):\n{indent(unpack, '    ')}    return ({prod},)\n"
    src += f"def linu(a, b, s, t, M):\n{indent(unpack, '    ')}    return ({lin},)\n"
    src += f"def dotu(terms, M):\n    {' = '.join(cs)} = 0\n    for a, b, w in terms:\n"
    src += indent(unpack + acc, "        ")
    src += f"    return ({', '.join(f'{c} % M' for c in cs)},)\n"
    scope = {}
    exec(src, scope)
    return scope["mulu"], scope["linu"], scope["dotu"]


def _pow(cfg, a, n, M):
    """a^n mod M for a numerator a of cfg: square and multiply on its mulu, from 1."""
    r = 1 if cfg.n == 1 else (1,) + cfg.zero_u[1:]
    while n:
        if n & 1:
            r = cfg.mulu(r, a, M)
        a = cfg.mulu(a, a, M)
        n >>= 1
    return r


def _no_digit(cfg, A):
    """The one stored form of a scalar with no digit: a zero of absolute precision A < 1."""
    return KElem(cfg, cfg.zero_u, 1 - A, 1)


def _norm(cfg, u, shift, prec):
    """p^-shift * u, shift >= 0, with p cancelled: p divides u only if shift = 0 or prec = 1; _no_digit if prec < 1."""
    if prec < 1:
        return _no_digit(cfg, prec - shift)
    top = shift if shift < prec else prec - 1
    k = 0
    if top > 0:
        p = cfg.p
        if cfg.n == 1:
            while k < top and not u % p:
                u //= p
                k += 1
        else:
            while k < top and not gcd(*u) % p:
                u = tuple([c // p for c in u])
                k += 1
    return KElem(cfg, u, shift - k, prec - k)


class AtPrecision:
    """Equality at precision, shared by the scalar and container classes.

    Two values are equal when their difference is zero at the precision it
    carries, so equality is no equivalence relation and such values are not
    hashable.  Only values of one type compare; GroupElt keeps its own exact,
    hashable equality.
    """

    __slots__ = ()

    def eq(self, other):
        return (self - other).is_zero()

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.eq(other)

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} compares at precision; not hashable")


class KElem(AtPrecision):
    """p^{-shift} * u with u in O_K known modulo p^prec.

    u holds the coordinates of the numerator on the basis pi^i g^j of
    BaseConfig, each in [0, p^prec): a bare int when e*f = 1, a tuple of
    e*f ints otherwise.  Normalized: prec >= 1, shift >= 0, and while
    shift > 0 and prec > 1, p does not divide u.  The absolute p-adic precision is
    A = prec - shift <= N; a scalar with no digit left is (0, 1 - A, 1).
    """

    __slots__ = ("cfg", "u", "shift", "prec")

    def __init__(self, cfg, u, shift, prec):
        self.cfg = cfg
        self.u = u
        self.shift = shift
        self.prec = prec

    @property
    def abs_prec(self):
        return self.prec - self.shift

    def coeffs(self):
        """The W coefficients of the numerator on 1, pi, .., pi^(e-1)."""
        cfg = self.cfg
        if cfg.n == 1:
            return (self.u,)
        if cfg.f == 1:
            return self.u
        f = cfg.f
        return tuple(self.u[i : i + f] for i in range(0, cfg.n, f))

    def _add(self, other, sign):
        # align both numerators at the larger shift: scaling by p^k is exact
        cfg = self.cfg
        p = cfg.p
        s1, s2 = self.shift, other.shift
        if s1 >= s2:
            shift, k1, k2 = s1, 1, p ** (s1 - s2)
        else:
            shift, k1, k2 = s2, p ** (s2 - s1), 1
        a1, a2 = self.prec - s1, other.prec - s2
        prec = (a1 if a1 < a2 else a2) + shift
        if prec < 1:
            return _no_digit(cfg, prec - shift)
        u = cfg.linu(self.u, other.u, k1, sign * k2, p**prec)
        if shift > 0 and prec > 1:
            return _norm(cfg, u, shift, prec)
        return KElem(cfg, u, shift, prec)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        cfg = self.cfg
        return KElem(cfg, cfg.linu(self.u, self.u, -1, 0, cfg.p**self.prec), self.shift, self.prec)

    def __mul__(self, other):
        cfg = self.cfg
        prec = self.prec if self.prec < other.prec else other.prec
        shift = self.shift + other.shift
        if prec < 1:
            return _no_digit(cfg, prec - shift)
        u = cfg.mulu(self.u, other.u, cfg.p**prec)
        if shift > 0 and prec > 1:
            return _norm(cfg, u, shift, prec)
        return KElem(cfg, u, shift, prec)

    def smul(self, n):
        cfg = self.cfg
        return _norm(cfg, cfg.linu(self.u, self.u, n, 0, cfg.p**self.prec), self.shift, self.prec)

    def div_int(self, n):
        """Divide by a nonzero integer; p-part raises the shift."""
        if n == 0:
            raise ZeroDivisionError
        cfg = self.cfg
        p = cfg.p
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        M = p**self.prec
        m = pow(abs(n), -1, M) if n not in (1, -1) else 1
        u = cfg.linu(self.u, self.u, m if n > 0 else -m, 0, M)
        return _norm(cfg, u, self.shift + k, self.prec)

    def div_pi_exact(self, v):
        """Divide by pi^v, for an element of valuation >= v.

        Whole blocks of e use pi^e = -p B, so they cost only a shift and a
        unit multiply; just the remainder v mod e pays one p-digit each.
        """
        if v <= 0:
            return self
        cfg = self.cfg
        k, r = divmod(v, cfg.e)
        out = self
        if k:
            m = cfg.neg_b_inv(k)
            out = out * KElem(cfg, m.u, k, m.prec)
        piv = cfg.pi_inv()
        for _ in range(r):
            out = out * piv
        return out

    def _val_u(self):
        """pi-adic valuation of the numerator; None if zero at this precision."""
        if self.prec <= 0:
            raise PrecisionExhausted("no digits left")
        cfg = self.cfg
        p = cfg.p
        best = None
        for a, c in enumerate((self.u,) if cfg.n == 1 else self.u):
            if c:
                v = 0
                while not c % p:
                    c //= p
                    v += 1
                v = cfg.e * v + a // cfg.f
                if best is None or v < best:
                    best = v
        return best

    def is_zero(self):
        if self.prec <= 0:
            raise PrecisionExhausted("no digits left")
        return self.u == self.cfg.zero_u

    def val_pi(self):
        v = self._val_u()
        if v is None:
            return None
        return v - self.cfg.e * self.shift

    def storage_zero(self):
        # all stored digits vanish; no precision semantics
        return self.u == self.cfg.zero_u

    def droppable(self):
        # sparse containers may forget this scalar: it is zero as stored and
        # carries at least the ambient precision, so nothing is lost
        return self.u == self.cfg.zero_u and self.prec - self.shift >= self.cfg.N

    def clamp_prec(self, prec):
        """Cap the absolute precision at prec p-digits."""
        if self.prec - self.shift <= prec:
            return self
        cfg = self.cfg
        prec += self.shift
        M = cfg.p**prec if prec > 0 else 1
        return _norm(cfg, cfg.linu(self.u, self.u, 1, 0, M), self.shift, prec)

    @property
    def truncated(self):
        return False

    def integral(self):
        """val >= 0 (zero-at-precision counts as integral)."""
        v = self.val_pi()
        return v is None or v >= 0

    def inv(self):
        cfg = self.cfg
        w = self._val_u()
        if w is None:
            raise NotAUnit("cannot invert something indistinguishable from 0")
        if self.shift > 0:
            # (p^-s u)^-1 = p^s u^-1 with u integral
            ui = KElem(cfg, self.u, 0, self.prec).inv()
            if ui.shift >= self.shift:
                return KElem(cfg, ui.u, ui.shift - self.shift, ui.prec)
            # p^k u^-1 is exact: u^-1 < p^prec, so it gains k digits, up to N
            k = self.shift - ui.shift
            prec = ui.prec + k if ui.prec + k < cfg.N else cfg.N
            return KElem(cfg, cfg.linu(ui.u, ui.u, cfg.p**k, 0, cfg.p**prec), 0, prec)
        if w == 0:
            return KElem(cfg, cfg.unit_inv(self.u, self.prec), 0, self.prec)
        # peel pi factors: x^-1 = (x pi^-w)^-1 * pi^-w
        piv = cfg.pi_inv()
        x = self
        acc = cfg.k_one(self.prec)
        for _ in range(w):
            x = x * piv
            acc = acc * piv
        return x.inv() * acc

    def __repr__(self):
        return f"KElem(p^-{self.shift} * {list(self.coeffs())}, prec={self.prec})"
