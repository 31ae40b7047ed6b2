"""Truncated divided-power rings underlying the cosimplicial nerve.

Three variants, one per site flavor:

  abs-arith   R{X_1..X_n}           arithmetic directions only
  abs-geom    R{X_1..X_n, Y_{k,j}}  arithmetic and geometric directions
  rel-geom    R{Y_{k,j}}            geometric directions only

with 1 <= j <= n (the cosimplicial degree) and 1 <= k <= d.  A basis monomial
is a product of divided powers v^[a]; multiplication uses
v^[a] v^[b] = C(a+b, a) v^[a+b].  Everything of pd-degree above the cutoff D
is dropped and flagged.  Because all structure maps only raise pd-degree, the
retained graded pieces stay exact, so identity checks below the cutoff are
meaningful even when the flag fires.

The degeneracy-0 face is twisted by a unit alpha, the twist unit of
higgs.twist_unit: beta = pi E'(pi) when the log structure carries the
boundary, E'(pi) in the smooth normalization.  FaceContext, face_map and
the two checks below take alpha itself (beta when omitted):

  d^0: X_j |-> (X_{j+1} - X_1) (1 - alpha X_1)^{-1}
       Y_{k,j} |-> (Y_{k,j+1} - Y_{k,1}) (1 - alpha X_1)^{-1}   (abs-geom)
       Y_{k,j} |-> Y_{k,j+1} - Y_{k,1}                          (rel-geom)
  d^i (i > 0): index shift j -> j+1 for j >= i.

evaluate_at_group sends a degree-n element to a t-series, a {t-degree:
coefficient} dict, by X_j |-> c(s_1..s_j) t and Y_{k,j} |-> n_k(s_1..s_j) t,
with v^[m] |-> v^m / m! in K.  It is the one evaluation at the group:
group_layout compiles, per layout key (T and which variables are 0), the
part of the evaluation that does not depend on the values, and
evaluate_layout runs it at the values.  sen.cocycle_matrix runs the same
two on a stratification, so U(sigma) is eps evaluated at sigma, and a
skipped K zero is charged by one rule: N - v_p of the denominator of its
monomial.  The face maps and this evaluation are tied together by
check_face_evaluation, which is the oracle certifying the twisted d^0
above against the group law, where s_1 moves t by
sigma(t) = chi t (1 - alpha c t)^{-1} with the same alpha.

A pd monomial is stored packed in one Python int.  The generators, numbered
g = 0, 1, ... in sorted (kind, k, j) order (X_j as (0, 0, j), Y_{k,j} as
(1, k, j)), each own a field of w = (2D).bit_length() bits at bit g*w that
holds their exponent, and the pd-degree sits in the field above all of them,
at bit ``shift`` = (number of generators) * w.  The constant monomial is 0.
A stored monomial has every exponent and its degree at most D, so the sum
of two of them overflows no field: the product monomial is k1 + k2, and the
binomial factor prod C(a + b, a) is computed only when the support masks of
the two keys meet.  The layout depends only on (variant, degree, d, D),
which eq_ring compares; elements of rings that differ there do not combine.
PdRing.encode and PdRing.decode translate to and from the readable form, a
sorted tuple of (variable, exponent) pairs; coeff, __repr__ and
evaluate_at_group take or show that form.

A product visits no pair above the cutoff.  Its right operand y is read
once into a _Right, kept on y (an element is immutable) and shared by every
product y enters as a right factor: per coefficient the key, support mask,
degree and scalar ((u or None, shift, absolute precision) over K, the
coefficient itself over a chart).  A left key of degree d meets only the
right keys of degree at most D - d, a filter of y's entries in y's order
that the _Right builds on first use per d, and the product is flagged when
a filter leaves a key out.  One pair loop, _gather, runs over the live
(k1, coefficient) pairs of the left operand against the filters of a
_Right: it caps, filters and masks each left key once, then runs the inner
loop of the scalar kind, which it reads once per left coefficient, forming
k1 + k2 and the binomial for each pair.  _sum_of_products sums any number
of such products: each output key is one sum over its pairs in the order
met, and every key ends in one reduction.  Over K scalars the loop keeps, per key,
the least term precision A, the top shift and the terms with two nonzero
numerators, and each key is reduced by BaseConfig.reduce_terms, the
routine BaseConfig.dot ends in, so it gets the stored form of the chain
(the stored form lemma of htlab.base).  Over chart scalars the loop keeps
each key's pairs in the order met, and each key is one dot over them,
which takes one reduction per chart key (htlab.chart).

PdElement._dot, the routine BaseConfig.dot runs over pd scalars, is one
_sum_of_products over its pairs whose factors both hold a key; a product
is its one-term case.  So Mat.__mul__ over pd elements forms each cell as
one sum per key over its (l, k1, k2) pairs, the stored form of the chain
that forms each product and adds them in l order, and each entry of the
right matrix meets every row of the left one through its one _Right.

dot_vanishes tests such a sum for zero without forming it over K: its
pairs are gathered as _sum_of_products gathers them (_gather_products),
and each key ends in BaseConfig.terms_vanish, the zero test of the scalar
reduce_terms would form, so no scalar and no element is formed.  Over
chart scalars every key's flag counts, so it is the protocol default of
htlab.sparse: the element _dot forms, tested by is_zero.  Its truncated
flag is that of the element _dot would form.  The descent check of htlab.higgs
tests each cell of its difference that way, and the cosimplicial check
(check_cosimplicial_identities) each difference of two faces.

The twisted face d^0 sends a term c v_1^[a_1] v_2^[a_2] ... to the chain
from_scalar(c) * gamma_a1 * gamma_a2 ... of the divided powers of the
generators' images, in slot order, and forms each image as one
_sum_of_products: a term's chain is formed up to its last gamma, whose
pairs with it join those of every other term, so each image key is
reduced once.  A sum of K scalars is one exact integer sum at the least A,
in any order (the stored form lemma of htlab.base), so each key has the
stored form of the chain that adds the terms in x's order; nothing is
regrouped.  The key order is the sum's first-met order, which differs from
the chain's only where a term or a partial sum is a droppable zero.  Its
FaceContext keeps per generator the image, as its gamma_1, and the top of
the power chain one() * x * x ... that divided_power builds for one x, so
gamma_a of an image costs one product and one division by a! (_gamma
takes the power itself), and per source monomial a plan of its gammas,
whose _Rights, kept on the gammas, every plan shares.  face_context
keeps one such context per ring layout and twist with the ring's base, so
every module over the base shares the images, power chains, gammas and
their _Rights; all of them depend on the ring and the twist, none on a
module.
"""

from itertools import repeat
from math import comb, factorial, prod

from .base import _norm
from .errors import AxiomViolation, BadIndex, InsufficientPrecision
from .galois import act_slots, series_dot_vanishes
from .sparse import Sparse, same_ring

VARIANTS = ("abs-arith", "abs-geom", "rel-geom")


class PdRing:
    __slots__ = (
        "cfg", "base", "variant", "degree", "d", "D",
        "width", "shift", "field", "slots", "offsets", "support_add", "support_top",
    )

    def __init__(self, cfg, base, variant, degree, d=0, D=None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        D = cfg.cutoffs.D if D is None else D
        if degree < 0 or d < 0 or D < 0:
            raise BadIndex("degree, d and D must be nonnegative")
        if variant == "abs-arith":
            d = 0
        self.cfg = cfg
        self.base = base
        self.variant = variant
        self.degree = degree
        self.d = d
        self.D = D
        # the packed layout (module docstring): a field holds 2D, so a sum
        # of two stored monomials overflows none, and D < 2^(w-1)
        w = (2 * D).bit_length() or 1
        gens = self.generators()
        self.width = w
        self.shift = len(gens) * w
        self.field = (1 << w) - 1
        self.slots = [(vid, g * w) for g, vid in enumerate(gens)]
        self.offsets = dict(self.slots)
        # ((key & low bits) + support_add) & support_top sets the top bit of
        # exactly the fields that hold a nonzero exponent
        half = 1 << (w - 1)
        self.support_add = sum((half - 1) << off for _, off in self.slots)
        self.support_top = sum(half << off for _, off in self.slots)

    @property
    def has_x(self):
        return self.variant != "rel-geom"

    @property
    def has_y(self):
        return self.variant != "abs-arith"

    def bump(self, degree):
        return PdRing(self.cfg, self.base, self.variant, degree, self.d, self.D)

    def eq_ring(self, other):
        return (
            self.cfg is other.cfg
            and self.base.eq_ring(other.base)
            and self.variant == other.variant
            and self.degree == other.degree
            and self.d == other.d
            and self.D == other.D
        )

    def x_id(self, j):
        if not self.has_x:
            raise BadIndex("no arithmetic variables in this variant")
        if not (1 <= j <= self.degree):
            raise BadIndex(f"X index {j} out of range")
        return (0, 0, j)

    def y_id(self, k, j):
        if not self.has_y:
            raise BadIndex("no geometric variables in this variant")
        if not (1 <= k <= self.d and 1 <= j <= self.degree):
            raise BadIndex(f"Y index ({k},{j}) out of range")
        return (1, k, j)

    def generators(self):
        out = []
        if self.has_x:
            out.extend(self.x_id(j) for j in range(1, self.degree + 1))
        if self.has_y:
            for k in range(1, self.d + 1):
                out.extend(self.y_id(k, j) for j in range(1, self.degree + 1))
        return out

    def encode(self, pairs):
        """The packed key of the monomial prod v^[a] over (v, a) in pairs.

        Each variable is a generator of this ring, appearing once, with an
        exponent in 1..D; anything else raises BadIndex.
        """
        key = deg = 0
        for vid, a in pairs:
            off = self.offsets.get(vid)
            if off is None:
                raise BadIndex(f"{vid!r} is not a generator of {self!r}")
            if not 1 <= a <= self.D:
                raise BadIndex(f"exponent {a} of {vid!r} is outside 1..{self.D}")
            if (key >> off) & self.field:
                raise BadIndex(f"{vid!r} appears twice")
            key |= a << off
            deg += a
        return key | deg << self.shift

    def decode(self, key):
        """A packed key as its sorted tuple of (variable, exponent) pairs."""
        field = self.field
        return tuple((vid, (key >> off) & field) for vid, off in self.slots if (key >> off) & field)

    def key_degree(self, key):
        return key >> self.shift

    def zero(self):
        return PdElement(self, {})

    def one(self):
        return PdElement(self, {0: self.base.one()})

    def from_scalar(self, s):
        return PdElement(self, {0: s})

    def from_k(self, x):
        return self.from_scalar(self.base.from_k(x))

    def from_int(self, n):
        return self.from_scalar(self.base.from_int(n))

    def var(self, vid, exp=1):
        """The basis element v^[exp]."""
        if exp < 0:
            raise BadIndex("divided-power exponents are nonnegative")
        if exp == 0:
            return self.one()
        if exp > self.D:
            return PdElement(self, {}, truncated=True)
        return PdElement(self, {self.encode(((vid, exp),)): self.base.one()})

    def x(self, j, exp=1):
        return self.var(self.x_id(j), exp)

    def y(self, k, j, exp=1):
        return self.var(self.y_id(k, j), exp)

    def __repr__(self):
        return f"PdRing({self.variant}, n={self.degree}, d={self.d}, D={self.D})"


class _Right:
    """The right factor y of a product, read once and kept on y.

    entries holds one flat tuple per coefficient, in y's order: key,
    support mask and degree, then the scalar, which is u (None when zero),
    shift and A over K scalars and the coefficient itself over chart
    scalars.  filter(cap) is the entries of degree at most cap, in y's
    order, and whether that leaves one out, which cuts a pair above D; it
    is built on the first left key of degree D - cap and kept for every
    product y enters.
    """

    __slots__ = ("entries", "filters")

    def __init__(self, y):
        ring = y.ring
        shift, add, top = ring.shift, ring.support_add, ring.support_top
        low = (1 << shift) - 1
        if ring.base.is_point:
            zero = ring.cfg.zero_u
            self.entries = [
                (k, ((k & low) + add) & top, k >> shift, None if c.u == zero else c.u, c.shift, c.prec - c.shift)
                for k, c in y.coeffs.items()
            ]
        else:
            self.entries = [(k, ((k & low) + add) & top, k >> shift, c) for k, c in y.coeffs.items()]
        self.filters = {}

    def filter(self, cap):
        row = [e for e in self.entries if e[2] <= cap]
        cut = len(row) < len(self.entries)
        # a filter that keeps every entry shares the entries list, so a kept
        # _Right holds no copy of it
        f = self.filters[cap] = (row if cut else self.entries, cut)
        return f


def _gather(sums, left, right, m, ring, zero):
    """Add the pairs of x * y * m to sums; returns whether a filter cut a pair.

    left holds the live (k1, coefficient) pairs of x in order, right is the
    _Right of y, and zero is the zero numerator of K scalars, None over
    chart scalars.  Each left key is capped, filtered and masked once, then
    meets its row in the inner loop of its scalar kind.  Over K, sums is
    {key: [A, top, terms, shifts]}: per key, A is the least term precision,
    top the top shift, and terms and shifts the (u1, u2, m times the
    binomial) and shift of each pair with two nonzero numerators, in the
    order met.  Over chart scalars it is {key: (xs, ys, ms)}, the pairs'
    coefficients and multipliers in the order met, for dot.
    """
    D, shift, w, field = ring.D, ring.shift, ring.width, ring.field
    low, add, top = (1 << shift) - 1, ring.support_add, ring.support_top
    filters = right.filters
    cut = False
    for k1, c1 in left:
        cap = D - (k1 >> shift)
        row, c = filters.get(cap) or right.filter(cap)
        if c:
            cut = True
        m1 = ((k1 & low) + add) & top
        if zero is None:
            for k2, m2, _, c2 in row:
                key = k1 + k2
                terms = sums.get(key)
                if terms is None:
                    sums[key] = terms = ([], [], [])
                shared = m1 & m2
                mult = m
                while shared:
                    bit = shared & -shared
                    off = bit.bit_length() - w
                    mult *= comb((key >> off) & field, (k1 >> off) & field)
                    shared ^= bit
                terms[0].append(c1)
                terms[1].append(c2)
                terms[2].append(mult)
            continue
        u1, s1 = c1.u, c1.shift
        a1 = c1.prec - s1
        if u1 == zero:
            u1 = None
        for k2, m2, _, u2, s2, a2 in row:
            key = k1 + k2
            a = a1 - s2
            b = a2 - s1
            if b < a:
                a = b
            acc = sums.get(key)
            if acc is None:
                sums[key] = acc = [a, 0, [], []]
            elif a < acc[0]:
                acc[0] = a
            if u1 is not None and u2 is not None:
                # the binomial prod C(a + b, a) over the fields both keys hold
                shared = m1 & m2
                mult = m
                while shared:
                    bit = shared & -shared
                    off = bit.bit_length() - w
                    mult *= comb((key >> off) & field, (k1 >> off) & field)
                    shared ^= bit
                s = s1 + s2
                acc[2].append((u1, u2, mult))
                acc[3].append(s)
                if s > acc[1]:
                    acc[1] = s
    return cut


def _gather_products(ring, products):
    """(sums, kept, cut): the pairs of sum_l x_l * y_l * m_l, gathered key
    by key in the order met, the phase _sum_of_products and dot_vanishes
    share.

    products is as in _sum_of_products.  sums maps each key to what _gather
    keeps for it, [A, top, terms, shifts] over K scalars and (xs, ys, ms)
    over chart scalars, and to None at a key of kept, the coefficients of
    the l whose y_l is None; cut is whether a filter cut a pair.
    """
    zero = ring.cfg.zero_u if ring.base.is_point else None
    sums, kept = {}, {}
    cut = False
    for left, y, m in products:
        if y is None:
            kept.update(left)
            sums.update(dict.fromkeys(left))
            continue
        # y's _Right is read on its first product as a right factor
        right = y._right
        if right is None:
            right = y._right = _Right(y)
        if _gather(sums, left.items(), right, m, ring, zero):
            cut = True
    return sums, kept, cut


def _sum_of_products(ring, products):
    """({key: coefficient}, truncated): the clean coefficients of
    sum_l x_l * y_l * m_l, one sum per key over its (l, k1, k2) pairs: one
    reduce_terms over K scalars, one dot over the pairs over chart scalars,
    which reduces each chart key once.  Either is the stored form of the
    chain that adds the products key by key in l order: it drops only
    droppable zeros, at A = N (htlab.base), so the least A and the value
    mod p^A are kept; only the key order inside a chart coefficient can
    differ, where a partial sum cancels.  products holds the (coefficient
    dict of x_l, y_l, m_l) of each l, y_l a PdElement read through its
    _Right; a y_l of None enters x_l's coefficients as they are, at keys
    no product meets.  truncated is set by a cut filter or a truncated
    sum, the factors' flags are the caller's.
    """
    reduce = ring.cfg.reduce_terms if ring.base.is_point else ring.cfg.dot
    sums, kept, trunc = _gather_products(ring, products)
    out = {}
    for key, acc in sums.items():
        c = kept[key] if acc is None else reduce(*acc)
        if c.truncated:
            trunc = True
        if not c.droppable():
            out[key] = c
    return out, trunc


def _products(xs, ys, ms):
    """(ring, products, truncated): the factors of sum_l x_l * y_l * m_l as
    _sum_of_products takes them, only the l whose factors both hold a key,
    and whether any factor is flagged."""
    ring = xs[0].ring
    trunc = False
    products = []
    for x, y, m in zip(xs, ys, repeat(1) if ms is None else ms):
        same_ring(ring, x.ring)
        same_ring(ring, y.ring)
        if x.truncated or y.truncated:
            trunc = True
        if x.coeffs and y.coeffs:
            products.append((x.coeffs, y, m))
    return ring, products, trunc


def dot_vanishes(xs, ys, ms=None):
    """(zero, truncated) of the pd element BaseConfig.dot(xs, ys, ms) would
    form, with no scalar and no element formed over K.

    Over K the pairs are gathered as PdElement._dot gathers them, and each
    key ends in BaseConfig.terms_vanish, the zero test of the scalar
    reduce_terms would form (the stored form lemma of htlab.base), and
    _sum_of_products drops only droppable keys, which are zero; the test
    stops at the first key that does not vanish, since no K scalar is
    truncated and the cut is known once the pairs are gathered.  truncated
    is that of the element: a factor's flag or a cut filter.  Over chart
    scalars every key's flag counts, so every key is formed: this is the
    protocol default (htlab.sparse), which forms the element by _dot.
    """
    if not xs[0].ring.base.is_point:
        return super(PdElement, PdElement)._dot_vanishes(xs, ys, ms)
    ring, products, trunc = _products(xs, ys, ms)
    sums, _, cut = _gather_products(ring, products)
    vanish = ring.cfg.terms_vanish
    return all(vanish(*acc) for acc in sums.values()), trunc or cut


class PdElement(Sparse):
    """A finite sum of coefficients times pd monomials.

    A monomial key is packed into one int by the ring (module docstring);
    the constant monomial is 0.
    """

    __slots__ = ("ring", "coeffs", "truncated", "_right")

    def __init__(self, ring, coeffs, truncated=False):
        clean = {}
        for key, c in coeffs.items():
            if c.truncated:
                truncated = True
            if c.droppable():
                continue
            clean[key] = c
        self.ring = ring
        self.coeffs = clean
        self.truncated = truncated
        self._right = None

    @classmethod
    def _clean(cls, ring, coeffs, truncated):
        """An element from coefficients already clean: none droppable, and
        every truncated coefficient already reflected in the flag."""
        x = cls.__new__(cls)
        x.ring = ring
        x.coeffs = coeffs
        x.truncated = truncated
        x._right = None
        return x

    def _new(self, coeffs, truncated):
        return PdElement(self.ring, coeffs, truncated)

    def _adopt(self, coeffs, truncated):
        return PdElement._clean(self.ring, coeffs, truncated)

    @staticmethod
    def _dot(xs, ys, ms=None):
        """BaseConfig.dot over pd scalars: sum_l x_l * y_l * m_l as one
        _sum_of_products over the pairs whose factors both hold a key.

        A pair with an empty factor adds only the factors' flags, as its
        product does in the chain; every factor's flag counts, and so does a
        cut filter or a truncated sum.  Each y_l is read through its kept
        _Right, so a column entry of a matrix product meets every row of the
        left factor through one.
        """
        ring, products, trunc = _products(xs, ys, ms)
        coeffs, cut = _sum_of_products(ring, products)
        return PdElement._clean(ring, coeffs, trunc or cut)

    # the zero test galois.series_dot_vanishes runs on pd scalars
    _dot_vanishes = staticmethod(dot_vanishes)

    def __mul__(self, other):
        return PdElement._dot((self,), (other,))

    def partial(self, vid):
        """d/dv on divided powers: v^[a] -> v^[a-1], coefficients kept."""
        ring = self.ring
        off = ring.offsets[vid]
        # subtracting the packed v^[1] lowers v's exponent and the degree by one
        step = ring.encode(((vid, 1),))
        out = {key - step: c for key, c in self.coeffs.items() if (key >> off) & ring.field}
        return PdElement(ring, out, self.truncated)

    def coeff(self, key):
        """The coefficient of a monomial given as (variable, exponent) pairs."""
        c = self.coeffs.get(self.ring.encode(key))
        return self.ring.base.zero() if c is None else c

    def droppable(self):
        return not self.coeffs and not self.truncated

    def __repr__(self):
        def vname(vid):
            kind, k, j = vid
            return f"X_{j}" if kind == 0 else f"Y_{k}_{j}"

        parts = []
        for key, c in sorted((self.ring.decode(k), c) for k, c in self.coeffs.items()):
            mono = "*".join(f"{vname(v)}^[{a}]" for v, a in key) or "1"
            parts.append(f"({c!r})*{mono}")
        flag = " +trunc" if self.truncated else ""
        return f"PdElement({' + '.join(parts) or '0'}{flag})"


def divided_power(x, n):
    """gamma_n(x) = x^n / n! for x with no constant term.

    Computed over K, then integrality is re-certified: an integral input
    must produce an integral output (dropped terms cannot leak downward
    because the product grading is exact below the cutoff).
    """
    if n < 0:
        raise BadIndex("divided-power exponents are nonnegative")
    if n == 0:
        return x.ring.one()
    if n == 1:
        return x
    xn = x.ring.one()
    for _ in range(n):
        xn = xn * x
    return _gamma(x, xn, n)


def _gamma(x, xn, n):
    """gamma_n(x) = xn / n! for n >= 2, where xn is x^n, the chain one() * x * x ..."""
    if 0 in x.coeffs:
        raise AxiomViolation("pd-constant", "divided powers need positive pd-degree")
    was_integral = x.integral()
    out = xn.div_int(factorial(n))
    if was_integral and not out.integral():
        raise AxiomViolation("pd-integrality", f"gamma_{n} broke integrality")
    return out


class FaceContext:
    """One face map.

    d^i for i > 0 moves each generator's field and keeps nothing.  The
    twisted face d^0 sends c v_1^[a_1] v_2^[a_2] ... to the chain
    from_scalar(c) * gamma_a1 * gamma_a2 ..., the gammas in slot order, and
    keeps what that chain reads of the ring and the twist: the top of each
    generator's power chain one() * x * x ... (divided_power's chain), its
    divided powers, the image itself as gamma_1, each read through one
    _Right kept on it, and per source monomial a plan, built on its first
    use: the first, middle and last gammas, shared with every other plan,
    and their flags.
    alpha is the twist unit, beta when omitted.

    An image is one _sum_of_products.  A term runs its chain up to the last
    gamma: c * v on the first, dropping droppable products as the
    constructor does, then one product per middle gamma, with its flags.
    Its last product is not reduced: its pairs join the one sum, as those
    of ({0: c}, gamma_a1) do for a single gamma, and the constant term keeps
    c, at its place in x's order.  So each image key is reduced once, with
    the chain's stored form (module docstring), in first-met key order.

    Nothing a context keeps depends on an element, so one context serves a
    whole matrix, and face_context hands out the one d^0 context a base
    keeps for a ring layout and a twist, shared by every module over it.
    """

    def __init__(self, ring, i, alpha=None):
        n = ring.degree
        if not (0 <= i <= n + 1):
            raise BadIndex(f"face index {i} out of range for degree {n}")
        self.ring = ring
        self.i = i
        self.target = ring.bump(n + 1)
        self._powers = {}
        self._gammas = {}
        self._plans = {}
        if i > 0:
            # (source offset, target offset) of each generator's field
            t = self.target
            self._moves = [
                (off, t.offsets[(kind, k, j if j < i else j + 1)])
                for (kind, k, j), off in ring.slots
            ]
        elif ring.variant == "rel-geom":
            self._geom = None
        else:
            self._geom = self._geometric_series(ring.cfg.beta if alpha is None else alpha)

    def _geometric_series(self, alpha):
        # (1 - alpha X_1)^{-1} = sum alpha^k k! X_1^[k]
        t = self.target
        coeffs = {0: t.base.one()}
        apow = t.cfg.k_one()
        fact = 1
        xid = t.x_id(1)
        for k in range(1, t.D + 1):
            apow = apow * alpha
            fact *= k
            coeffs[t.encode(((xid, k),))] = t.base.from_k(apow).smul(fact)
        return PdElement(t, coeffs)

    def _gamma_image(self, vid, a):
        """gamma_a of vid's image: the image itself for a = 1, else the power
        of the chain one() * x * x ... (divided_power's chain) divided by a!.

        Only the top of the chain is kept: extending it to a divides each
        new power by its factorial on the way, so every gamma below the top
        is kept already.
        """
        key = (vid, a)
        g = self._gammas.get(key)
        if g is None:
            t = self.target
            if a == 1:
                kind, k, j = vid
                diff = t.x(j + 1) - t.x(1) if kind == 0 else t.y(k, j + 1) - t.y(k, 1)
                g = self._gammas[key] = diff if self._geom is None else diff * self._geom
            else:
                img = self._gamma_image(vid, 1)
                n, power = self._powers.get(vid, (0, t.one()))
                while n < a:
                    n += 1
                    power = power * img
                    if n > 1:
                        g = self._gammas[(vid, n)] = _gamma(img, power, n)
                self._powers[vid] = (n, power)
        return g

    def _plan(self, key):
        """(first, middle, last, any flag) of the gammas of the source
        monomial key, in slot order; first is None for a single gamma."""
        src = self.ring
        gammas = [self._gamma_image(vid, a) for vid, off in src.slots if (a := (key >> off) & src.field)]
        *head, last = gammas
        return (head[0] if head else None), head[1:], last, any(g.truncated for g in gammas)

    def apply(self, x):
        same_ring(x.ring, self.ring)
        t = self.target
        ring = x.ring
        field = ring.field
        if self.i > 0:
            # plain index shift: bijection on the pd basis, moving each field
            out = {}
            shift, tshift, moves = ring.shift, t.shift, self._moves
            for key, c in x.coeffs.items():
                nk = (key >> shift) << tshift
                for off, toff in moves:
                    nk |= ((key >> off) & field) << toff
                out[nk] = c
            # a bijection on keys: the coefficients of x are clean already
            return PdElement._clean(t, out, x.truncated)
        # terms x dropped above D map above D too, so the image keeps x's flag
        trunc = x.truncated
        products = []
        plans = self._plans
        for key, c in x.coeffs.items():
            if not key:
                products.append(({0: c}, None, 1))
                continue
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = self._plan(key)
            first, middle, last, flag = plan
            if flag:
                trunc = True
            if first is None:
                coeffs = {0: c}
            else:
                coeffs = {}
                for k, v in first.coeffs.items():
                    p = c * v
                    if p.truncated:
                        trunc = True
                    if not p.droppable():
                        coeffs[k] = p
            for g in middle:
                if coeffs:
                    coeffs, cut = _sum_of_products(t, [(coeffs, g, 1)])
                    if cut:
                        trunc = True
            if coeffs:
                products.append((coeffs, last, 1))
        coeffs, cut = _sum_of_products(t, products)
        return PdElement._clean(t, coeffs, trunc or cut)


def face_context(ring, i, alpha=None):
    """The context of the face d^i of ring, d^0 twisted by alpha (beta when
    omitted).

    d^0 is the one context ring's base keeps for (variant, degree, d, D,
    alpha), a hit confirmed by eq_ring, so its images, powers, gammas with
    their _Rights, and plans serve every module over the base; any other
    face is a new context, which keeps nothing.
    """
    if alpha is None:
        alpha = ring.cfg.beta
    if i:
        return FaceContext(ring, i, alpha)
    key = (ring.variant, ring.degree, ring.d, ring.D, (alpha.u, alpha.shift, alpha.prec))
    faces = ring.base.faces
    ctx = faces.get(key)
    if ctx is None or not ctx.ring.eq_ring(ring):
        ctx = faces[key] = FaceContext(ring, 0, alpha)
    return ctx


def face_map(i, x, alpha=None):
    return face_context(x.ring, i, alpha).apply(x)


def check_cosimplicial_identities(cfg, base, variant, d=0, alpha=None, max_degree=2, D=None):
    """Verify d^j d^i = d^i d^{j-1} for i < j on every generator.

    Runs over source degrees 1..max_degree (max_degree <= 2); residuals are
    exact below the pd cutoff.  alpha is the twist unit of the 0th face,
    beta = pi E'(pi) when omitted.  Each difference lhs - rhs is the one sum
    [lhs, rhs] . [1, 1] . [1, -1], tested by dot_vanishes: by the stored
    form lemma, as for the descent check, that is the rule of a difference.
    Returns a report dict; 'ok' is the verdict.
    """
    if not (1 <= max_degree <= 2):
        raise BadIndex("source degree must be 1 or 2")
    checks = []
    ok = True
    for n in range(1, max_degree + 1):
        ring = PdRing(cfg, base, variant, n, d=d, D=D)
        inner = [face_context(ring, i, alpha) for i in range(n + 2)]
        outer_ring = ring.bump(n + 1)
        outer = [face_context(outer_ring, j, alpha) for j in range(n + 3)]
        one = outer[0].target.one()
        for gen in ring.generators():
            v = ring.var(gen)
            for i in range(n + 2):
                vi = inner[i].apply(v)
                for j in range(i + 1, n + 3):
                    lhs = outer[j].apply(vi)
                    rhs = outer[i].apply(inner[j - 1].apply(v))
                    good, trunc = dot_vanishes((lhs, rhs), (one, one), (1, -1))
                    ok = ok and good
                    checks.append(
                        {
                            "degree": n,
                            "i": i,
                            "j": j,
                            "generator": gen,
                            "ok": good,
                            "truncated": trunc,
                        }
                    )
    return {"ok": ok, "count": len(checks), "failures": [c for c in checks if not c["ok"]], "checks": checks}


def _vp_factorial(p, m):
    """v_p(m!) by Legendre: the sum of the floors m // p^i; 0 for m <= 0."""
    k = 0
    while m > 0:
        m //= p
        k += m
    return k


def group_layout(base, terms, key):
    """The part of the evaluation at the group that depends on the values of
    the variables v_1, .., v_s only through key = (T, v_1 == 0, .., v_s == 0).

    terms lists (exps, entries) pairs: a monomial v^[exps] = prod v_g^[a_g],
    as its exponent vector over the variables, and its coefficient in each
    cell, one entry per cell, every list of one length.  At the values,
    v^[a] goes to v^a / a!, and the t^m slot of a cell is the chain
    sum x * s over its included terms of weight m = sum a_g, in terms'
    order, with s = prod v_g^a_g / prod a_g!.  A term is included when
    m < T and no variable with a positive exponent is 0 (always at m = 0).
    Each included term carries the descriptor (powers, k, unit^-1 mod p^N)
    of its scalar, powers being the (g, a_g) with a_g > 0 and
    den = prod a_g! = p^k * unit, so that a call needs only the numerator;
    its entries; and q = N - k.
    Most entries are droppable, and skipped: a K zero, stored as exactly
    (0, 0, N), or a chart element with no terms and no truncated flag.  A
    skipped K zero is not free: its term is a zero of absolute precision
    exactly q, since s has prec <= N and normalization keeps prec - shift,
    and that q does not depend on the values.
    One entry per weight, in first-included order:
    (m, scalars, live, dead_cells, dead).  live holds (c, xs, idx) for each
    cell with a nondroppable included entry: those entries in terms' order,
    then, on a point base, a zero at the least q of the cell's included
    droppable entries, if any; idx numbers the operand of each x in
    scalars, in order of first use, or is -1 for the zero, which multiplies
    one.  That gives one dot the same least absolute precision A and the
    same nonzero terms as the whole chain, and dot forms one exact sum, so
    neither the left-out zeros nor the place of the added term changes the
    stored form.  Every other cell goes to dead_cells and holds the shared
    zero dead, at the weight's least q: dot's one-sum result, and also its
    plain product when only one term is included, as the stored form of a
    zero depends only on its absolute precision (None over a chart, where
    a zero costs nothing, or at q = N: the cell is dropped).
    """
    cfg = base.cfg
    p, N = cfg.p, cfg.N
    M = p**N
    point = base.is_point
    T, zeros = key[0], key[1:]
    weights = {}
    for exps, entries in terms:
        m = sum(exps)
        if m >= T or any(a and z for a, z in zip(exps, zeros)):
            continue
        k = sum(_vp_factorial(p, a) for a in exps)
        den = prod(factorial(a) for a in exps) // p**k
        scalar = (tuple((g, a) for g, a in enumerate(exps) if a), k, pow(den, -1, M))
        weights.setdefault(m, []).append((scalar, entries, N - k))
    layout = []
    for m, included in weights.items():
        q = min(qt for _, _, qt in included)
        dead = cfg.k_zero(q) if point and q < N else None
        slot = {}
        live, dead_cells = [], []
        for c in range(len(included[0][1])):
            xs, idx, zq = [], [], None
            for t, (_, entries, qt) in enumerate(included):
                x = entries[c]
                if not x.droppable():
                    xs.append(x)
                    idx.append(slot.setdefault(t, len(slot)))
                elif point and (zq is None or qt < zq):
                    zq = qt
            if not xs:
                if dead is not None:
                    dead_cells.append(c)
                continue
            if zq is not None:
                # dot takes from a zero term only its precision
                xs.append(cfg.k_zero(zq))
                idx.append(-1)
            live.append((c, xs, idx))
        layout.append((m, [included[t][0] for t in slot], live, dead_cells, dead))
    return layout


def evaluate_layout(base, layout, values, size):
    """The size cells of a group_layout at the values of its variables, each
    a {t-degree: scalar} dict, droppable slots left out.

    A call forms only the scalars that a live term reads, each as
    num * unit^-1 mod p^N normalized at shift k, num = prod v_g^a_g: the
    stored form of k_from_int(num).div_int(den), on a point base the K
    element itself with no from_k call.  Then it runs one dot per live cell,
    and every dead cell takes its weight's shared zero.
    """
    cfg = base.cfg
    N = cfg.N
    M = cfg.p**N
    tail = cfg.zero_u[1:] if cfg.n > 1 else None
    from_k = None if base.is_point else base.from_k
    dot = cfg.dot
    one = cfg.k_one()
    cells = [{} for _ in range(size)]
    for m, scalars, live, dead_cells, dead in layout:
        ys = []
        for powers, k, inv in scalars:
            num = 1
            for g, a in powers:
                num *= values[g] ** a
            u = num * inv % M
            y = _norm(cfg, u if tail is None else (u,) + tail, k, N)
            ys.append(y if from_k is None else from_k(y))
        ys.append(one)
        for i, xs, idx in live:
            v = dot(xs, [ys[j] for j in idx])
            if not v.droppable():
                cells[i][m] = v
        for i in dead_cells:
            cells[i][m] = dead
    return cells


def evaluate_at_group(x, sigmas, T=None):
    """Evaluate a degree-n element against (s_1, ..., s_n) into K[t]/t^T.

    X_j goes to c(s_1..s_j) t, Y_{k,j} to the k-th geometric exponent of
    the running product s_1..s_j times t, and v^[m] to v^m / m!.  The
    result is a {t-degree: coefficient} dict over the ring's base,
    droppable slots left out.

    This is the one evaluation at the group, group_layout and
    evaluate_layout over the generators in slot order, which
    sen.cocycle_matrix runs on a stratification.  Its terms are x's
    coefficients, as exponent vectors over ring.slots, then, for each
    weight 1 <= m < T whose monomial v^[m] x lacks, a droppable zero at
    v^[m], v the first variable of nonzero value.  A monomial x lacks is a
    coefficient zero to N digits, and its term claims q = N - v_p(prod a_i!)
    where its value is not 0, as a zero coefficient of a stratification
    does.  By Legendre, v_p(a!) = sum_i floor(a / p^i), and
    floor(a / p^i) + floor(b / p^i) <= floor((a + b) / p^i), so
    v_p(prod a_i!) <= v_p(m!) whenever sum a_i = m: v^[m] has the least q of
    weight m, N - v_p(m!), and charging it charges every absent monomial.
    Where x holds v^[m], its own term claims at most N - v_p(m!).  A
    monomial with a variable of value 0 is exactly 0 and costs nothing, so
    where every variable is 0 only the t^0 slot is left.  A chart zero has
    no place to record its precision, so over a chart the skipped zeros
    cost nothing and each present slot is clamped to N - v_p(m!) instead.
    Raises InsufficientPrecision when N <= v_p((T - 1)!): the t^(T-1) slot
    has no certified digit left.
    """
    ring = x.ring
    n = ring.degree
    if len(sigmas) != n:
        raise BadIndex(f"need exactly {n} group elements")
    cfg = ring.cfg
    if T is None:
        T = cfg.cutoffs.T
    acc = []
    for s in sigmas:
        if s.d != ring.d:
            raise BadIndex("group element has wrong geometric dimension")
        acc.append(acc[-1] * s if acc else s)
    if _vp_factorial(cfg.p, T - 1) >= cfg.N:
        raise InsufficientPrecision(f"t^{T - 1} slot has no certified digits left")
    values = [acc[j - 1].n[k - 1] if kind else acc[j - 1].c for (kind, k, j), _ in ring.slots]
    field = ring.field
    terms = [(tuple((key >> off) & field for _, off in ring.slots), [c]) for key, c in x.coeffs.items()]
    # a droppable zero at v^[m] pays for every monomial of weight m x lacks
    v = next((g for g, value in enumerate(values) if value), None)
    if v is not None:
        held = {exps for exps, _ in terms}
        zero = [ring.base.zero()]
        for m in range(1, T):
            exps = tuple(m if g == v else 0 for g in range(len(values)))
            if exps not in held:
                terms.append((exps, zero))
    key = (T, *(value == 0 for value in values))
    [out] = evaluate_layout(ring.base, group_layout(ring.base, terms, key), values, 1)
    if not ring.base.is_point:
        # a skipped chart zero cost nothing: each present slot pays instead
        for m, c in out.items():
            out[m] = c.clamp_prec(cfg.N - _vp_factorial(cfg.p, m))
    return out


def check_face_evaluation(x, sigmas, alpha=None, T=None):
    """Certify the twisted faces against the group law.

    For every face index i, evaluating d^i(x) at (s_1..s_{n+1}) must agree
    with the group-side operation: i = 0 lets s_1 act on t through sigma_t
    twisted by the same unit alpha as d^0 (beta = pi E'(pi) when omitted),
    middle indices merge s_i s_{i+1}, and the last index forgets s_{n+1}.
    Both sides are {t-degree: coefficient} dicts (evaluate_at_group, and
    galois.act_slots for i = 0), and each slot of their difference is one
    sum tested for zero (galois.series_dot_vanishes), which gives the
    answer of the rule of a difference.
    """
    ring = x.ring
    n = ring.degree
    if len(sigmas) != n + 1:
        raise BadIndex(f"need exactly {n + 1} group elements")
    sigmas = list(sigmas)
    T = ring.cfg.cutoffs.T if T is None else T
    one = ring.base.one()
    results = []
    ok = True
    for i in range(n + 2):
        lhs = evaluate_at_group(face_map(i, x, alpha), sigmas, T=T)
        if i == 0:
            [rhs] = act_slots(sigmas[0], [evaluate_at_group(x, sigmas[1:], T=T)], ring.base, T, alpha)
        elif i == n + 1:
            rhs = evaluate_at_group(x, sigmas[:n], T=T)
        else:
            merged = sigmas[: i - 1] + [sigmas[i - 1] * sigmas[i]] + sigmas[i + 1 :]
            rhs = evaluate_at_group(x, merged, T=T)
        good = series_dot_vanishes([lhs.items()], [((0, one),)], rhs, T, one)
        ok = ok and good
        results.append({"i": i, "ok": good})
    return {"ok": ok, "faces": results}
