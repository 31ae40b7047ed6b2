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

evaluate_at_group sends a degree-n element to a t-series by X_j |-> c(s_1..s_j) t
and Y_{k,j} |-> n_k(s_1..s_j) t, with v^[m] |-> v^m / m! in K.  The face maps
and this evaluation are tied together by check_face_evaluation, which is the
oracle certifying the twisted d^0 above against the group law, where s_1
moves t by sigma(t) = chi t (1 - alpha c t)^{-1} with the same alpha.

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

A product visits no pair above the cutoff.  A left key of degree d meets
only the right keys of degree at most D - d: a filter of the right operand
in its order, built once per cap, and the product is flagged when a filter
leaves a key out.  Each output key is one sum over its pairs in the order
met.  Over K scalars the product reads each coefficient's (u, shift,
absolute precision) once and keeps, per key, the least term precision A,
the top shift and the terms with two nonzero numerators; each key is
reduced once by BaseConfig.reduce_terms, the routine BaseConfig.dot ends
in, so it gets the stored form of the chain (the stored form lemma of
htlab.base).  Every key over chart scalars is one dot over its pairs in
the order met, which takes one reduction per chart key (htlab.chart).

product_cells forms the cells of a matrix product the same way, with no
PdElement per product: each key of a cell is one sum over its (l, k1, k2)
pairs, gathered by the pair loop PdElement.__mul__ runs, one reduction or
one dot per key.  That is the stored form of the chain Mat.__mul__ forms
(each product's key, then the products added in l order, each dropped when
droppable), since no scalar holds more than N digits.  Each factor's
entries are read, and each right factor's filters built, once per matrix
product.  The descent check of htlab.higgs reads p_2*(eps) p_0*(eps)
through it.

The twisted face d^0 sends a term c v_1^[a_1] v_2^[a_2] ... to the chain
from_scalar(c) * gamma_a1 * gamma_a2 ... of the divided powers of the
generators' images, in slot order, and sums the terms of one image into one
dict in place.  Its FaceContext keeps per generator the image and the top
of the power chain one() * x * x ... that divided_power builds for one x,
so gamma_a of an image costs one product and one division by a! (_gamma
takes the power itself), and per source monomial a plan: what the chain
reads of the ring alone, the gammas' keys and scalars, each left key's
filter, cut flag, output keys and binomials.  Running a plan does only the
scalar work of the chain: c * v on the first gamma, then per product the
pair loop over the live left coefficients and one reduction or dot per key.
The live pairs are those the chain meets, in its order, with the same A,
top and terms, so each term has the chain's stored form; nothing is
regrouped.  face_context keeps one such context per ring layout and twist
with the ring's base, so every module over the base shares the images,
power chains and plans; all of them depend on the ring and the twist, none
on a module.
"""

from math import comb, factorial

from .errors import AxiomViolation, BadIndex, InsufficientPrecision
from .galois import FormalCElem, galois_act_all
from .sparse import Sparse, merge_into

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

    def entries(self, coeffs, fused):
        """(key, support mask, degree, numerator or None when zero, shift,
        absolute precision, coefficient) of each coefficient, in order; the
        numerator, shift and precision are read only over K scalars (fused)."""
        shift, add, top = self.shift, self.support_add, self.support_top
        low = (1 << shift) - 1
        if not fused:
            return [(k, ((k & low) + add) & top, k >> shift, None, 0, 0, c) for k, c in coeffs.items()]
        zero = self.cfg.zero_u
        return [
            (k, ((k & low) + add) & top, k >> shift, None if c.u == zero else c.u, c.shift, c.prec - c.shift, c)
            for k, c in coeffs.items()
        ]

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


def _same_ring(r1, r2):
    if r1 is not r2 and not r1.eq_ring(r2):
        raise BadIndex(f"pd elements of {r1!r} and {r2!r} do not combine")


def _binomials(k1, k2, shared, w, field):
    """prod C(a + b, a) over the variables of the support mask shared, which
    holds exponent a in k1 and b in k2."""
    mult = 1
    while shared:
        bit = shared & -shared
        off = bit.bit_length() - w
        a = (k1 >> off) & field
        mult *= comb(a + ((k2 >> off) & field), a)
        shared ^= bit
    return mult


def _filter(rows, right, caps):
    """Fill rows[cap], for each cap in caps not there yet, with the right
    entries of degree at most cap, in right's order.  Returns whether a
    filter of caps leaves an entry out, which cuts a pair above D."""
    cut = False
    for cap in caps:
        row = rows.get(cap)
        if row is None:
            rows[cap] = row = [e for e in right if e[2] <= cap]
        if len(row) < len(right):
            cut = True
    return cut


def _gather(sums, left, rows, D, w, field):
    """Add the pairs of one product to sums, {key: [A, top, terms, shifts]}.

    left holds the entries of the left factor, rows the filters of the
    right one.  Per key, A is the least term precision, top the top shift,
    and terms and shifts the (u1, u2, binomial) and shift of each pair with
    two nonzero numerators, in the order met.
    """
    for k1, m1, d1, u1, s1, a1, _ in left:
        for k2, m2, _, u2, s2, a2, _ in rows[D - d1]:
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
                shared = m1 & m2
                s = s1 + s2
                acc[2].append((u1, u2, _binomials(k1, k2, shared, w, field) if shared else 1))
                acc[3].append(s)
                if s > acc[1]:
                    acc[1] = s


def _pairs(sums, left, rows, D, w, field):
    """Add the pairs of one product to sums, {key: (xs, ys, ms)}, in the
    order met, for dot over chart scalars."""
    for k1, m1, d1, _, _, _, c1 in left:
        for k2, m2, _, _, _, _, c2 in rows[D - d1]:
            key = k1 + k2
            terms = sums.get(key)
            if terms is None:
                sums[key] = terms = ([], [], [])
            shared = m1 & m2
            terms[0].append(c1)
            terms[1].append(c2)
            terms[2].append(_binomials(k1, k2, shared, w, field) if shared else 1)


def _sum_of_products(ring, products, fused):
    """({key: coefficient}, truncated): the clean coefficients of
    sum_l x_l * y_l, one sum per key over its (l, k1, k2) pairs: one
    reduce_terms over K scalars (fused), one dot over the pairs over chart
    scalars, which reduces each chart key once.  Either is the stored form
    of the chain that adds the products key by key in l order: it drops
    only droppable zeros, at A = N (htlab.base), so the least A and the
    value mod p^A are kept; only the key order inside a chart coefficient
    can differ, where a partial sum cancels.  products holds the (left
    entries, right filters) of each l.
    """
    D, w, field = ring.D, ring.width, ring.field
    gather, reduce = (_gather, ring.cfg.reduce_terms) if fused else (_pairs, ring.cfg.dot)
    sums = {}
    for left, rows in products:
        gather(sums, left, rows, D, w, field)
    out = {}
    trunc = False
    for key, acc in sums.items():
        c = reduce(*acc)
        if c.truncated:
            trunc = True
        if not c.droppable():
            out[key] = c
    return out, trunc


def product_cells(a, b):
    """Yield (i, j, coeffs, truncated) for each cell of the product a * b of
    two matrices of pd elements over one ring, in row-major order.

    coeffs holds the clean coefficients of the cell that Mat.__mul__ would
    form, each with its stored form, and truncated its flag; no PdElement,
    product or sum, is built.  Like Mat.__mul__, a droppable factor adds no
    term, and, like PdElement.__mul__, a product with an empty factor adds
    only the factors' flags and one whose filters cut a pair is flagged.
    Each factor's entries are read once, and each right factor's filters
    are built once per cap, whatever the number of products it enters.
    """
    ring = a.ring
    D = ring.D
    fused = ring.base.is_point

    def factor(x, left):
        # (flag, entries, the caps of its degrees for a left factor or its
        # filters by cap for a right one), None when droppable
        if x.droppable():
            return None
        entries = ring.entries(x.coeffs, fused)
        return x.truncated, entries, {D - e[2] for e in entries} if left else {}

    lefts = [[factor(x, True) for x in row] for row in a.rows]
    cols = [[factor(y, False) for y in col] for col in zip(*b.rows)]
    for i, row in enumerate(lefts):
        for j, col in enumerate(cols):
            trunc = False
            products = []
            for x, y in zip(row, col):
                if x is None or y is None:
                    continue
                (t1, l1, caps), (t2, l2, rows) = x, y
                if t1 or t2:
                    trunc = True
                if l1 and l2:
                    if _filter(rows, l2, caps):
                        trunc = True
                    products.append((l1, rows))
            coeffs, cut = _sum_of_products(ring, products, fused)
            yield i, j, coeffs, trunc or cut


class PdElement(Sparse):
    """A finite sum of coefficients times pd monomials.

    A monomial key is packed into one int by the ring (module docstring);
    the constant monomial is 0.
    """

    __slots__ = ("ring", "coeffs", "truncated")

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

    @classmethod
    def _clean(cls, ring, coeffs, truncated):
        """An element from coefficients already clean: none droppable, and
        every truncated coefficient already reflected in the flag."""
        x = cls.__new__(cls)
        x.ring = ring
        x.coeffs = coeffs
        x.truncated = truncated
        return x

    def _new(self, coeffs, truncated):
        return PdElement(self.ring, coeffs, truncated)

    def _adopt(self, coeffs, truncated):
        return PdElement._clean(self.ring, coeffs, truncated)

    def _merge(self, other, sub):
        _same_ring(self.ring, other.ring)
        return super()._merge(other, sub)

    def __mul__(self, other):
        ring = self.ring
        _same_ring(ring, other.ring)
        trunc = self.truncated or other.truncated
        if not self.coeffs or not other.coeffs:
            return PdElement._clean(ring, {}, trunc)
        fused = ring.base.is_point
        left, right = ring.entries(self.coeffs, fused), ring.entries(other.coeffs, fused)
        # the right entries of degree at most each cap, in the right operand's
        # order; a filter that leaves one out has cut a pair above D
        rows = {}
        if _filter(rows, right, {ring.D - e[2] for e in left}):
            trunc = True
        out, cut = _sum_of_products(ring, [(left, rows)], fused)
        return PdElement._clean(ring, out, trunc or cut)

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


def _gather_planned(sums, live, cuts, rows):
    """_gather on one product of a face plan: each live (left index,
    coefficient) meets the pairs of its row, (output, right (u or None,
    shift, A), binomial) flattened, and sums is keyed by output.  Returns
    whether the filter of a live key is cut."""
    cut = False
    for i, c1 in live:
        if cuts[i]:
            cut = True
        u1, s1 = c1.u, c1.shift
        a1 = c1.prec - s1
        if u1 == c1.cfg.zero_u:
            u1 = None
        pairs = iter(rows[i])
        for o, (u2, s2, a2), mult in zip(pairs, pairs, pairs):
            a = a1 - s2
            b = a2 - s1
            if b < a:
                a = b
            acc = sums.get(o)
            if acc is None:
                sums[o] = acc = [a, 0, [], []]
            elif a < acc[0]:
                acc[0] = a
            if u1 is not None and u2 is not None:
                s = s1 + s2
                acc[2].append((u1, u2, mult))
                acc[3].append(s)
                if s > acc[1]:
                    acc[1] = s
    return cut


def _pairs_planned(sums, live, cuts, rows):
    """_pairs on one product of a face plan, over chart scalars: the right
    scalar of a pair is the coefficient itself."""
    cut = False
    for i, c1 in live:
        if cuts[i]:
            cut = True
        pairs = iter(rows[i])
        for o, c2, mult in zip(pairs, pairs, pairs):
            terms = sums.get(o)
            if terms is None:
                sums[o] = terms = ([], [], [])
            terms[0].append(c1)
            terms[1].append(c2)
            terms[2].append(mult)
    return cut


class FaceContext:
    """One face map.

    d^i for i > 0 moves each generator's field and keeps nothing.  The
    twisted face d^0 sends c v_1^[a_1] v_2^[a_2] ... to the chain
    from_scalar(c) * gamma_a1 * gamma_a2 ..., the gammas in slot order, and
    keeps what that chain reads of the ring and the twist: each generator's
    image, the top of its power chain one() * x * x ... (divided_power's
    chain), its divided powers, and a plan per source monomial, built on the
    monomial's first use.  A plan holds the first gamma and, per later
    product, that gamma's scalars (read once by _factor and shared by every
    plan), and for each key the left operand can hold, whether its filter
    cuts a key of the gamma and its pairs (output, right scalar, binomial)
    in the gamma's order.

    Running a plan does only the scalar work of the chain: c * v on the
    first gamma, dropping droppable products as the constructor does; per
    product the pair loop over the live left coefficients in order, then one
    reduce_terms (K scalars) or dot (chart scalars) per key in first-met
    order, each droppable result dropped; and the flags PdElement.__mul__
    sets.  The live pairs are exactly those the chain meets, in its order,
    with the same A, top and terms, so each term has the chain's stored form
    and key order; the terms are summed into one dict in place.

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
        self._images = {}
        self._powers = {}
        self._gammas = {}
        self._factors = {}
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
            if alpha is None:
                raise ValueError("twisted face needs a twist unit")
            self._geom = self._geometric_series(alpha)

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

    def _image(self, vid):
        img = self._images.get(vid)
        if img is not None:
            return img
        kind, k, j = vid
        t = self.target
        if kind == 0:
            diff = t.x(j + 1) - t.x(1)
        else:
            diff = t.y(k, j + 1) - t.y(k, 1)
        if self._geom is not None:
            img = diff * self._geom
        else:
            img = diff
        self._images[vid] = img
        return img

    def _gamma_image(self, vid, a):
        """gamma_a of vid's image: the image for a = 1, else the power of
        the chain one() * x * x ... (divided_power's chain) divided by a!.

        Only the top of the chain is kept: extending it to a divides each
        new power by its factorial on the way, so every gamma below the top
        is kept already.
        """
        key = (vid, a)
        g = self._gammas.get(key)
        if g is None:
            img = self._image(vid)
            if a == 1:
                g = self._gammas[key] = img
            else:
                n, power = self._powers.get(vid, (0, self.target.one()))
                while n < a:
                    n += 1
                    power = power * img
                    if n > 1:
                        g = self._gammas[(vid, n)] = _gamma(img, power, n)
                self._powers[vid] = (n, power)
        return g

    def _factor(self, vid, a):
        """(gamma_a of vid's image, the scalar each of its keys gives a
        pair): (u or None when zero, shift, A) over K scalars, the
        coefficient over chart scalars.  Read once, shared by every plan."""
        factor = self._factors.get((vid, a))
        if factor is None:
            g = self._gamma_image(vid, a)
            if self.target.base.is_point:
                zero = self.target.cfg.zero_u
                scalars = [(None if c.u == zero else c.u, c.shift, c.prec - c.shift) for c in g.coeffs.values()]
            else:
                scalars = list(g.coeffs.values())
            factor = self._factors[(vid, a)] = (g, scalars)
        return factor

    def _plan(self, key):
        """(first gamma, products) for the source monomial key.

        A product is (its gamma's flag, cuts, rows).  Row i belongs to the
        i-th key the left operand can hold, numbered by the product before
        (the first gamma's key order for the first product): cuts[i] is 1
        when that key's filter leaves a key of the gamma out, and the row
        holds its pairs, (output, right scalar, binomial) flattened, in the
        gamma's order.  An output is the number of a product key, and the
        key itself in the last product.
        """
        src, t = self.ring, self.target
        D, shift, w, field = t.D, t.shift, t.width, t.field
        low, add, top = (1 << shift) - 1, t.support_add, t.support_top
        factors = [self._factor(vid, a) for vid, off in src.slots if (a := (key >> off) & src.field)]
        first = factors[0][0]
        lefts = list(first.coeffs)
        products = []
        for n, (g, scalars) in enumerate(factors[1:], start=2):
            right = [(k2, ((k2 & low) + add) & top, k2 >> shift, r) for k2, r in zip(g.coeffs, scalars)]
            last = n == len(factors)
            index = {}
            cuts = bytearray()
            rows = []
            for k1 in lefts:
                m1 = ((k1 & low) + add) & top
                cap = D - (k1 >> shift)
                row = []
                for k2, m2, d2, r in right:
                    if d2 <= cap:
                        k = k1 + k2
                        shared = m1 & m2
                        mult = _binomials(k1, k2, shared, w, field) if shared else 1
                        row += (index.setdefault(k, k if last else len(index)), r, mult)
                cuts.append(len(row) < 3 * len(right))
                rows.append(tuple(row))
            products.append((g.truncated, bytes(cuts), rows))
            lefts = list(index)
        return first, products

    def _term(self, plan, c, fused):
        """(coefficients, truncated) of the chain from_scalar(c) * gamma_a1 * ...
        of a plan."""
        first, products = plan
        trunc = first.truncated
        live = []
        for i, (k, v) in enumerate(first.coeffs.items()):
            p = c * v
            if p.truncated:
                trunc = True
            if not p.droppable():
                live.append((i if products else k, p))
        cfg = self.target.cfg
        gather, reduce = (_gather_planned, cfg.reduce_terms) if fused else (_pairs_planned, cfg.dot)
        for gtrunc, cuts, rows in products:
            if gtrunc:
                trunc = True
            if not live:
                continue
            sums = {}
            if gather(sums, live, cuts, rows):
                trunc = True
            live = []
            for o, acc in sums.items():
                p = reduce(*acc)
                if p.truncated:
                    trunc = True
                if not p.droppable():
                    live.append((o, p))
        return dict(live), trunc

    def apply(self, x):
        _same_ring(x.ring, self.ring)
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
        out = {}
        fused = t.base.is_point
        plans = self._plans
        for key, c in x.coeffs.items():
            if not key:
                coeffs, flag = {0: c}, c.truncated
            else:
                plan = plans.get(key)
                if plan is None:
                    plan = plans[key] = self._plan(key)
                coeffs, flag = self._term(plan, c, fused)
            # the terms summed in place, with the per-key rule of a sum
            if merge_into(out, coeffs) or flag:
                trunc = True
        return PdElement._clean(t, out, trunc)


def face_context(ring, i, alpha=None):
    """The context of the face d^i of ring, d^0 twisted by alpha.

    d^0 is the one context ring's base keeps for (variant, degree, d, D,
    alpha), a hit confirmed by eq_ring, so its images, powers and plans
    serve every module over the base; any other face is a new context,
    which keeps nothing.
    """
    if i:
        return FaceContext(ring, i, alpha)
    key = (ring.variant, ring.degree, ring.d, ring.D, None if alpha is None else (alpha.u, alpha.shift, alpha.prec))
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
    beta = pi E'(pi) when omitted.  Returns a report dict; 'ok' is the verdict.
    """
    if not (1 <= max_degree <= 2):
        raise BadIndex("source degree must be 1 or 2")
    if alpha is None:
        alpha = cfg.beta
    checks = []
    ok = True
    for n in range(1, max_degree + 1):
        ring = PdRing(cfg, base, variant, n, d=d, D=D)
        inner = [face_context(ring, i, alpha) for i in range(n + 2)]
        outer_ring = ring.bump(n + 1)
        outer = [face_context(outer_ring, j, alpha) for j in range(n + 3)]
        for gen in ring.generators():
            v = ring.var(gen)
            for i in range(n + 2):
                vi = inner[i].apply(v)
                for j in range(i + 1, n + 3):
                    lhs = outer[j].apply(vi)
                    rhs = outer[i].apply(inner[j - 1].apply(v))
                    res = lhs - rhs
                    good = res.is_zero()
                    ok = ok and good
                    checks.append(
                        {
                            "degree": n,
                            "i": i,
                            "j": j,
                            "generator": gen,
                            "ok": good,
                            "truncated": res.truncated,
                        }
                    )
    return {"ok": ok, "count": len(checks), "failures": [c for c in checks if not c["ok"]], "checks": checks}


def evaluate_at_group(x, sigmas, T=None):
    """Evaluate a degree-n element against (s_1, ..., s_n) into K[t]/t^T.

    X_j goes to c(s_1..s_j) t, Y_{k,j} to the k-th geometric exponent of
    s_1..s_j times t, and v^[m] to v^m / m!.

    A degree-m coefficient of x that collapsed to an ambient-precision zero
    may hide a contribution as large as p^N / m!, so every t^m output slot
    is clamped to absolute precision N - v_p(m!).  Without the clamp, zero
    residuals in the face compatibility check would be compared at a
    precision the evaluation cannot actually certify.
    """
    ring = x.ring
    n = ring.degree
    if len(sigmas) != n:
        raise BadIndex(f"need exactly {n} group elements")
    cfg = ring.cfg
    if T is None:
        T = cfg.cutoffs.T
    values = {}
    acc = None
    for j, s in enumerate(sigmas, start=1):
        if s.d != ring.d:
            raise BadIndex("group element has wrong geometric dimension")
        acc = s if acc is None else acc * s
        if ring.has_x:
            values[(0, 0, j)] = acc.c
        if ring.has_y:
            for k in range(1, ring.d + 1):
                values[(1, k, j)] = acc.n[k - 1]
    out = {}
    base = ring.base
    for key, c in x.coeffs.items():
        m = ring.key_degree(key)
        if m >= T:
            continue
        num = 1
        den = 1
        for vid, a in ring.decode(key):
            num *= values[vid] ** a
            den *= factorial(a)
        if num == 0:
            continue
        scal = c * base.from_k(cfg.k_from_int(num).div_int(den))
        if m in out:
            out[m] = out[m] + scal
        else:
            out[m] = scal
    vloss = 0
    for m in range(1, T):
        mm = m
        while mm % cfg.p == 0:
            vloss += 1
            mm //= cfg.p
        if vloss == 0:
            continue
        cap = cfg.N - vloss
        if cap <= 0:
            raise InsufficientPrecision(f"t^{m} slot has no certified digits left")
        cur = out.get(m)
        if cur is None:
            cur = base.from_k(cfg.k_zero())
        out[m] = cur.clamp_prec(cap)
    return FormalCElem(base, T, out)


def check_face_evaluation(x, sigmas, alpha=None, T=None):
    """Certify the twisted faces against the group law.

    For every face index i, evaluating d^i(x) at (s_1..s_{n+1}) must agree
    with the group-side operation: i = 0 lets s_1 act on t through sigma_t
    twisted by the same unit alpha as d^0 (beta = pi E'(pi) when omitted),
    middle indices merge s_i s_{i+1}, and the last index forgets s_{n+1}.
    """
    ring = x.ring
    n = ring.degree
    if len(sigmas) != n + 1:
        raise BadIndex(f"need exactly {n + 1} group elements")
    if alpha is None:
        alpha = ring.cfg.beta
    sigmas = list(sigmas)
    results = []
    ok = True
    for i in range(n + 2):
        lhs = evaluate_at_group(face_map(i, x, alpha), sigmas, T=T)
        if i == 0:
            [rhs] = galois_act_all(sigmas[0], [evaluate_at_group(x, sigmas[1:], T=T)], alpha=alpha)
        elif i == n + 1:
            rhs = evaluate_at_group(x, sigmas[:n], T=T)
        else:
            merged = sigmas[: i - 1] + [sigmas[i - 1] * sigmas[i]] + sigmas[i + 1 :]
            rhs = evaluate_at_group(x, merged, T=T)
        res = lhs - rhs
        good = res.is_zero()
        ok = ok and good
        results.append({"i": i, "ok": good})
    return {"ok": ok, "faces": results}
