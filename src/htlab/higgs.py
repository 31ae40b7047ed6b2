"""Enhanced Higgs modules, their stratifications, and the cocycle oracle.

A module of rank l over a base chart carries commuting nilpotent operators
theta_1..theta_d and, in the arithmetic flavors, an endomorphism phi braided
against them by

    [theta_i, phi] = beta theta_i        (log normalization, beta = pi E'(pi))
    [theta_i, phi] = E'(pi) theta_i      (smooth normalization)

The stratification packages the action of the degree-1 nerve: coefficients

    A_{n,I} = theta^I P_n,   P_0 = id,  P_{n+1} = (phi + n beta) P_n,

indexed by n + |I| <= D.  stratification_from_higgs builds each Theta^I and
P_n once, and one r x r zero matrix per call that every vanishing Theta^I,
P_n and A_{n,I} is.  check_cocycle builds the degree-1 matrix

    eps = sum A_{n,I} X_1^[n] Y_1^[I]

and verifies the descent identity p_2*(eps) * p_0*(eps) = p_1*(eps); with
the other order the degree-(1,1) coefficient would come out as
[phi, theta] + 2 beta theta instead of [phi, theta] + beta theta = 0.  Each
cell of the difference p_2*(eps) p_0*(eps) - p_1*(eps) is tested by one
pdring.dot_vanishes, one sum per pd key tested for zero, so no cell, and
no product or residual matrix, is formed.

Flavors: 'abs-arith' has phi only, 'rel-geom' has thetas only, 'abs-geom'
has both.  Everything raises a specific failure with a witness rather than
returning a bare False; convergence questions that the cutoffs cannot settle
come back as undecided certificates, never as silent passes.
"""

from itertools import accumulate, islice, repeat
from types import MappingProxyType

from .errors import (
    BraidFailure,
    ClosedFormMismatch,
    CommutationFailure,
    NilpotenceFailure,
    ValidationFailure,
)
from .linalg import Mat, commutator
from .pdring import PdElement, PdRing, dot_vanishes, face_context

FLAVORS = ("abs-arith", "abs-geom", "rel-geom")
TWISTS = ("log", "smooth")


class ConvergenceCertificate:
    __slots__ = ("subject", "status", "n_star", "n_max")

    def __init__(self, subject, status, n_star, n_max):
        self.subject = subject
        self.status = status
        self.n_star = n_star
        self.n_max = n_max

    @classmethod
    def converged(cls, subject, n_star, n_max):
        return cls(subject, "converged", n_star, n_max)

    @classmethod
    def undecided(cls, subject, n_max):
        return cls(subject, "undecided", None, n_max)

    @property
    def ok(self):
        return self.status == "converged"

    def __repr__(self):
        if self.ok:
            return f"Converged({self.subject}, n*={self.n_star})"
        return f"Undecided({self.subject}, n_max={self.n_max})"


def twist_unit(cfg, twist):
    """The braiding unit of a twist: beta = pi E'(pi) for log, E'(pi) for smooth."""
    return cfg.beta if twist == "log" else cfg.Ep


class HiggsData:
    __slots__ = ("cfg", "base", "flavor", "twist", "rank", "theta", "phi", "integral")

    def __init__(self, base, flavor, theta, phi=None, integral=True, twist="log"):
        if flavor not in FLAVORS:
            raise ValidationFailure(f"unknown flavor {flavor!r}")
        if twist not in TWISTS:
            raise ValidationFailure(f"unknown twist {twist!r}")
        if flavor == "abs-arith" and theta:
            raise ValidationFailure("abs-arith carries no theta operators")
        if flavor == "rel-geom" and phi is not None:
            raise ValidationFailure("rel-geom carries no phi")
        if flavor != "rel-geom" and phi is None:
            raise ValidationFailure(f"{flavor} needs a phi")
        mats = list(theta) + ([phi] if phi is not None else [])
        if not mats:
            raise ValidationFailure("empty module")
        rank = mats[0].nrows
        for m in mats:
            if m.nrows != rank or m.ncols != rank:
                raise ValidationFailure("operator shapes disagree")
        self.cfg = base.cfg
        self.base = base
        self.flavor = flavor
        self.twist = twist
        self.rank = rank
        self.theta = list(theta)
        self.phi = phi
        self.integral = bool(integral)

    @property
    def d(self):
        return len(self.theta)

    def braid_unit(self):
        return twist_unit(self.cfg, self.twist)

    def __repr__(self):
        return (
            f"HiggsData({self.flavor}, rank={self.rank}, d={self.d}, "
            f"twist={self.twist}, base={self.base!r})"
        )


def _first_nonzero(mat):
    for i, row in enumerate(mat.rows):
        for j, a in enumerate(row):
            if not a.is_zero():
                return (i, j)
    return None


def _beta_scalar(data):
    return data.base.from_k(data.braid_unit())


def validate_higgs(h, n_max=None):
    """Check the axioms; raises with a witness, returns certificates.

    Exact obligations (commuting thetas, braiding, strict nilpotence in the
    absolute flavors, claimed integrality) raise on failure.  Convergence
    obligations return certificates that are either converged at some n* or
    undecided within n_max; undecided is reported, not raised.  Both kinds
    come from one search, _search: for each theta with theta^rank != 0 on
    the relative site, over theta^n from n = rank + 1 (a theta with
    theta^rank = 0 adds no certificate), and, when there is a phi, over
    P_n from n = 1.
    """
    cfg = h.cfg
    if n_max is None:
        n_max = cfg.cutoffs.n_max
    if h.integral:
        for m in list(h.theta) + ([h.phi] if h.phi is not None else []):
            if not m.integral():
                raise ValidationFailure("integrality claimed but an entry is not integral")
    for i in range(h.d):
        for j in range(i + 1, h.d):
            c = commutator(h.theta[i], h.theta[j])
            if not c.is_zero():
                raise CommutationFailure(i + 1, j + 1, _first_nonzero(c))
    certificates = []
    beta = _beta_scalar(h)
    if h.phi is not None:
        for i, th in enumerate(h.theta):
            res = commutator(th, h.phi) - th.mul_scalar(beta)
            if not res.is_zero():
                raise BraidFailure(i + 1, _first_nonzero(res))
    for i, th in enumerate(h.theta):
        # I, theta, theta^2, ...: the chain of left products by theta
        powers = accumulate(repeat(th), lambda power, a: a * power, initial=Mat.identity(h.base, h.rank))
        power = next(islice(powers, h.rank, None))
        if power.is_zero():
            continue
        if h.flavor != "rel-geom":
            raise NilpotenceFailure(i + 1, _first_nonzero(power))
        # topological nilpotence is enough on the relative site
        certificates.append(_search(f"theta_{i + 1}-powers", powers, h.rank + 1, n_max))
    if h.phi is not None:
        zero = Mat.zero(h.base, h.rank)
        certificates.append(_search("phi-sequence", islice(_p_chain(h, zero), 1, None), 1, n_max))
    undecided = [c for c in certificates if not c.ok]
    return {
        "ok": not undecided,
        "undecided": bool(undecided),
        "certificates": certificates,
    }


def _search(subject, powers, n, n_max):
    """The convergence certificate of a chain that should tend to 0.

    powers yields the chain's n-th member first, then the next ones; the
    certificate is converged at the first k in n..n_max whose member is
    zero, else undecided.  No member past n_max is formed.
    """
    for k, power in zip(range(n, n_max + 1), powers):
        if power.is_zero():
            return ConvergenceCertificate.converged(subject, k, n_max)
    return ConvergenceCertificate.undecided(subject, n_max)


def _multi_indices(d, maxw):
    if d == 0:
        yield ()
        return
    def rec(prefix, rem, left):
        if left == 1:
            yield prefix + (rem,)
            return
        for v in range(rem + 1):
            yield from rec(prefix + (v,), rem - v, left - 1)
    for w in range(maxw + 1):
        yield from rec((), w, d)


def _vanishes(m):
    """Every entry droppable: each entry of a product with m is an empty sum.

    Most entries are the ring's shared zero, which Mat gives every empty
    sum and which is droppable, so identity is tested first.
    """
    zero = m.ring.zero()
    for row in m.rows:
        for a in row:
            if a is not zero and not a.droppable():
                return False
    return True


def _times(a, b, zero):
    """a * b, where every vanishing factor and product is ``zero``.

    ``zero`` is the r x r zero matrix of the module's ring.  A factor that
    is ``zero`` leaves every term of every entry to Mat.__mul__'s droppable
    rule, so the product is ``zero``, stored alike, and no multiply is run.
    A product whose every entry is droppable is ``zero`` too: a droppable K
    scalar is exactly (0, 0, N) and a droppable chart scalar is empty.  A
    zero known to fewer digits than N is not droppable, and its products
    are formed.
    """
    if a is zero or b is zero:
        return zero
    out = a * b
    return zero if _vanishes(out) else out


def _p_chain(h, zero):
    """P_n for n = 0, 1, ...: P_0 = id, P_{n+1} = (phi + n beta) P_n.

    Every vanishing P_n is ``zero``, the r x r zero matrix (_times).
    """
    beta = _beta_scalar(h)
    p_n = Mat.identity(h.base, h.rank)
    factor = h.phi
    while True:
        yield p_n
        p_n = _times(factor, p_n, zero)
        factor = factor.add_scalar_diag(beta)


def _theta_powers(h, maxw, zero):
    """{I: Theta^I} for |I| <= maxw, in _multi_indices order.

    Theta^I = theta_k Theta^(I - e_k), k the first nonzero position of I;
    a vanishing theta_k is replaced by ``zero`` once, and every vanishing
    Theta^I is ``zero`` (_times).
    """
    thetas = [zero if _vanishes(th) else th for th in h.theta]
    pows = {}
    for index in _multi_indices(h.d, maxw):
        k = next((i for i, v in enumerate(index) if v > 0), None)
        if k is None:
            pows[index] = Mat.identity(h.base, h.rank)
        else:
            prev = index[:k] + (index[k] - 1,) + index[k + 1 :]
            pows[index] = _times(thetas[k], pows[prev], zero)
    return pows


class Stratification:
    """The coefficients A_{n,I} of the degree-1 descent matrix.

    Immutable after construction: ``coeffs`` is a read-only view of a copy
    of the mapping passed in, and its matrices are not to be changed in
    place.  sen.cocycle_matrix keeps on the stratification one compiled
    layout per key (T, c == 0, n_1 == 0, .., n_d == 0) that a call has used
    (``_cocycle_layouts``), and sen._period one certified period per T
    (``_periods``), so a stratification changed afterwards would be checked
    against stale layouts and periods.  To change a coefficient, build a
    new Stratification.
    """

    __slots__ = ("cfg", "base", "flavor", "twist", "rank", "D", "coeffs", "_cocycle_layouts", "_periods")

    braid_unit = HiggsData.braid_unit

    def __init__(self, base, flavor, coeffs, D, rank, twist="log"):
        self.cfg = base.cfg
        self.base = base
        self.flavor = flavor
        self.twist = twist
        self.rank = rank
        self.D = D
        self.coeffs = MappingProxyType(dict(coeffs))
        self._cocycle_layouts = {}
        self._periods = {}

    @property
    def d(self):
        for _, index in self.coeffs:
            return len(index)
        return 0

    def indices(self):
        return sorted(self.coeffs)

    def matrix(self, n, index):
        return self.coeffs[(n, tuple(index))]

    def __repr__(self):
        return f"Stratification({self.flavor}, rank={self.rank}, D={self.D}, {len(self.coeffs)} terms)"


def stratification_from_higgs(h, D=None):
    """The stratification A_{n,I} = Theta^I P_n of h, n + |I| <= D.

    One r x r zero matrix is built per call, and every vanishing Theta^I,
    P_n and A_{n,I} stored alike is that matrix (_times): matrices are not
    changed in place, so one serves them all.
    """
    if D is None:
        D = h.cfg.cutoffs.D
    zero = Mat.zero(h.base, h.rank)
    p_seq = list(islice(_p_chain(h, zero), D + 1)) if h.phi is not None else []
    coeffs = {}
    for index, tp in _theta_powers(h, D, zero).items():
        w = sum(index)
        n_top = (D - w) if h.phi is not None else 0
        coeffs[(0, index)] = tp
        for n in range(1, n_top + 1):
            coeffs[(n, index)] = _times(tp, p_seq[n], zero)
    return Stratification(h.base, h.flavor, coeffs, D, h.rank, twist=h.twist)


def _operators(strat):
    """theta_k = A_{0,e_k} and phi = A_{1,0} read off a stratification; phi is None
    when the stratification has no A_{1,0}.  A missing A_{0,e_k} raises."""
    d = strat.d
    theta = []
    for k in range(d):
        e_k = tuple(1 if i == k else 0 for i in range(d))
        m = strat.coeffs.get((0, e_k))
        if m is None:
            raise ClosedFormMismatch(0, e_k)
        theta.append(m)
    return theta, strat.coeffs.get((1, (0,) * d))


def higgs_from_stratification(strat, integral=None):
    """Reconstruct the module and verify every coefficient's closed form."""
    zero_index = (0,) * strat.d
    ident = Mat.identity(strat.base, strat.rank)
    a00 = strat.coeffs.get((0, zero_index))
    if a00 is None or not a00.eq(ident):
        raise ClosedFormMismatch(0, zero_index)
    theta, phi = _operators(strat)
    if strat.flavor == "rel-geom":
        phi = None
    elif phi is None:
        raise ClosedFormMismatch(1, zero_index)
    if integral is None:
        integral = all(m.integral() for m in strat.coeffs.values())
    h = HiggsData(strat.base, strat.flavor, theta, phi, integral=integral, twist=strat.twist)
    expect = stratification_from_higgs(h, D=strat.D)
    if set(expect.coeffs) != set(strat.coeffs):
        extra = set(strat.coeffs) ^ set(expect.coeffs)
        n, index = sorted(extra)[0]
        raise ClosedFormMismatch(n, index)
    for key, m in strat.coeffs.items():
        if not m.eq(expect.coeffs[key]):
            raise ClosedFormMismatch(key[0], key[1])
    return h


def check_recursions(strat):
    """Walk both defining recursions independently of the closed form.

    A_{n+1,I} = (phi + (n + |I|) beta) A_{n,I}  and  A_{n,I} = theta_k A_{n,I-e_k},
    with phi and theta read off the stratification itself.
    """
    d = strat.d
    beta = _beta_scalar(strat)
    theta, phi = _operators(strat)
    checked = 0
    failures = []
    for (n, index), m in strat.coeffs.items():
        w = sum(index)
        if phi is not None and (n + 1, index) in strat.coeffs:
            lhs = strat.coeffs[(n + 1, index)]
            rhs = (phi.add_scalar_diag(beta.smul(n + w))) * m
            checked += 1
            if not lhs.eq(rhs):
                failures.append({"rule": "phi-step", "n": n, "index": index})
        for k in range(d):
            if index[k] == 0:
                continue
            prev = list(index)
            prev[k] -= 1
            rhs = theta[k] * strat.coeffs[(n, tuple(prev))]
            checked += 1
            if not m.eq(rhs):
                failures.append({"rule": "theta-step", "n": n, "index": index, "k": k + 1})
    return {"ok": not failures, "checked": checked, "failures": failures}


def descent_matrix(strat, ring=None):
    """eps = sum A_{n,I} X_1^[n] Y_1^[I] as a matrix of degree-1 pd elements."""
    if ring is None:
        ring = PdRing(strat.cfg, strat.base, strat.flavor, 1, d=strat.d, D=strat.D)
    entries = [[{} for _ in range(strat.rank)] for _ in range(strat.rank)]
    zero = strat.base.zero()
    for (n, index), m in strat.coeffs.items():
        # the containers' rule: only droppable entries may be left out
        if _vanishes(m):
            continue
        key = [(ring.x_id(1), n)] if n else []
        for k, ik in enumerate(index):
            if ik:
                key.append((ring.y_id(k + 1, 1), ik))
        key = ring.encode(key)
        for row, cells in zip(m.rows, entries):
            for s, cell in zip(row, cells):
                if s is not zero and not s.droppable():
                    cell[key] = s
    return Mat(ring, [[PdElement(ring, e) for e in row] for row in entries])


def check_cocycle(h, D=None):
    """The descent oracle: p_2*(eps) p_0*(eps) = p_1*(eps) entrywise."""
    return check_cocycle_strat(stratification_from_higgs(h, D=D))


def check_cocycle_strat(strat):
    """check_cocycle on a stratification; the 0th face is twisted by its braiding unit.

    Cell (i, j) of p_2*(eps) p_0*(eps) - p_1*(eps) is the sum of row i of
    p_2*(eps) and p_1*(eps)[i][j] against column j of p_0*(eps) and 1, with
    multipliers 1 and a last -1, tested by pdring.dot_vanishes: one sum per
    pd key, tested for zero, and no cell formed (over K no scalar either).
    No scalar claims more than N numerator digits, so by the stored form
    lemma (htlab.base) that is the rule of a difference (htlab.sparse).  The
    witness is the first cell in row-major order that is not zero, and the
    truncated flag is that of any cell.
    """
    ring1 = PdRing(strat.cfg, strat.base, strat.flavor, 1, d=strat.d, D=strat.D)
    eps = descent_matrix(strat, ring=ring1)
    alpha = strat.braid_unit()
    contexts = [face_context(ring1, i, alpha) for i in range(3)]
    ring2 = contexts[0].target
    p0, p1, p2 = (eps.map(c.apply, ring=ring2) for c in contexts)
    one = ring2.one()
    cols = [[*col, one] for col in zip(*p0.rows)]
    ms = [1] * strat.rank + [-1]
    witness = None
    truncated = False
    for i, (lrow, rrow) in enumerate(zip(p2.rows, p1.rows)):
        for j, (rhs, col) in enumerate(zip(rrow, cols)):
            zero, trunc = dot_vanishes(lrow + [rhs], col, ms)
            truncated = truncated or trunc
            if witness is None and not zero:
                witness = (i, j)
    return {
        "ok": witness is None,
        "rank": strat.rank,
        "terms": len(strat.coeffs),
        "truncated": truncated,
        "witness": witness,
    }


def log_from_smooth(h):
    """Rescale a smooth-normalized module to the log normalization.

    Validates the smooth braiding first, multiplies phi by pi, and validates
    the result; theta operators are untouched.
    """
    if h.twist != "smooth":
        raise ValidationFailure("input is not smooth-normalized")
    if h.phi is None:
        raise ValidationFailure("smooth data needs a phi")
    validate_higgs(h)
    phi_log = h.phi.mul_scalar(h.base.from_k(h.cfg.pi))
    out = HiggsData(h.base, h.flavor, h.theta, phi_log, integral=h.integral, twist="log")
    validate_higgs(out)
    return out
