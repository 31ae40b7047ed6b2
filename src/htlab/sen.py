"""Group cocycles, the Sen operator, fixed vectors, and the period kernel.

A stratification A_{n,I} determines a 1-cochain on the group: for
sigma = (n, c, chi),

    U(sigma) = sum A_{n,I} (prod_k n_k^{i_k} / i_k!) (c^n / n!) t^{n+|I|},

a matrix of truncated t-series, which htlab keeps as its r^2 cells in
row-major order, each a plain {t-degree: scalar} dict.  U(sigma) is the
stratification eps = sum A_{n,I} X^[n] Y^[I] evaluated at sigma, and
cocycle_matrix computes it so: by the one evaluation at the group of
htlab.pdring (group_layout and evaluate_layout, which evaluate_at_group
runs too), over the variables (c, n_1, .., n_d).  What does not depend on
sigma is compiled once per layout key (T and which of c, n_1, .., n_d are
0) and kept on the stratification.  The cocycle
law U(s u) = U(s) * s(U(u)), with s moving only t, is what check_cocycle
certifies at the pd level; verify_cocycle_law re-checks it directly on
sampled group pairs: s acts on the cells of U(u) (galois.act_slots), and
each t-slot of a cell of U(s) * s(U(u)) - U(s u) is one sum, tested for
zero (galois.first_residual).  No scalar of the right side and no product
or residual matrix is formed.

The Sen operator of log-normalized data is -phi / beta.  Fixed vectors of
the whole action are the common kernel of the positive-weight coefficients.

The geometric part of the action is trivialized by the period matrix

    B = sum_I Theta^I Y^[I] t^{|I|}     (Y^[I] divided-power monomials),

whose columns kill the operators -t theta_i + d/dY_i.  Conjugating by B and
letting the group act by sigma(t) = chi t (1 - alpha c t)^{-1} (alpha the
data's twist unit, beta = pi E'(pi) in the log normalization) and
sigma(Y_k) = chi^{-1} (Y_k + n_k) strips U(sigma) down to its phi-only part:
crosscheck_inverse_simpson verifies B^{-1} F(sigma) B(sigma t, sigma Y) =
U(sigma) with F the cocycle of the phi-only part, read off the module's own
stratification as U(0, c, chi): at n = 0 the layout key leaves out every
coefficient with I != 0.  The period's two identities and the crosscheck
run on the law's residual test too (galois.first_residual), over the pd
ring's elements, so each slot is tested by pdring.dot_vanishes.
"""

import math

from .cohomology import snf_dvr
from .errors import HorizonTooSmall, KernelRankDeficit, ValidationFailure
from .galois import GroupElt, act_slots, first_residual, series_dot, series_matmul, series_powers, sigma_t
from .higgs import HiggsData, stratification_from_higgs
from .linalg import Mat
from .pdring import PdElement, PdRing, evaluate_layout, group_layout


def _as_strat(data):
    """A stratification as it is, a module as its stratification at the
    config's cutoffs.D; for another D, pass stratification_from_higgs(h, D=...)."""
    if isinstance(data, HiggsData):
        return stratification_from_higgs(data)
    return data


def _cocycle_layout(strat, key):
    """pdring.group_layout over the stratification's terms, in coefficient
    order: ((n, *I), A_{n,I} flattened row by row)."""
    terms = [((n, *index), [a for row in A.rows for a in row]) for (n, index), A in strat.coeffs.items()]
    return group_layout(strat.base, terms, key)


def cocycle_matrix(data, s, T=None):
    """U(sigma) as its r^2 cells, row by row, each a {t-degree: scalar} dict.

    Accepts a module or a stratification.  Requires T <= D + 1: the t-degree
    of every contribution equals its weight n + |I|, so with that bound each
    retained slot is complete.

    U(sigma) is the stratification eps = sum A_{n,I} X^[n] Y^[I] evaluated
    at sigma, X -> c t and Y_k -> n_k t, by the one evaluation at the group
    (pdring.group_layout and pdring.evaluate_layout, which
    pdring.evaluate_at_group runs too) over the variables (c, n_1, .., n_d).
    The t^m slot of cell (i, j) has the stored form of the chain
    sum A_{n,I}[i][j] * s_{n,I} over the included coefficients of weight m,
    in coefficient order, where s_{n,I} = (c^n prod n_k^i_k) / (n! prod i_k!)
    and a coefficient is included unless its numerator is 0 and m > 0; a
    skipped K zero costs q = N - v_p(n! prod i_k!).  Which coefficients are
    included depends on sigma only through its layout key
    (T, c == 0, n_1 == 0, .., n_d == 0), so the part of the sum that does
    not depend on sigma is compiled once per key, on its first use, and
    kept on the stratification: at most (t-orders used) * 2^(d+1) layouts.
    """
    strat = _as_strat(data)
    T = strat.cfg.cutoffs.T if T is None else T
    if T > strat.D + 1:
        raise HorizonTooSmall(f"t-order {T} needs coefficient weight {T - 1}, have {strat.D}")
    if s.d != strat.d:
        raise ValidationFailure("group element dimension does not match the module")
    values = (s.c, *s.n)
    key = (T, *(v == 0 for v in values))
    layouts = strat._cocycle_layouts
    layout = layouts.get(key)
    if layout is None:
        layout = layouts[key] = _cocycle_layout(strat, key)
    return evaluate_layout(strat.base, layout, values, strat.rank**2)


def verify_cocycle_law(data, s, u, T=None):
    """Check U(s u) = U(s) * s(U(u)) for one pair of group elements.

    The action of s on t is twisted by the same unit alpha as the 0th face
    map, read off the data's normalization.  The law holds for the
    arithmetic flavors on the whole group.  For the purely geometric flavor
    it holds on the c = 0 subgroup, which is all that site sees; the
    (1 - alpha c t)^{-1} twist belongs to the arithmetic faces.

    The check runs on the cells of the three cochains (cocycle_matrix), s
    acting on those of U(u) through galois.act_slots, and is one
    galois.first_residual: each t^k slot of a cell of the difference
    U(s) * s(U(u)) - U(s u) is one sum, the pairs that land in slot k, in
    (l, a, b) order, then the U(s u) slot as the term lhs * 1 * (-1),
    tested for zero.  Every slot of a cocycle matrix claims at most N
    numerator digits, so by the stored form lemma that test gives the
    answer of the rule of a difference between the U(s u) slot and the slot
    of the chain product.  The first cell with a slot that does not vanish
    is the witness, and no later cell is formed.  No scalar of the right
    side or of the difference, no product and no residual is formed.

    Raises ValueError when s and u differ in dimension, and, as
    cocycle_matrix does, HorizonTooSmall for T > D + 1 and
    ValidationFailure when their dimension is not the module's.
    """
    strat = _as_strat(data)
    su = s * u
    T = strat.cfg.cutoffs.T if T is None else T
    lhs = cocycle_matrix(strat, su, T)
    left = cocycle_matrix(strat, s, T)
    base = strat.base
    acted = act_slots(s, cocycle_matrix(strat, u, T), base, T, alpha=strat.braid_unit())
    witness = first_residual(left, acted, lhs, strat.rank, T, base.one())
    return {"ok": witness is None, "witness": witness}


def sen_operator(h):
    """-phi / beta; defined for log-normalized data carrying a phi."""
    if h.phi is None:
        raise ValidationFailure("no phi: the purely geometric flavor has no Sen operator")
    if h.twist != "log":
        raise ValidationFailure("normalize with log_from_smooth first")
    return h.phi.mul_scalar(h.base.from_k(-h.cfg.beta_inv()))


def h0_fixed_points(data, T=None):
    """Basis of the vectors fixed by the whole group action.

    A constant vector is fixed exactly when every coefficient of positive
    weight kills it (group elements separate the coefficients), so stack
    the A_{n,I} with 1 <= n + |I| <= T - 1 and take the kernel over K: the
    columns of V past the rank in the Smith form of the stack, scaled by a
    power of pi (BaseConfig.pi_pow) to be integral.  Point-mode scalars only.
    """
    strat = _as_strat(data)
    T = strat.cfg.cutoffs.T if T is None else T
    base = strat.base
    rows = []
    for key in strat.indices():
        m = key[0] + sum(key[1])
        if 1 <= m <= T - 1:
            rows.extend(strat.coeffs[key].rows)
    if not rows:
        V, rank = Mat.identity(base, strat.rank), 0
    else:
        stack = Mat(base, rows)
        vals = [a.val_pi() for row in rows for a in row]
        low = min((v for v in vals if v is not None), default=0)
        if low < 0:
            stack = stack.mul_scalar(base.from_k(strat.cfg.pi_pow(-low)))
        snf = snf_dvr(stack, with_v=True)
        V, rank = snf.V, len(snf.vals)
    basis = [V.col(j) for j in range(rank, strat.rank)]
    return {"dim": len(basis), "basis": basis}


# ---------------------------------------------------------------------------
# the geometric period and the conjugation crosscheck
# ---------------------------------------------------------------------------


def _theta_table(strat, T):
    """{I: Theta^I} for |I| < T, read off the stratification as A_{0,I}."""
    return {index: A for (n, index), A in strat.coeffs.items() if n == 0 and sum(index) < T}


def period_kernel_rep(data, T=None):
    """B = sum_I Theta^I Y^[I] t^{|I|} with its inverse, both certified.

    Accepts a module or a stratification (_as_strat), whose D is the pd
    degree; Theta^I is its A_{0,I}.  B and its inverse B(-Y) come as r^2
    cells in row-major order, each a {t-degree: pd element} dict.  Certifies that B's columns kill every
    -t theta_i + d/dY_i and that B * B(-Y) = 1, each by one
    galois.first_residual; a residual raises KernelRankDeficit, since the
    columns then fail to fill out the kernel.  Needs T <= D + 1 so the
    retained t-slots are complete.  The period is built once per T and
    stratification (_period); the cells handed out are copies.
    """
    strat = _as_strat(data)
    T = strat.cfg.cutoffs.T if T is None else T
    ring, B, Binv = _period(strat, T)
    return {"ring": ring, "T": T, "B": [dict(cell) for cell in B], "Binv": [dict(cell) for cell in Binv]}


def _period(strat, T):
    """(ring, B, Binv) of period_kernel_rep, kept on the stratification per T
    (``_periods``): neither depends on a group element.  Only a certified
    period is kept, so a residual raises KernelRankDeficit on every call."""
    kept = strat._periods.get(T)
    if kept is not None:
        return kept
    cfg, r, D = strat.cfg, strat.rank, strat.D
    if T > D + 1:
        raise HorizonTooSmall(f"t-order {T} needs pd degree {T - 1}, have {D}")
    ring = PdRing(strat.base, "rel-geom", 1, d=strat.d, D=D)
    one = ring.one()
    cellsB = [{} for _ in range(r * r)]
    cellsBi = [{} for _ in range(r * r)]
    thetas = _theta_table(strat, T)
    for index, tp in thetas.items():
        m = sum(index)
        key = ring.encode((ring.y_id(k + 1, 1), ik) for k, ik in enumerate(index) if ik)
        for c, a in enumerate(a for row in tp.rows for a in row):
            if a.droppable():
                continue
            cellsB[c].setdefault(m, {})[key] = a
            cellsBi[c].setdefault(m, {})[key] = -a if m % 2 else a
    B = [{m: PdElement(ring, d) for m, d in cell.items()} for cell in cellsB]
    Binv = [{m: PdElement(ring, d) for m, d in cell.items()} for cell in cellsBi]
    ident = [{0: one} if c % (r + 1) == 0 else {} for c in range(r * r)]
    if first_residual(B, Binv, ident, r, T, one) is not None:
        raise KernelRankDeficit("period matrix is not invertible by the sign flip")
    # t B: each slot moved up by one, the slot moved to T dropped
    t_b = [{m + 1: v for m, v in cell.items() if m + 1 < T} for cell in B]
    for k in range(strat.d):
        theta_k = thetas.get(tuple(1 if i == k else 0 for i in range(strat.d)))
        if theta_k is None:
            continue  # T <= 1: B is constant and t theta_k B has no slot left
        vid = ring.y_id(k + 1, 1)
        d_b = [{m: v for m, v in ((m, v.partial(vid)) for m, v in cell.items()) if not v.droppable()} for cell in B]
        if first_residual(_embed(ring, theta_k), t_b, d_b, r, T, one) is not None:
            raise KernelRankDeficit(f"columns do not kill -t theta_{k + 1} + d/dY_{k + 1}")
    kept = strat._periods[T] = (ring, B, Binv)
    return kept


def _embed(ring, mat):
    """A matrix over the base as constant t-series over ring, row by row."""
    return [{} if a.droppable() else {0: ring.from_scalar(a)} for row in mat.rows for a in row]


def _gamma_image(ring, s, k, a, chi_inv):
    """sigma(Y_k^[a]) = chi^{-a} sum_j Y_k^[j] n_k^{a-j} / (a-j)!, for a <= D,
    as one pd element over its a + 1 keys, in increasing j."""
    cfg = ring.cfg
    ca, nk = pow(chi_inv, a, cfg.p**cfg.N), s.n[k]
    vid = ring.y_id(k + 1, 1)
    coeffs = {}
    for j in range(a + 1):
        sc = cfg.k_from_int(ca * nk ** (a - j)).div_int(math.factorial(a - j))
        coeffs[ring.encode(((vid, j),)) if j else 0] = ring.base.from_k(sc)
    return PdElement(ring, coeffs)


def crosscheck_inverse_simpson(data, s, T=None):
    """B^{-1} F(sigma) B(sigma t, sigma Y) = U(sigma), checked in the pd ring.

    Accepts a module or a stratification (_as_strat), built once; the
    period and both cocycles read it, to pd degree its D.  F(sigma) is
    the cocycle of the phi-only sub-stratification, which is U(0, c, chi):
    at n = 0 the layout key leaves out every coefficient with I != 0, so
    the included A_{n,0}, their order and their q, and so the cells, are
    the sub-stratification's, and the layouts are kept on the
    stratification.  The group acts by sigma(t) = chi t (1 - alpha c t)^{-1}
    with the data's twist unit alpha, and sigma(Y_k) = chi^{-1}(Y_k + n_k).  Substituted images never raise
    the pd degree above the t-degree, so with T <= D + 1 the comparison is
    exact in every retained slot.

    All four matrices are r^2 cells of {t-degree: pd element} dicts.
    B^{-1} F(sigma) is formed by one series_dot per cell
    (galois.series_matmul), and its product with B(sigma t, sigma Y) is
    compared with U(sigma) by one galois.first_residual: each slot of the
    difference is one sum, tested for zero by pdring.dot_vanishes, and the
    first cell with a slot that does not vanish is the witness.
    """
    strat = _as_strat(data)
    if strat.flavor == "rel-geom":
        raise ValidationFailure("the crosscheck needs a phi")
    cfg, r = strat.cfg, strat.rank
    T = cfg.cutoffs.T if T is None else T
    ring, _, Binv = _period(strat, T)
    one = ring.one()
    u_pd, f_pd = (
        [{m: ring.from_scalar(v) for m, v in cell.items()} for cell in cocycle_matrix(strat, g, T=T)]
        for g in (s, GroupElt(cfg, (0,) * strat.d, s.c, s.chi))
    )
    # B(sigma t, sigma Y): cell c is one series_dot over the I with a
    # nondroppable Theta^I entry c, of that entry against sigma(t)^|I| times
    # the image of Y^[I]
    chi_inv = pow(s.chi, -1, cfg.p**cfg.N)
    st_pows = series_powers(sigma_t(ring, s, T=T, alpha=strat.braid_unit()), min(strat.D, T - 1), one, T)
    gamma_cache = {}
    rows, cols = [[] for _ in range(r * r)], [[] for _ in range(r * r)]
    for index, tp in _theta_table(strat, T).items():
        if tp.storage_zero():
            continue
        coeff = one
        for k, ik in enumerate(index):
            if ik == 0:
                continue
            if (k, ik) not in gamma_cache:
                gamma_cache[(k, ik)] = _gamma_image(ring, s, k, ik, chi_inv)
            coeff = coeff * gamma_cache[(k, ik)]
        series = [(m, v) for m, v in ((m, v * coeff) for m, v in st_pows[sum(index)].items()) if not v.droppable()]
        for c, e in enumerate(_embed(ring, tp)):
            if e:
                rows[c].append(e.items())
                cols[c].append(series)
    b_sub = [series_dot(row, col, T) for row, col in zip(rows, cols)]
    witness = first_residual(series_matmul(Binv, f_pd, r, T), b_sub, u_pd, r, T, one)
    return {"ok": witness is None, "witness": witness}
