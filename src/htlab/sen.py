"""Group cocycles, the Sen operator, fixed vectors, and the period kernel.

A stratification A_{n,I} determines a 1-cochain on the group: for
sigma = (n, c, chi),

    U(sigma) = sum A_{n,I} (prod_k n_k^{i_k} / i_k!) (c^n / n!) t^{n+|I|},

a matrix of truncated t-series.  cocycle_matrix compiles what does not
depend on sigma once per layout key (T and which of c, n_1, .., n_d are 0)
and keeps it on the stratification, and forms the cells as plain
{t-degree: scalar} dicts (_cocycle_cells) before it wraps them.  The
cocycle law U(s u) = U(s) * s(U(u)), with s moving only t, is what
check_cocycle certifies at the pd level; verify_cocycle_law re-checks it
directly on sampled group pairs, on those slot dicts alone: s acts on the
cells of U(u) (galois.act_slots), and each t-slot of a cell of
U(s) * s(U(u)) - U(s u) is one sum, tested for zero
(galois.series_dot_vanishes).  No scalar of the right side, no series and
no matrix is formed.  Mat.__mul__ stays the one general product, for the
period and the crosscheck.

The Sen operator of log-normalized data is -phi / beta.  Fixed vectors of
the whole action are the common kernel of the positive-weight coefficients.

The geometric part of the action is trivialized by the period matrix

    B = sum_I Theta^I Y^[I] t^{|I|}     (Y^[I] divided-power monomials),

whose columns kill the operators -t theta_i + d/dY_i.  Conjugating by B and
letting the group act by sigma(t) = chi t (1 - alpha c t)^{-1} (alpha the
data's twist unit, beta = pi E'(pi) in the log normalization) and
sigma(Y_k) = chi^{-1} (Y_k + n_k) strips U(sigma) down to its phi-only part:
crosscheck_inverse_simpson verifies B^{-1} F(sigma) B(sigma t, sigma Y) =
U(sigma) with F the cocycle of the phi-only sub-stratification.
"""

import math

from .base import _norm
from .cohomology import snf_dvr
from .errors import HorizonTooSmall, KernelRankDeficit, ValidationFailure
from .galois import FormalCElem, FormalRing, GroupElt, act_slots, series_dot_vanishes, sigma_t
from .higgs import HiggsData, Stratification, _first_nonzero, stratification_from_higgs
from .linalg import Mat
from .pdring import PdElement, PdRing


def _as_strat(data, D=None):
    if isinstance(data, HiggsData):
        return stratification_from_higgs(data, D=D)
    return data


def _cocycle_layout(strat, key):
    """The slots of U(sigma) for every sigma with layout key (T, c == 0, n_1 == 0, .., n_d == 0).

    A coefficient is included when its weight m is below T and its
    numerator c^n prod n_k^i_k is not 0 (always at m = 0); that depends on
    sigma only through the key.  One pass over the coefficients, in their
    order, groups the included ones by weight, in first-included order.
    Each carries three things: the descriptor (n, ((k', i_k') for i_k' > 0),
    k, unit^-1 mod p^N) of its scalar s = num / den, den = n! prod i_k! =
    p^k * unit, so that a call needs only sigma's numerator; its matrix
    flattened row by row; and q = N - k, the absolute precision of its term
    at a skipped zero.
    One entry per weight: (m, scalars, live, dead_cells, dead).  live holds
    (c, xs, idx) for each cell with a nondroppable included entry: those
    entries in coefficient order, then, on a point base, a zero at the least
    q of the cell's included droppable entries, if any; idx numbers the operand of each x in
    scalars, in order of first use, or is -1 for the zero, which multiplies
    one.  Every other cell goes to dead_cells and holds the shared zero
    dead, at the weight's least q (None over a chart or at q = N, where the
    cell is dropped).  A stratification has at most (t-orders used) *
    2^(d+1) layouts.
    """
    cfg = strat.cfg
    p, N = cfg.p, cfg.N
    M = p**N
    point = strat.base.is_point
    T, c_zero, n_zero = key[0], key[1], key[2:]
    weights = {}
    for (n, index), A in strat.coeffs.items():
        m = n + sum(index)
        if m >= T or (n and c_zero) or any(ik and z for ik, z in zip(index, n_zero)):
            continue
        den = math.factorial(n)
        for ik in index:
            den *= math.factorial(ik)
        k = 0
        while not den % p:
            den //= p
            k += 1
        scalar = (n, tuple((j, ik) for j, ik in enumerate(index) if ik), k, pow(den, -1, M))
        weights.setdefault(m, []).append((scalar, [a for row in A.rows for a in row], N - k))
    layout = []
    for m, terms in weights.items():
        # a cell whose included terms are all skipped zeros holds a zero at
        # their least q; for a single term that is dot's plain product too, as
        # the stored form of a zero depends only on its absolute precision
        q = min(qt for _, _, qt in terms)
        dead = cfg.k_zero(q) if point and q < N else None
        slot = {}
        live, dead_cells = [], []
        for c in range(strat.rank**2):
            xs, idx, zq = [], [], None
            for t, (_, entries, qt) in enumerate(terms):
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
        layout.append((m, [terms[t][0] for t in slot], live, dead_cells, dead))
    return layout


def cocycle_matrix(data, s, T=None):
    """U(sigma) as a matrix of t-series over the module's base.

    Accepts a module or a stratification.  Requires T <= D + 1: the t-degree
    of every contribution equals its weight n + |I|, so with that bound each
    retained slot is complete.

    The t^m slot of cell (i, j) has the stored form of the chain
    sum A_{n,I}[i][j] * s_{n,I} over the included coefficients of weight m,
    in coefficient order, where s_{n,I} = (c^n prod n_k^i_k) / (n! prod i_k!)
    and a coefficient is included unless its numerator is 0 and m > 0.
    Most entries are droppable, and skipped: a K zero, stored as exactly
    (0, 0, N), or a chart element with no terms and no truncated flag.  A
    cell all of whose included entries are droppable is dead.  A skipped K
    zero is not free: its term is a zero of absolute precision exactly
    q = N - v_p(n! prod i_k!), since the scalar has prec <= N and
    normalization keeps prec - shift, and that q does not depend on sigma.
    Which coefficients are included depends on sigma only through its
    layout key (T, c == 0, n_1 == 0, .., n_d == 0), so the parts of the sum
    that do not depend on sigma are compiled once per key, on its first
    use, into a slot list (_cocycle_layout) kept on the stratification:
      * a live cell runs one dot over its included other entries
        plus one zero term at the least q of its included skipped zeros.
        That gives dot the same least absolute precision A and the same
        nonzero terms as the whole chain, and dot forms one exact sum, so
        neither the left-out zeros nor the place of the added term changes
        the stored form;
      * every dead cell of the weight shares one stored zero, at the least
        included q: dot's one-sum result, and also its plain product when
        only one coefficient is included (dropped at q = N; a chart zero
        costs nothing).
    A call forms only the scalars s_{n,I} that a live term reads, each as
    num * unit^-1 mod p^N normalized at shift v_p(den): the stored form of
    k_from_int(num).div_int(den).  Then it runs one dot per live cell.
    """
    strat = _as_strat(data)
    T = strat.cfg.cutoffs.T if T is None else T
    cells = _cocycle_cells(strat, s, T)
    base, r = strat.base, strat.rank
    out = [[FormalCElem(base, T, cells[i * r + j], reduce=False) for j in range(r)] for i in range(r)]
    return Mat(FormalRing(base, T), out)


def _cocycle_cells(strat, s, T):
    """U(sigma) as its r^2 cells, row by row, each a {t-degree: scalar} dict.

    The body of cocycle_matrix (see there), which wraps the cells; the
    group law reads them as they are.  On a point base a scalar s_{n,I} is
    the K element itself, with no from_k call.
    """
    if T > strat.D + 1:
        raise HorizonTooSmall(f"t-order {T} needs coefficient weight {T - 1}, have {strat.D}")
    if s.d != strat.d:
        raise ValidationFailure("group element dimension does not match the module")
    cfg = strat.cfg
    base = strat.base
    r = strat.rank
    layouts = strat._cocycle_layouts
    c, ns = s.c, s.n
    key = (T, c == 0, *(nk == 0 for nk in ns))
    layout = layouts.get(key)
    if layout is None:
        layout = layouts[key] = _cocycle_layout(strat, key)
    N = cfg.N
    M = cfg.p**N
    tail = cfg.zero_u[1:] if cfg.n > 1 else None
    from_k = None if base.is_point else base.from_k
    dot = cfg.dot
    one = cfg.k_one()
    cells = [{} for _ in range(r * r)]
    for m, scalars, live, dead_cells, dead in layout:
        ys = []
        for n, powers, k, inv in scalars:
            num = c**n
            for j, ik in powers:
                num *= ns[j] ** ik
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


def verify_cocycle_law(data, s, u, T=None):
    """Check U(s u) = U(s) * s(U(u)) for one pair of group elements.

    The action of s on t is twisted by the same unit alpha as the 0th face
    map, read off the data's normalization.  The law holds for the
    arithmetic flavors on the whole group.  For the purely geometric flavor
    it holds on the c = 0 subgroup, which is all that site sees; the
    (1 - alpha c t)^{-1} twist belongs to the arithmetic faces.

    The check runs on the cells of the three cochains as plain
    {t-degree: scalar} dicts (_cocycle_cells), s acting on those of U(u)
    through galois.act_slots.  For each cell (i, j) in row-major order, each
    t^k slot of the difference U(s) * s(U(u)) - U(s u) is one sum
    (galois.series_dot_vanishes): the pairs that land in slot k, in
    (l, a, b) order, then the U(s u) slot as the term lhs * 1 * (-1); the
    sum is tested for zero.  Every slot of a cocycle matrix claims at most
    N numerator digits, so by the stored form lemma that test gives the
    answer of the rule of a difference between the U(s u) slot and the slot
    Mat.__mul__'s product would form.  The first cell with a slot that does
    not vanish is the witness, and no later cell is formed.  No scalar of
    the right side or of the difference, no series, matrix or residual is
    formed.

    Raises ValueError when s and u differ in dimension, and, as
    cocycle_matrix does, HorizonTooSmall for T > D + 1 and
    ValidationFailure when their dimension is not the module's.
    """
    strat = _as_strat(data)
    su = s * u
    T = strat.cfg.cutoffs.T if T is None else T
    lhs = _cocycle_cells(strat, su, T)
    left = _cocycle_cells(strat, s, T)
    base = strat.base
    acted = act_slots(s, _cocycle_cells(strat, u, T), base, T, alpha=strat.braid_unit())
    one, dot = base.one(), strat.cfg.dot
    r = strat.rank
    for i in range(r):
        row = [cell.items() for cell in left[i * r : (i + 1) * r]]
        for j in range(r):
            col = [cell.items() for cell in acted[j::r]]
            if not series_dot_vanishes(row, col, lhs[i * r + j], T, one, dot):
                return {"ok": False, "witness": (i, j)}
    return {"ok": True, "witness": None}


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
        vals = [a.min_val() for row in rows for a in row]
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


def _embed_mat(mat, fring):
    ring = fring.base
    T = fring.T
    return mat.map(
        lambda a: FormalCElem.scalar(ring, T, ring.from_scalar(a)),
        ring=fring,
    )


def _embed_series_mat(mat, fring):
    ring = fring.base
    T = fring.T
    return mat.map(
        lambda e: FormalCElem(ring, T, {m: ring.from_scalar(v) for m, v in e.coeffs.items()}),
        ring=fring,
    )


def _t_shift(e):
    return FormalCElem(e.base, e.T, {m + 1: v for m, v in e.coeffs.items()})


def _theta_table(strat, T):
    """{I: Theta^I} for |I| < T, read off the stratification as A_{0,I}."""
    return {index: A for (n, index), A in strat.coeffs.items() if n == 0 and sum(index) < T}


def period_kernel_rep(data, T=None, D=None):
    """B = sum_I Theta^I Y^[I] t^{|I|} with its inverse, both certified.

    Accepts a module, whose stratification is built to pd degree D, or a
    stratification, whose own D counts; Theta^I is its A_{0,I}.  Certifies
    that B's columns kill every -t theta_i + d/dY_i and that B * B(-Y) = 1;
    a residual raises KernelRankDeficit, since the columns then fail to
    fill out the kernel.  Needs T <= D + 1 so the retained t-slots are
    complete.
    """
    strat = _as_strat(data, D=D)
    cfg, r, D = strat.cfg, strat.rank, strat.D
    T = cfg.cutoffs.T if T is None else T
    if T > D + 1:
        raise HorizonTooSmall(f"t-order {T} needs pd degree {T - 1}, have {D}")
    ring = PdRing(cfg, strat.base, "rel-geom", 1, d=strat.d, D=D)
    fring = FormalRing(ring, T)
    cellsB = [[{} for _ in range(r)] for _ in range(r)]
    cellsBi = [[{} for _ in range(r)] for _ in range(r)]
    thetas = _theta_table(strat, T)
    for index, tp in thetas.items():
        m = sum(index)
        key = ring.encode((ring.y_id(k + 1, 1), ik) for k, ik in enumerate(index) if ik)
        for i in range(r):
            for j in range(r):
                a = tp.entry(i, j)
                if a.droppable():
                    continue
                cellsB[i][j].setdefault(m, {})[key] = a
                cellsBi[i][j].setdefault(m, {})[key] = -a if m % 2 else a
    def _collect(cells):
        return Mat(
            fring,
            [
                [
                    FormalCElem(ring, T, {m: PdElement(ring, d) for m, d in cell.items()})
                    for cell in row
                ]
                for row in cells
            ],
        )
    B = _collect(cellsB)
    Binv = _collect(cellsBi)
    if not (B * Binv - _embed_mat(Mat.identity(strat.base, r), fring)).is_zero():
        raise KernelRankDeficit("period matrix is not invertible by the sign flip")
    for k in range(strat.d):
        theta_k = thetas.get(tuple(1 if i == k else 0 for i in range(strat.d)))
        if theta_k is None:
            continue  # T <= 1: B is constant and t theta_k B has no slot left
        vid = ring.y_id(k + 1, 1)
        d_b = B.map(lambda e: FormalCElem(ring, T, {m: v.partial(vid) for m, v in e.coeffs.items()}))
        t_theta_b = _embed_mat(theta_k, fring) * B.map(_t_shift)
        if not (d_b - t_theta_b).is_zero():
            raise KernelRankDeficit(f"columns do not kill -t theta_{k + 1} + d/dY_{k + 1}")
    return {"ring": ring, "T": T, "B": B, "Binv": Binv}


def _gamma_image(ring, s, k, a, chi_inv):
    """sigma(Y_k^[a]) = chi^{-a} sum_j Y_k^[j] n_k^{a-j} / (a-j)!."""
    cfg = ring.cfg
    M = cfg.p**cfg.N
    nk = s.n[k]
    out = None
    for j in range(a + 1):
        sc = cfg.k_from_int(pow(chi_inv, a, M) * nk ** (a - j)).div_int(math.factorial(a - j))
        term = ring.y(k + 1, 1, j).mul_scalar(ring.base.from_k(sc))
        out = term if out is None else out + term
    return out


def crosscheck_inverse_simpson(data, s, T=None, D=None):
    """B^{-1} F(sigma) B(sigma t, sigma Y) = U(sigma), checked in the pd ring.

    Accepts a module, whose stratification is built once to pd degree D, or
    a stratification; the period and both cocycles read it.  F is the
    cocycle of the phi-only sub-stratification; the group acts by
    sigma(t) = chi t (1 - alpha c t)^{-1} with the data's twist unit alpha,
    and sigma(Y_k) = chi^{-1}(Y_k + n_k).  Substituted images never raise
    the pd degree above the t-degree, so with T <= D + 1 the comparison is
    exact in every retained slot.
    """
    strat = _as_strat(data, D=D)
    if strat.flavor == "rel-geom":
        raise ValidationFailure("the crosscheck needs a phi")
    cfg = strat.cfg
    T = cfg.cutoffs.T if T is None else T
    per = period_kernel_rep(strat, T=T)
    ring, fring = per["ring"], per["B"].ring
    u_pd = _embed_series_mat(cocycle_matrix(strat, s, T=T), fring)
    arith = {(n, ()): A for (n, index), A in strat.coeffs.items() if sum(index) == 0}
    sa = Stratification(strat.base, "abs-arith", arith, strat.D, strat.rank, twist=strat.twist)
    f_pd = _embed_series_mat(cocycle_matrix(sa, GroupElt(cfg, (), s.c, s.chi), T=T), fring)
    # assemble B(sigma t, sigma Y) term by term
    chi_inv = pow(s.chi, -1, cfg.p**cfg.N)
    st = sigma_t(ring, s, T=T, alpha=strat.braid_unit())
    one_series = FormalCElem.scalar(ring, T, ring.one())
    st_pows = [one_series]
    for _ in range(min(strat.D, T - 1)):
        st_pows.append(st_pows[-1] * st)
    gamma_cache = {}
    b_sub = None
    for index, tp in _theta_table(strat, T).items():
        if tp.storage_zero():
            continue
        coeff = ring.one()
        for k, ik in enumerate(index):
            if ik == 0:
                continue
            if (k, ik) not in gamma_cache:
                gamma_cache[(k, ik)] = _gamma_image(ring, s, k, ik, chi_inv)
            coeff = coeff * gamma_cache[(k, ik)]
        series = st_pows[sum(index)].mul_scalar(coeff)
        term = _embed_mat(tp, fring).map(lambda e: e * series)
        b_sub = term if b_sub is None else b_sub + term
    conj = per["Binv"] * f_pd * b_sub
    residual = conj - u_pd
    ok = residual.is_zero()
    return {"ok": ok, "witness": None if ok else _first_nonzero(residual)}
