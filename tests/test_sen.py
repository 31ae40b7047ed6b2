import random

import pytest
from oracles import (
    agree,
    claims_agree,
    cocycle_law_naive,
    cocycle_matrix_naive,
    corrupted_strat,
    crosscheck_chain,
    gamma_image_chain,
    higgs_dual,
    higgs_tensor,
    series_dot_per_slot,
    series_mat_mul_chain,
)

from htlab import galois, higgs, linalg, make_base_config, pdring, sen, sparse
from htlab.base import BaseConfig, KElem
from htlab.chart import ChartElem, ChartRing
from htlab.cohomology import build_higgs_complex, cohomology
from htlab.errors import HorizonTooSmall, KernelRankDeficit, ValidationFailure
from htlab.galois import GroupElt, act_slots, series_dot, series_dot_vanishes
from htlab.higgs import (
    HiggsData,
    Stratification,
    _multi_indices,
    check_cocycle_strat,
    descent_matrix,
    log_from_smooth,
    stratification_from_higgs,
    validate_higgs,
)
from htlab.linalg import Mat
from htlab.pdring import PdElement, PdRing, evaluate_at_group
from htlab.samples import corpus, default_specs, sample_group, sample_higgs
from htlab.serialize import higgs_from_json, higgs_to_json
from htlab.sen import (
    cocycle_matrix,
    crosscheck_inverse_simpson,
    h0_fixed_points,
    period_kernel_rep,
    sen_operator,
    verify_cocycle_law,
)


@pytest.fixture(scope="module")
def point(cfg_u5):
    return ChartRing(cfg_u5, "point")


@pytest.fixture(scope="module")
def nilp2(cfg_u5, point):
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi = Mat.from_ints(point, [[0, 0], [0, 5]])
    return HiggsData(point, "abs-geom", [theta], phi)


def _rand_sigma(cfg, rng, d):
    p = cfg.p
    return GroupElt(
        cfg,
        tuple(rng.randrange(p**4) for _ in range(d)),
        rng.randrange(p**4),
        1 + p * rng.randrange(p**3),
    )


# ---------------------------------------------------------------------------
# the cocycle matrix
# ---------------------------------------------------------------------------


def test_cocycle_rank1_is_one_minus_beta_c_t(cfg_u5, point):
    h = HiggsData(point, "abs-arith", [], Mat.from_ints(point, [[-5]]))
    s = GroupElt(cfg_u5, (), 3, 7)
    [e] = cocycle_matrix(h, s)
    assert e[0].eq(cfg_u5.k_one())
    assert e[1].eq(cfg_u5.k_from_int(-15))
    assert all(e[k].is_zero() for k in (2, 5) if k in e)


def test_cocycle_frozen_geometric_series(cfg_u5, nilp2):
    # U(sigma) = [[1, n t g], [0, g]] with g = (1 - beta c t)^{-1}
    s = GroupElt(cfg_u5, (3,), 2, 7)
    u00, u01, u10, u11 = cocycle_matrix(nilp2, s)
    for k, want01, want11 in [(1, 3, 10), (2, 30, 100), (3, 300, 1000)]:
        assert u01[k].eq(cfg_u5.k_from_int(want01))
        assert u11[k].eq(cfg_u5.k_from_int(want11))
    assert agree(u00, {0: cfg_u5.k_one()})[0]
    assert all(v.is_zero() for v in u10.values())


def test_cocycle_first_order_term(cfg_u5, point):
    t1 = Mat.from_ints(point, [[0, 1], [0, 0]])
    t2 = Mat.from_ints(point, [[0, 2], [0, 0]])
    phi = Mat.from_ints(point, [[5, 0], [0, 10]])
    h = HiggsData(point, "abs-geom", [t1, t2], phi)
    rng = random.Random(3)
    for _ in range(5):
        s = _rand_sigma(cfg_u5, rng, 2)
        u = cocycle_matrix(h, s)
        want = phi.smul(s.c) + t1.smul(s.n[0]) + t2.smul(s.n[1])
        got = Mat(point, [[u[2 * i + j].get(1, point.zero()) for j in range(2)] for i in range(2)])
        assert got.eq(want)


def test_cocycle_identity_element(cfg_u5, nilp2):
    u = cocycle_matrix(nilp2, GroupElt.identity(cfg_u5, d=1))
    one = cfg_u5.k_one()
    assert all(agree(e, {0: one} if c in (0, 3) else {})[0] for c, e in enumerate(u))


def test_cocycle_t_order_capped_by_weight(cfg_u5, nilp2):
    strat = stratification_from_higgs(nilp2, D=3)
    with pytest.raises(HorizonTooSmall):
        cocycle_matrix(strat, GroupElt(cfg_u5, (1,), 1, 1), T=6)


# ---------------------------------------------------------------------------
# the cocycle law
# ---------------------------------------------------------------------------


def test_law_rank1_hand_identity(cfg_u5, point):
    # (1 - beta c_{su} t) = (1 - beta c_s t)(1 - beta c_u sigma_s(t))
    h = HiggsData(point, "abs-arith", [], Mat.from_ints(point, [[-5]]))
    rng = random.Random(11)
    for _ in range(10):
        s = _rand_sigma(cfg_u5, rng, 0)
        u = _rand_sigma(cfg_u5, rng, 0)
        assert verify_cocycle_law(h, s, u)["ok"]


def test_law_abs_geom_pairs(cfg_u5, nilp2):
    strat = stratification_from_higgs(nilp2)
    rng = random.Random(12)
    for _ in range(8):
        s = _rand_sigma(cfg_u5, rng, 1)
        u = _rand_sigma(cfg_u5, rng, 1)
        assert verify_cocycle_law(strat, s, u)["ok"]


def test_law_rel_geom_on_geometric_subgroup(cfg_u5, point):
    h = HiggsData(point, "rel-geom", [Mat.from_ints(point, [[0, 3], [0, 0]])], None)
    rng = random.Random(13)
    for _ in range(6):
        s = GroupElt(cfg_u5, (rng.randrange(5**4),), 0, 1 + 5 * rng.randrange(60))
        u = GroupElt(cfg_u5, (rng.randrange(5**4),), 0, 1 + 5 * rng.randrange(60))
        assert verify_cocycle_law(h, s, u)["ok"]


def test_law_ramified(cfg_r2):
    point2 = ChartRing(cfg_r2, "point")
    theta = Mat.from_ints(point2, [[0, 1], [0, 0]])
    phi = Mat.from_ints(point2, [[0, 0], [0, 4]])
    h = HiggsData(point2, "abs-geom", [theta], phi)
    rng = random.Random(14)
    for _ in range(5):
        s = _rand_sigma(cfg_r2, rng, 1)
        u = _rand_sigma(cfg_r2, rng, 1)
        assert verify_cocycle_law(h, s, u)["ok"]


def test_law_detects_corruption(cfg_u5, nilp2):
    good = stratification_from_higgs(nilp2)
    bump = Mat.zero(nilp2.base, 2).add_scalar_diag(cfg_u5.k_from_int(5))
    coeffs = dict(good.coeffs)
    coeffs[(2, (0,))] = coeffs[(2, (0,))] + bump
    strat = Stratification(good.base, good.flavor, coeffs, good.D, good.rank, twist=good.twist)
    s = GroupElt(cfg_u5, (1,), 1, 6)
    u = GroupElt(cfg_u5, (2,), 3, 11)
    report = verify_cocycle_law(strat, s, u)
    assert not report["ok"]
    assert report["witness"] is not None


# ---------------------------------------------------------------------------
# Sen operator and fixed points
# ---------------------------------------------------------------------------


def test_sen_operator_values(cfg_u5, point, nilp2):
    h = HiggsData(point, "abs-arith", [], Mat.from_ints(point, [[-5]]))
    assert sen_operator(h).eq(Mat.identity(point, 1))
    assert sen_operator(nilp2).eq(Mat.from_ints(point, [[0, 0], [0, -1]]))


def test_sen_of_smoothly_normalized_input(cfg_u5, point):
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi_s = Mat.from_ints(point, [[0, 0], [0, 1]])
    hs = HiggsData(point, "abs-geom", [theta], phi_s, twist="smooth")
    with pytest.raises(ValidationFailure):
        sen_operator(hs)
    # E'(pi) = 1 here, so the operator is just -phi_smooth
    got = sen_operator(log_from_smooth(hs))
    assert got.eq(-phi_s)


def test_sen_smooth_relation_ramified(cfg_r2):
    point2 = ChartRing(cfg_r2, "point")
    theta = Mat.from_ints(point2, [[0, 1], [0, 0]])
    ep = cfg_r2.Ep
    phi_s = Mat(point2, [[cfg_r2.k_zero(), cfg_r2.k_zero()], [cfg_r2.k_zero(), ep]])
    hs = HiggsData(point2, "abs-geom", [theta], phi_s, twist="smooth")
    got = sen_operator(log_from_smooth(hs))
    want = phi_s.mul_scalar(-ep.inv())
    assert got.eq(want)


def test_fixed_points_shapes(cfg_u5, point, nilp2):
    report = h0_fixed_points(nilp2)
    assert report["dim"] == 1
    v = report["basis"][0]
    strat = stratification_from_higgs(nilp2)
    for key in strat.indices():
        if key[0] + sum(key[1]) >= 1:
            assert (strat.coeffs[key] * Mat(point, [[x] for x in v])).is_zero()
    full = HiggsData(point, "abs-arith", [], Mat.zero(point, 2))
    assert h0_fixed_points(full)["dim"] == 2
    none = HiggsData(point, "abs-arith", [], Mat.from_ints(point, [[-5]]))
    assert h0_fixed_points(none)["dim"] == 0


def test_fixed_points_match_rational_h0(cfg_u5, point, nilp2):
    for h in (
        nilp2,
        HiggsData(point, "abs-arith", [], Mat.zero(point, 2)),
        HiggsData(point, "abs-arith", [], Mat.from_ints(point, [[-5]])),
    ):
        rep = build_higgs_complex(h)
        assert h0_fixed_points(h)["dim"] == cohomology(rep, 0)["free_rank"]


def test_fixed_points_where_a_pivot_vanishes_at_precision(cfg_r2):
    # on p=2 e=2 some stacked coefficients have entries that vanish at the
    # working precision; the kernel must come out without inverting them
    point2 = ChartRing(cfg_r2, "point")
    assert h0_fixed_points(corpus(point2, 0)[8])["dim"] == 0
    for seed in range(6):
        for h in corpus(point2, seed):
            rep = build_higgs_complex(h)
            assert h0_fixed_points(h)["dim"] == cohomology(rep, 0)["free_rank"]


# ---------------------------------------------------------------------------
# the period matrix and the conjugation crosscheck
# ---------------------------------------------------------------------------


def test_period_rep_frozen(cfg_u5, nilp2):
    per = period_kernel_rep(nilp2)
    ring = per["ring"]
    b01 = per["B"][1]
    key = ((ring.y_id(1, 1), 1),)
    assert b01[1].coeff(key).eq(cfg_u5.k_one())
    assert 0 not in b01
    assert per["Binv"][1][1].coeff(key).eq(-cfg_u5.k_one())
    assert agree(per["B"][0], {0: ring.one()})[0]


def test_period_rep_rejects_noncommuting(cfg_u5, point):
    t1 = Mat.from_ints(point, [[0, 1], [0, 0]])
    t2 = Mat.from_ints(point, [[0, 0], [1, 0]])
    h = HiggsData(point, "abs-geom", [t1, t2], Mat.zero(point, 2))
    with pytest.raises(KernelRankDeficit):
        period_kernel_rep(h)


def test_period_rep_rejects_a_period_outside_the_kernel(cfg_u5, point):
    """d = 1 rel-geom, theta = E_12, with only Theta^(3) changed from 0 to
    theta.  B * B(-Y) = 1 still holds: at weight 3 the two odd terms
    +-Theta^(3) cancel, and every product of two members of {theta,
    Theta^(3)} is 0.  So the kernel identity is the one that fails, at
    -t theta Theta^(2) + Theta^(3) = theta in the t^3 slot."""
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    good = stratification_from_higgs(HiggsData(point, "rel-geom", [theta], None))
    coeffs = dict(good.coeffs)
    coeffs[(0, (3,))] = theta
    strat = Stratification(point, "rel-geom", coeffs, good.D, 2)
    with pytest.raises(KernelRankDeficit, match="do not kill"):
        period_kernel_rep(strat)


def test_crosscheck_nilp2(cfg_u5, nilp2):
    rng = random.Random(21)
    for _ in range(6):
        s = _rand_sigma(cfg_u5, rng, 1)
        assert crosscheck_inverse_simpson(nilp2, s)["ok"]


def test_crosscheck_short_window(cfg_u5, nilp2):
    # the acceptance window: degree < 4 in both t and the pd variables
    s = GroupElt(cfg_u5, (4,), 9, 11)
    assert crosscheck_inverse_simpson(stratification_from_higgs(nilp2, D=3), s, T=4)["ok"]


def test_crosscheck_two_thetas(cfg_u5, point):
    t1 = Mat.from_ints(point, [[0, 1], [0, 0]])
    t2 = Mat.from_ints(point, [[0, 2], [0, 0]])
    phi = Mat.from_ints(point, [[5, 0], [0, 10]])
    h = HiggsData(point, "abs-geom", [t1, t2], phi)
    rng = random.Random(22)
    for _ in range(4):
        s = _rand_sigma(cfg_u5, rng, 2)
        assert crosscheck_inverse_simpson(h, s)["ok"]


def test_crosscheck_ramified(cfg_r2):
    point2 = ChartRing(cfg_r2, "point")
    theta = Mat.from_ints(point2, [[0, 1], [0, 0]])
    phi = Mat.from_ints(point2, [[0, 0], [0, 4]])
    h = HiggsData(point2, "abs-geom", [theta], phi)
    rng = random.Random(23)
    for _ in range(3):
        s = _rand_sigma(cfg_r2, rng, 1)
        assert crosscheck_inverse_simpson(stratification_from_higgs(h, D=3), s, T=4)["ok"]


def test_crosscheck_detects_broken_braiding(cfg_u5, point):
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi = Mat.from_ints(point, [[0, 0], [0, 7]])
    h = HiggsData(point, "abs-geom", [theta], phi)
    s = GroupElt(cfg_u5, (1,), 2, 6)
    assert not crosscheck_inverse_simpson(h, s)["ok"]


def test_crosscheck_builds_the_theta_powers_once(cfg_u5, nilp2, monkeypatch):
    # the period, U(sigma) and B(sigma t, sigma Y) all read one stratification
    calls = []
    real = higgs._theta_powers
    monkeypatch.setattr(higgs, "_theta_powers", lambda h, maxw, *rest: calls.append(maxw) or real(h, maxw, *rest))
    assert crosscheck_inverse_simpson(nilp2, GroupElt(cfg_u5, (4,), 9, 11))["ok"]
    assert calls == [cfg_u5.cutoffs.D]


def _copy(strat):
    """A new stratification with strat's coefficients, so nothing kept on strat."""
    return Stratification(strat.base, strat.flavor, strat.coeffs, strat.D, strat.rank, twist=strat.twist)


def test_crosscheck_builds_the_period_once_per_stratification(monkeypatch):
    """8 sigma crosschecked on one stratification build its period once (the
    one pd ring sen builds is the period's), and each verdict is the one a
    copy gives with its period built anew, on the abs modules of corpus
    seed 0 over the p2 point and chart bases, p2 chart module 13 (the probe
    set's residual) among them, and over p3f2."""
    built = []
    monkeypatch.setattr(sen, "PdRing", lambda *a, **k: built.append(a) or PdRing(*a, **k))
    seen = {"ok": 0, "residual": 0}
    for name, mode in (("p2", "point"), ("p2", "chart"), ("p3f2", "point")):
        p, E, f = PROBE_BASES[name]
        cfg = make_base_config(p, E, f=f)
        base = ChartRing(cfg, mode, d=mode == "chart", r=mode == "chart")
        rng = random.Random(f"period-{name}-{mode}")
        for h in corpus(base, 0):
            if h.flavor == "rel-geom":
                continue
            strat = stratification_from_higgs(h)
            sigmas = [sample_group(cfg, rng, h.d) for _ in range(8)]
            built.clear()
            got = [crosscheck_inverse_simpson(strat, s) for s in sigmas]
            assert len(built) == 1
            assert got == [crosscheck_inverse_simpson(_copy(strat), s) for s in sigmas]
            assert len(built) == 9
            for rep in got:
                seen["ok" if rep["ok"] else "residual"] += 1
    assert seen["ok"] > 300 and seen["residual"], seen


def test_a_failing_period_raises_on_every_call(cfg_u5, point):
    """Only a certified period is kept: a stratification whose period fails
    raises KernelRankDeficit on every call, from period_kernel_rep and from
    the crosscheck."""
    t1 = Mat.from_ints(point, [[0, 1], [0, 0]])
    t2 = Mat.from_ints(point, [[0, 0], [1, 0]])
    strat = stratification_from_higgs(HiggsData(point, "abs-geom", [t1, t2], Mat.zero(point, 2)))
    s = GroupElt(cfg_u5, (1, 2), 3, 6)
    for _ in range(2):
        with pytest.raises(KernelRankDeficit):
            period_kernel_rep(strat)
        with pytest.raises(KernelRankDeficit):
            crosscheck_inverse_simpson(strat, s)


def test_the_kept_period_is_not_handed_out(cfg_u5, nilp2):
    """period_kernel_rep hands out copies of the kept cells: changing what it
    returned changes neither its next answer nor the crosscheck."""
    strat = stratification_from_higgs(nilp2)
    want = period_kernel_rep(_copy(strat))
    per = period_kernel_rep(strat)
    for key in ("B", "Binv"):
        per[key][0].clear()
        per[key][1] = {}
        per[key].append({})
    again = period_kernel_rep(strat)
    for key in ("B", "Binv"):
        assert len(again[key]) == len(want[key])
        assert all(agree(x, y) == (True, False) for x, y in zip(again[key], want[key]))
    assert crosscheck_inverse_simpson(strat, GroupElt(cfg_u5, (4,), 9, 11))["ok"]


def test_the_period_on_a_point_base_forms_no_scalar(monkeypatch):
    """Both certificates of the period test each slot by pdring.dot_vanishes,
    the _dot_vanishes of pd scalars: on a point base period_kernel_rep calls
    neither BaseConfig.reduce_terms nor PdElement._dot, on the modules of
    the p5 corpus at seed 0 with d >= 1."""
    cfg = make_base_config(5, [-5])
    strats = [stratification_from_higgs(h) for h in corpus(ChartRing(cfg, "point"), 0) if h.d >= 1]
    calls, tests = [], []
    reduce, dot, vanish = BaseConfig.reduce_terms, PdElement._dot, PdElement._dot_vanishes
    monkeypatch.setattr(BaseConfig, "reduce_terms", lambda self, *a: calls.append("reduce") or reduce(self, *a))
    monkeypatch.setattr(PdElement, "_dot", staticmethod(lambda *a: calls.append("dot") or dot(*a)))
    monkeypatch.setattr(PdElement, "_dot_vanishes", staticmethod(lambda *a: tests.append(1) or vanish(*a)))
    for strat in strats:
        period_kernel_rep(strat)
    assert len(strats) == 18 and tests and not calls


@pytest.mark.parametrize("spec", ["p5", "p2e2", "p3f2", "chart"])
def test_gamma_image_is_the_chain(spec):
    """sen._gamma_image, one pd element over its a + 1 keys, has the stored
    form, key order and flag of oracles.gamma_image_chain (each term Y_k^[j]
    times its scalar, added in increasing j) for every a <= D, with n_k
    zero, a unit, divisible by p or by p^(N-1), on point and chart bases."""
    cfg = {
        "p5": make_base_config(5, [-5]),
        "p2e2": make_base_config(2, [-2, 0]),
        "p3f2": make_base_config(3, [-3], f=2),
        "chart": make_base_config(5, [-5]),
    }[spec]
    base = ChartRing(cfg, "chart", d=1, r=1) if spec == "chart" else ChartRing(cfg, "point")
    d, D = 2, 5
    ring = PdRing(base, "rel-geom", 1, d=d, D=D)
    p, M = cfg.p, cfg.p**cfg.N
    rng = random.Random(f"gamma-{spec}")
    seen = {"dropped": 0, "low-zero": 0}
    for nk in (0, 1, p, p ** (cfg.N - 1), rng.randrange(M)):
        s = GroupElt(cfg, (nk, rng.randrange(M)), rng.randrange(M), 1 + p * rng.randrange(p**3))
        chi_inv = pow(s.chi, -1, M)
        for k in range(d):
            for a in range(D + 1):
                got = sen._gamma_image(ring, s, k, a, chi_inv)
                assert _form(got) == _form(gamma_image_chain(ring, s, k, a, chi_inv)), (nk, k, a)
                seen["dropped"] += len(got.coeffs) < a + 1
                seen["low-zero"] += any(c.is_zero() for c in got.coeffs.values())
    assert all(seen.values()), seen


def test_period_of_a_module_is_the_period_of_its_stratification(nilp2):
    # a module's stratification is built at the config's cutoffs.D
    strat = stratification_from_higgs(nilp2)
    by_module, by_strat = period_kernel_rep(nilp2, T=4), period_kernel_rep(strat, T=4)
    for key in ("B", "Binv"):
        assert all(agree(x, y)[0] for x, y in zip(by_module[key], by_strat[key]))


def test_law_smooth_twist_uses_its_own_alpha(cfg_u5, point):
    # [theta, phi] = E'(pi) theta here, and sigma must move t with the same unit
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi = Mat.from_ints(point, [[0, 0], [0, 1]])
    h = HiggsData(point, "abs-geom", [theta], phi, twist="smooth")
    rng = random.Random(31)
    for _ in range(6):
        s = _rand_sigma(cfg_u5, rng, 1)
        u = _rand_sigma(cfg_u5, rng, 1)
        assert s.c != 0 or u.c != 0
        assert verify_cocycle_law(h, s, u)["ok"]


def test_law_smooth_twist_ramified(cfg_r2):
    point2 = ChartRing(cfg_r2, "point")
    ep = cfg_r2.Ep
    theta = Mat.from_ints(point2, [[0, 1], [0, 0]])
    phi = Mat(point2, [[point2.zero(), point2.zero()], [point2.zero(), point2.from_k(ep)]])
    h = HiggsData(point2, "abs-geom", [theta], phi, twist="smooth")
    rng = random.Random(32)
    for _ in range(4):
        s = _rand_sigma(cfg_r2, rng, 1)
        u = _rand_sigma(cfg_r2, rng, 1)
        assert verify_cocycle_law(h, s, u)["ok"]


@pytest.mark.parametrize("p,E_coeffs", [(5, [-5]), (2, [-2, 0])], ids=["p5", "p2e2"])
def test_wrong_twist_unit_is_caught(p, E_coeffs):
    # negative control: the smooth stratification of [theta, phi] = E'(pi) theta,
    # relabelled log, twists d^0 and sigma(t) by beta instead of E'(pi); the
    # descent check and the law on pairs where s moves t must both catch it
    cfg = make_base_config(p, E_coeffs)
    point = ChartRing(cfg, "point")
    zero = point.zero()
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi = Mat(point, [[zero, zero], [zero, point.from_k(cfg.Ep)]])
    strat = stratification_from_higgs(HiggsData(point, "abs-geom", [theta], phi, twist="smooth"))
    wrong = Stratification(strat.base, strat.flavor, strat.coeffs, strat.D, strat.rank, twist="log")
    assert wrong.braid_unit() != strat.braid_unit()
    assert check_cocycle_strat(strat)["ok"]
    assert not check_cocycle_strat(wrong)["ok"]
    rng = random.Random(1)
    moved = 0
    for _ in range(6):
        s, u = sample_group(cfg, rng, 1), sample_group(cfg, rng, 1)
        assert verify_cocycle_law(strat, s, u, T=6)["ok"]
        # the unit shows only where s moves t and U(u) has a t-term to move
        if s.c and (u.c or any(u.n)):
            moved += 1
            assert not verify_cocycle_law(wrong, s, u, T=6)["ok"], (s, u)
    assert moved >= 5


def test_crosscheck_smooth_twist(cfg_u5, point):
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi = Mat.from_ints(point, [[0, 0], [0, 1]])
    h = HiggsData(point, "abs-geom", [theta], phi, twist="smooth")
    rng = random.Random(33)
    for _ in range(4):
        s = _rand_sigma(cfg_u5, rng, 1)
        assert crosscheck_inverse_simpson(h, s)["ok"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known defect: chart-cocycle-law")
def test_law_on_a_valid_ramified_chart_module(cfg_r2):
    # validate_higgs and check_cocycle both pass on this chart-base module,
    # yet the cocycle law leaves a residual in entry (0, 2).  When the defect
    # is fixed this test passes, and the mark must go.
    from htlab.higgs import check_cocycle, validate_higgs
    from htlab.samples import sample_group, sample_higgs

    base = ChartRing(cfg_r2, "chart", d=1, r=1)
    h = sample_higgs(base, random.Random(4), "abs-geom", rank=3, d=2, twist="smooth")
    if not (validate_higgs(h)["ok"] and check_cocycle(h)["ok"]):
        pytest.fail("the reproducer no longer passes validation")
    rng = random.Random(0)
    s = sample_group(cfg_r2, rng, 2)
    u = sample_group(cfg_r2, rng, 2)
    law = verify_cocycle_law(h, s, u)
    assert law["ok"], f"residual at {law['witness']}"


PROBE_BASES = {
    "p2": (2, [-2], 1),
    "p3": (3, [-3], 1),
    "p2e2": (2, [-2, 0], 1),
    "p3e2": (3, [-3, 0], 1),
    "p5": (5, [-5], 1),
    "p3f2": (3, [-3], 2),
}


def test_crosscheck_matches_the_chain_on_the_probe_set():
    """The crosscheck's verdict and witness are those of oracles.crosscheck_chain
    (whole matrices, products and sums as chains, the residual by the rule of
    a difference), and the period raises nothing, on the abs modules of
    corpus seeds 0-2 on six point bases and of the chart (d = 1, r = 1)
    corpus at seed 0, one sigma each, and 40 sigma on p2 chart module 13."""
    seen = {"ok": 0, "residual": 0}
    for name, (p, E, f) in PROBE_BASES.items():
        cfg = make_base_config(p, E, f=f)
        blocks = [("point", seed, ChartRing(cfg, "point")) for seed in range(3)]
        blocks.append(("chart", 0, ChartRing(cfg, "chart", d=1, r=1)))
        for mode, seed, base in blocks:
            rng = random.Random(1000 + seed)
            for i, h in enumerate(corpus(base, seed)):
                if h.flavor == "rel-geom":
                    continue
                strat = stratification_from_higgs(h)
                known = (name, mode, i) == ("p2", "chart", 13)
                for _ in range(40 if known else 1):
                    s = sample_group(cfg, rng, h.d)
                    got = crosscheck_inverse_simpson(strat, s)
                    assert got == crosscheck_chain(strat, s), (name, mode, seed, i, s)
                    # the one residual of the probe set is item 2's chart defect
                    assert got["ok"] or (known and got["witness"] == (0, 1)), (name, mode, seed, i, s, got)
                    seen["ok" if got["ok"] else "residual"] += 1
    assert seen["ok"] > 400 and seen["residual"], seen


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known defect: chart-cocycle-law")
def test_crosscheck_on_a_valid_chart_module():
    # validate_higgs and check_cocycle both pass on p2 chart module 13 of the
    # probe set, yet the crosscheck leaves a residual in entry (0, 1).  When
    # the defect is fixed this test passes, and the mark must go.
    from htlab.higgs import check_cocycle

    cfg = make_base_config(2, [-2])
    h = corpus(ChartRing(cfg, "chart", d=1, r=1), 0)[13]
    if not (validate_higgs(h)["ok"] and check_cocycle(h)["ok"]):
        pytest.fail("the reproducer no longer passes validation")
    strat = stratification_from_higgs(h)
    rng = random.Random(1000)
    for _ in range(40):
        s = sample_group(cfg, rng, h.d)
        rep = crosscheck_inverse_simpson(strat, s)
        assert rep["ok"], f"residual at {rep['witness']} for {s}"


# ---------------------------------------------------------------------------
# the cocycle plan: U(sigma) evaluated on the stratification's support
# ---------------------------------------------------------------------------


def _form(x):
    if isinstance(x, KElem):
        return (x.u, x.shift, x.prec)
    return (x.truncated, [(exps, _form(c)) for exps, c in x.coeffs.items()])


def _rand_k(cfg, rng):
    """Mostly zeros at full precision, with zeros known to fewer digits, denominators and short precisions."""
    kind = rng.choice(["zero"] * 5 + ["low-zero", "int", "int", "den"])
    N = cfg.N
    if kind == "zero":
        return cfg.k_zero()
    if kind == "low-zero":
        return cfg.k_zero(N - rng.choice([1, 2, 3]))
    M = cfg.p**N
    coeffs = [rng.randrange(M) if cfg.f == 1 else tuple(rng.randrange(M) for _ in range(cfg.f)) for _ in range(cfg.e)]
    shift = rng.choice([1, 2, 4, 9]) if kind == "den" else 0
    return cfg.k_from_coeffs(coeffs, N + shift - rng.choice([0, 0, 1, 3]), shift)


def _rand_entry(base, rng):
    if base.is_point:
        return _rand_k(base.cfg, rng)
    kind = rng.random()
    if kind < 0.1:
        return ChartElem(base, {}, truncated=True)
    if kind < 0.5:
        return base.zero()
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[(0,) * base.d + (rng.randint(0, 2),)] = _rand_k(base.cfg, rng)
    return ChartElem(base, terms, truncated=rng.random() < 0.1)


def _random_strat(base, rng, rank, d, D):
    """A stratification with random coefficients, keys shuffled, a third of the matrices zero."""
    keys = [(n, index) for index in _multi_indices(d, D) for n in range(D - sum(index) + 1)]
    rng.shuffle(keys)
    coeffs = {}
    for key in keys:
        if rng.random() < 0.35:
            coeffs[key] = Mat.zero(base, rank)
        else:
            coeffs[key] = Mat(base, [[_rand_entry(base, rng) for _ in range(rank)] for _ in range(rank)])
    return Stratification(base, "abs-geom", coeffs, D, rank)


def _sigmas(cfg, rng, d):
    p, N = cfg.p, cfg.N

    def pick():
        return rng.choice([0, 1, p, rng.randrange(p**N)])

    out = [GroupElt(cfg, tuple(pick() for _ in range(d)), pick(), 1 + p * rng.randrange(p**3)) for _ in range(4)]
    # p^N divides c^n for n >= 2
    out.append(GroupElt(cfg, tuple(rng.randrange(p**N) for _ in range(d)), p ** ((N + 1) // 2), 1))
    out.append(GroupElt(cfg, (0,) * d, 0, 1))
    return out


def _plan_cases(cfg, rng):
    """(strat, T) pairs: modules, one with theta_1 known to N - 2 digits, and random stratifications."""
    point = ChartRing(cfg, "point")
    chart = ChartRing(cfg, "chart", d=1, r=1)
    cases = []
    for base in (point, chart):
        for flavor, rank, d, D, T in (("abs-geom", 3, 2, 5, 6), ("rel-geom", 2, 1, 5, 4), ("abs-arith", 1, 0, 4, 5)):
            h = sample_higgs(base, rng, flavor, rank, d=d)
            if d:
                theta = [h.theta[0].map(lambda a: a.clamp_prec(cfg.N - 2))] + h.theta[1:]
                h = HiggsData(base, flavor, theta, h.phi, twist=h.twist)
            cases.append((stratification_from_higgs(h, D=D), T))
        for rank, d, D, T in ((2, 1, 5, 6), (3, 2, 4, 3), (1, 1, 5, 6)):
            cases.append((_random_strat(base, rng, rank, d, D), T))
    return cases


def _assert_naive_chain(strat, s, T):
    """cocycle_matrix agrees with the naive chain in stored form, weight order and flag."""
    want = [cell for row in cocycle_matrix_naive(strat, s, T) for cell in row]
    for e, cell in zip(cocycle_matrix(strat, s, T=T), want, strict=True):
        assert [(m, _form(v)) for m, v in e.items()] == [(m, _form(v)) for m, v in cell.items()]


def test_u_sigma_is_eps_evaluated_at_sigma():
    """U(sigma) is the stratification eps evaluated at sigma: each cell of
    cocycle_matrix(strat, sigma) equals evaluate_at_group(eps_ij, [sigma]),
    eps = descent_matrix(strat), on corpus seed 0.  On the six point bases
    the two agree in stored form, compared as dicts; on a d = 1, r = 1
    chart base in value (oracles.agree), since there the evaluation clamps
    each present slot where U(sigma) charges nothing for a chart zero.
    sigma runs over three sample_group draws, the identity and (0, c, 1):
    where every variable is 0, every slot of positive weight is exactly 0."""
    cells = 0
    for name, (p, E, f) in PROBE_BASES.items():
        cfg = make_base_config(p, E, f=f)
        for base in (ChartRing(cfg, "point"), ChartRing(cfg, "chart", d=1, r=1)):
            rng = random.Random(f"bridge-{name}")
            for i, h in enumerate(corpus(base, 0)):
                strat = stratification_from_higgs(h)
                eps = [x for row in descent_matrix(strat).rows for x in row]
                sigmas = [sample_group(cfg, rng, h.d) for _ in range(3)]
                sigmas += [GroupElt.identity(cfg, h.d), GroupElt(cfg, (0,) * h.d, rng.randrange(1, p**4), 1)]
                for s in sigmas:
                    for c, (u, e) in enumerate(zip(cocycle_matrix(strat, s), eps, strict=True)):
                        v = evaluate_at_group(e, [s])
                        if base.is_point:
                            want = {m: _form(x) for m, x in u.items()}
                            assert {m: _form(x) for m, x in v.items()} == want, (name, i, s, c)
                        else:
                            assert agree(u, v)[0], (name, i, s, c)
                        cells += 1
    assert cells == 2 * 6 * 5 * 112


def _layout_counts(strat):
    """Dead and live cells, and weights whose least included q is below 1, over the compiled layouts."""
    counts = {"dead": 0, "live": 0, "q<1": 0}
    for layout in strat._cocycle_layouts.values():
        for _, _, live, dead_cells, dead in layout:
            counts["dead"] += len(dead_cells)
            counts["live"] += len(live)
            counts["q<1"] += dead is not None and dead.abs_prec < 1
    return counts


@pytest.mark.parametrize("spec", ["p5", "p2e2", "p3f2"])
def test_cocycle_plan_matches_the_naive_chain(spec):
    cfg = {
        "p5": make_base_config(5, [-5]),
        "p2e2": make_base_config(2, [-2, 0]),
        "p3f2": make_base_config(3, [-3], f=2),
    }[spec]
    rng = random.Random(f"plan-{spec}")
    cases = _plan_cases(cfg, rng)
    if spec == "p2e2":
        # weight 10 has q = 8 - v_2(10!) = 0: its zeros have no digit
        point = ChartRing(cfg, "point")
        h = sample_higgs(point, rng, "abs-geom", 3, d=1)
        cases += [(stratification_from_higgs(h, D=10), 11), (_random_strat(point, rng, 2, 1, 10), 11)]
    counts = {}
    for strat, T in cases:
        for s in _sigmas(cfg, rng, strat.d):
            _assert_naive_chain(strat, s, T)
        for key, n in _layout_counts(strat).items():
            counts[key] = counts.get(key, 0) + n
    assert counts["dead"] and counts["live"]
    assert bool(counts["q<1"]) == (spec == "p2e2")


def _count_builds(monkeypatch):
    """The key of each layout compiled, in order."""
    layouts = []
    layout = sen._cocycle_layout
    monkeypatch.setattr(sen, "_cocycle_layout", lambda strat, key: layouts.append(key) or layout(strat, key))
    return layouts


def _layout_key(s, T):
    return (T, s.c == 0, *(nk == 0 for nk in s.n))


def test_cocycle_layouts_are_compiled_once_per_key(cfg_u5, nilp2, monkeypatch):
    """Each distinct key compiles one layout, and the stratification keeps
    exactly those layouts."""
    layouts = _count_builds(monkeypatch)
    strat = stratification_from_higgs(nilp2)
    rng = random.Random(15)
    keys = set()
    for _ in range(6):
        s, u = _rand_sigma(cfg_u5, rng, 1), _rand_sigma(cfg_u5, rng, 1)
        assert verify_cocycle_law(strat, s, u)["ok"]
        keys |= {_layout_key(x, cfg_u5.cutoffs.T) for x in (s, u, s * u)}
    assert sorted(layouts) == sorted(keys)
    assert sorted(strat._cocycle_layouts) == sorted(keys)


def test_crosscheck_reads_f_off_the_module_s_stratification(cfg_u5, nilp2, monkeypatch):
    """F(sigma) is the cocycle of the module's own stratification at n = 0:
    8 sigma crosschecked on one stratification construct no Stratification
    and compile one layout per distinct key of U(sigma) and F(sigma) met,
    which the stratification keeps."""
    strat = stratification_from_higgs(nilp2)
    rng = random.Random(33)
    sigmas = [_rand_sigma(cfg_u5, rng, 1) for _ in range(7)] + [GroupElt(cfg_u5, (0,), 9, 11)]
    built = []
    init = Stratification.__init__
    monkeypatch.setattr(Stratification, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    layouts = _count_builds(monkeypatch)
    assert all(crosscheck_inverse_simpson(strat, s)["ok"] for s in sigmas)
    T = cfg_u5.cutoffs.T
    keys = {_layout_key(x, T) for s in sigmas for x in (s, GroupElt(cfg_u5, (0,), s.c, s.chi))}
    assert not built
    assert sorted(layouts) == sorted(keys)
    assert sorted(strat._cocycle_layouts) == sorted(keys)


def _zero_pattern_sigmas(cfg, rng, d):
    """One sigma of each zero pattern: c = 0, each n_k = 0 in turn, then
    c = p^ceil(N/2), whose c^n vanishes mod p^N for n >= 2 but not as an int,
    so its coefficients stay included, then nothing zero, then the identity."""
    p, N = cfg.p, cfg.N

    def sigma(c, zero=None):
        n = tuple(0 if k == zero else rng.randrange(1, p**N) for k in range(d))
        return GroupElt(cfg, n, c, 1 + p * rng.randrange(p**3))

    out = [sigma(0)] + [sigma(rng.randrange(1, p**N), k) for k in range(d)]
    out += [sigma(p ** ((N + 1) // 2)), sigma(rng.randrange(1, p**N)), GroupElt.identity(cfg, d)]
    return out


@pytest.mark.parametrize("spec", ["p5", "p2e2", "p3f2", "chart"])
def test_cocycle_layout_is_keyed_by_t_order_and_zero_pattern(spec, monkeypatch):
    """Interleaved t-orders and zero patterns, each run twice: every result is
    the naive chain's, and each key compiles its layout once.  A layout keyed
    without T, or without one n_k == 0, is reused where it leaves terms out
    or lets slots past T in."""
    cfg = {
        "p5": make_base_config(5, [-5]),
        "p2e2": make_base_config(2, [-2, 0]),
        "p3f2": make_base_config(3, [-3], f=2),
        "chart": make_base_config(5, [-5]),
    }[spec]
    base = ChartRing(cfg, "chart", d=1, r=1) if spec == "chart" else ChartRing(cfg, "point")
    rng = random.Random(f"layout-{spec}")
    d, D = 2, 4
    strat = _random_strat(base, rng, 2, d, D)
    sigmas = _zero_pattern_sigmas(cfg, rng, d)
    orders = (1, 3, D + 1)
    layouts = _count_builds(monkeypatch)
    for _ in range(2):
        for s in sigmas:
            for T in orders:
                _assert_naive_chain(strat, s, T)
    keys = {_layout_key(s, T) for s in sigmas for T in orders}
    assert len(keys) == len(orders) * (d + 3)
    assert sorted(layouts) == sorted(keys)
    assert sorted(strat._cocycle_layouts) == sorted(keys)


def test_stratification_coefficients_are_read_only(cfg_u5, nilp2):
    strat = stratification_from_higgs(nilp2)
    with pytest.raises(TypeError):
        strat.coeffs[(0, (0,))] = Mat.zero(nilp2.base, 2)
    with pytest.raises(TypeError):
        del strat.coeffs[(0, (0,))]


# ---------------------------------------------------------------------------
# U(sigma) across precisions, tensor products and duals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec", [(5, [-5], 1), (3, [-3], 1), (2, [-2], 1), (3, [-3, 0], 1), (2, [-2, 0], 1), (3, [-3], 2)]
)
def test_cocycle_precision_ladder(spec):
    """U(sigma) of a module sampled at N = 16 and read back at N = 8 through
    JSON: each slot at N = 8 agrees with the N = 16 slot in every digit it
    claims, and a slot absent at N = 8 is zero mod p^8 at N = 16.

    Point bases only: on a chart base a slot can claim a digit it does not
    know (known defect chart-cocycle-law, ROADMAP item 2)."""
    p, E, f = spec
    hi_cfg = make_base_config(p, E, f=f, precision=16)
    base = ChartRing(hi_cfg, "point")
    rng = random.Random(f"ladder-{spec}")
    specs = default_specs()
    claimed = 0
    for _ in range(6):
        flavor, rank, d, twist = rng.choice(specs)
        hi = sample_higgs(base, rng, flavor, rank, d=d, twist=twist)
        doc = higgs_to_json(hi)
        doc["config"]["N"] = "8"
        lo = higgs_from_json(doc)
        lo_cfg = lo.cfg
        assert lo_cfg.N == 8
        hi_strat, lo_strat = stratification_from_higgs(hi), stratification_from_higgs(lo)
        for _ in range(4):
            s = sample_group(hi_cfg, rng, d)
            u_hi = cocycle_matrix(hi_strat, s)
            u_lo = cocycle_matrix(lo_strat, GroupElt(lo_cfg, s.n, s.c, s.chi))
            for e_hi, e_lo in zip(u_hi, u_lo):
                for m in e_hi.keys() | e_lo.keys():
                    x_lo = e_lo.get(m, lo_cfg.k_zero())
                    assert claims_agree(x_lo, e_hi.get(m, hi_cfg.k_zero())), (flavor, d, twist, s, m)
                    claimed += x_lo.prec - x_lo.shift >= 1 and not x_lo.storage_zero()
    assert claimed


@pytest.mark.parametrize("spec", ["p5", "p3", "p2e2", "p3f2"])
def test_cocycle_of_tensor_and_dual(spec):
    """U of h1 (x) h2 is U_h1 (x) U_h2, and U_h^T U_{h dual} = 1, slot by slot.

    Rank-2 pairs on a point base, over abs-geom (d = 1, 2), rel-geom and
    abs-arith, with both twists; both new modules validate and the tensor
    module passes the descent check."""
    cfg = {
        "p5": make_base_config(5, [-5]),
        "p3": make_base_config(3, [-3]),
        "p2e2": make_base_config(2, [-2, 0]),
        "p3f2": make_base_config(3, [-3], f=2),
    }[spec]
    base = ChartRing(cfg, "point")
    rng = random.Random(f"tensor-{spec}")
    T = cfg.cutoffs.T
    one = cfg.k_one()
    ident = [{0: one}, {}, {}, {0: one}]
    moving = 0
    for flavor, d in (("abs-geom", 1), ("abs-geom", 2), ("rel-geom", 1), ("abs-arith", 0)):
        for twist in ("log", "smooth"):
            h1, h2 = (sample_higgs(base, rng, flavor, 2, d=d, twist=twist) for _ in range(2))
            tensor, dual = higgs_tensor(h1, h2), higgs_dual(h1)
            assert validate_higgs(tensor)["ok"] and validate_higgs(dual)["ok"]
            strats = [stratification_from_higgs(h) for h in (tensor, h1, h2, dual)]
            assert check_cocycle_strat(strats[0])["ok"]
            for _ in range(3):
                s = sample_group(cfg, rng, d)
                u, u1, u2, u_dual = (cocycle_matrix(x, s) for x in strats)
                # cell (2 i + k, 2 j + l) of U_h1 (x) U_h2 is U_h1[i][j] * U_h2[k][l]
                kron = [
                    series_dot([u1[2 * i + j].items()], [u2[2 * k + l].items()], T)
                    for i in range(2)
                    for k in range(2)
                    for j in range(2)
                    for l in range(2)
                ]
                u1_t = [u1[2 * j + i] for i in range(2) for j in range(2)]
                pairing = series_mat_mul_chain(u1_t, u_dual, 2, T, cfg.dot)
                for got, want in ((u, kron), (pairing, ident)):
                    for c, (e, w) in enumerate(zip(got, want, strict=True)):
                        assert agree(e, w)[0], (flavor, d, twist, s, c)
                moving += any(m > 0 for x in (u1, u2) for e in x for m in e)
    assert moving


# ---------------------------------------------------------------------------
# the group law, slot by slot
# ---------------------------------------------------------------------------


def _law_cases(cfg, rng):
    """(strat, T): modules on point and chart bases (d = 1, 2), reduced-precision
    thetas, random stratifications with shifted and low-precision entries, and a
    corrupted copy of each."""
    cases = _plan_cases(cfg, rng)
    chart2 = ChartRing(cfg, "chart", d=2, r=1)
    for flavor, rank, d, D, T in (("abs-geom", 2, 1, 4, 5), ("abs-arith", 2, 0, 4, 4)):
        cases.append((stratification_from_higgs(sample_higgs(chart2, rng, flavor, rank, d=d), D=D), T))
    cases.append((_random_strat(chart2, rng, 2, 1, 3), 4))
    if cfg.e == 2:
        # weight 10 has q = 8 - v_2(10!) = 0: its slots and their products have A < 1
        point = ChartRing(cfg, "point")
        h = sample_higgs(point, rng, "abs-geom", 2, d=1)
        cases += [(stratification_from_higgs(h, D=10), 11), (_random_strat(point, rng, 2, 1, 10), 11)]
    return cases + [(corrupted_strat(strat, rng), T) for strat, T in cases]


def _low_slot(xs, ys):
    """Whether these pairs are K scalars whose least absolute precision is below 1."""
    if len(xs) < 2 or not isinstance(xs[0], KElem):
        return False
    return min(min(x.prec, y.prec) - x.shift - y.shift for x, y in zip(xs, ys)) < 1


@pytest.mark.parametrize("spec", ["p5", "p2e2", "p3f2"])
def test_law_slot_by_slot_matches_the_matrix_product(spec):
    cfg = {
        "p5": make_base_config(5, [-5]),
        "p2e2": make_base_config(2, [-2, 0]),
        "p3f2": make_base_config(3, [-3], f=2),
    }[spec]
    rng = random.Random(f"law-{spec}")
    seen = {"ok": 0, "witness": 0, "low": 0, "chart": 0}
    for strat, T in _law_cases(cfg, rng):
        sigmas = _sigmas(cfg, rng, strat.d)
        for _ in range(3):
            s, u = rng.choice(sigmas), rng.choice(sigmas)
            want = cocycle_law_naive(strat, s, u, T=T)
            assert verify_cocycle_law(strat, s, u, T=T) == want, (strat.base, T, s, u)
            seen["ok" if want["ok"] else "witness"] += 1
            # every slot the kernel forms, against the chain product keyed by t-degree
            left = cocycle_matrix(strat, s, T=T)
            acted = act_slots(s, cocycle_matrix(strat, u, T=T), strat.base, T, strat.braid_unit())
            r = strat.rank
            product = series_mat_mul_chain(left, acted, r, T, cfg.dot)
            for i in range(r):
                row = left[i * r : (i + 1) * r]
                for j in range(r):
                    col = acted[j::r]
                    items = [list(e.items()) for e in row], [list(e.items()) for e in col]
                    slots = series_dot(*items, T)
                    assert {k: _form(v) for k, v in slots.items()} == {
                        k: _form(v) for k, v in product[i * r + j].items()
                    }
                    seen["chart"] += bool(slots) and not strat.base.is_point
                    for k in range(T):
                        pairs = [
                            (x, y)
                            for e, f in zip(row, col)
                            for a, x in e.items()
                            for b, y in f.items()
                            if a + b == k
                        ]
                        seen["low"] += bool(pairs) and _low_slot(*zip(*pairs))
    assert seen["ok"] and seen["witness"] and seen["chart"] and seen["low"], seen


def _rand_series(cfg, rng, T):
    """{t-degree: K scalar}: random degrees below T, in random order, scalars from _rand_k."""
    return {k: _rand_k(cfg, rng) for k in rng.sample(range(T), rng.randint(0, T))}


@pytest.mark.parametrize("spec", ["p5", "p2e2", "p3f2"])
def test_series_dot_pair_loop_matches_the_per_slot_dot(spec):
    """Over K, series_dot's one pair loop gives each slot the stored form and
    the place of oracles.series_dot_per_slot (operand lists, then one dot per
    slot); series_dot_vanishes, which ends the same loop in a zero test, says
    what the rule of a difference (sparse.agree) says of minus against those
    slots, for every minus that claims at most N numerator digits."""
    cfg = {
        "p5": make_base_config(5, [-5]),
        "p2e2": make_base_config(2, [-2, 0]),
        "p3f2": make_base_config(3, [-3], f=2),
    }[spec]
    rng = random.Random(f"pair-loop-{spec}")
    T, N, one = 6, cfg.N, cfg.k_one()
    seen = dict.fromkeys(("shifted", "no-digit", "zero-numerator", "vanishes", "residual"), 0)
    for _ in range(200):
        r = rng.randint(1, 3)
        row = [list(_rand_series(cfg, rng, T).items()) for _ in range(r)]
        col = [list(_rand_series(cfg, rng, T).items()) for _ in range(r)]
        want = series_dot_per_slot(row, col, T, cfg.dot)
        got = series_dot(row, col, T)
        assert [(k, _form(v)) for k, v in got.items()] == [(k, _form(v)) for k, v in want.items()]
        for k in range(T):
            pairs = [(x, y) for xs, ys in zip(row, col) for a, x in xs for b, y in ys if a + b == k]
            if not pairs:
                continue
            live = [(x, y) for x, y in pairs if not (x.storage_zero() or y.storage_zero())]
            seen["zero-numerator"] += len(live) < len(pairs)
            seen["shifted"] += any(x.shift + y.shift for x, y in live)
            seen["no-digit"] += min(min(x.prec, y.prec) - x.shift - y.shift for x, y in pairs) < 1
        # minus: a slot read back through a product by one, perturbed by p^j,
        # or a random scalar; each times one, so that it claims at most N digits
        minus = {}
        for k in rng.sample(range(T), rng.randint(0, T)):
            kind = rng.random()
            x = want.get(k, cfg.k_zero())
            if kind < 0.25:
                x = _rand_k(cfg, rng)
            elif kind < 0.5:
                x = x + cfg.k_from_int(cfg.p ** rng.randrange(N))
            minus[k] = x * one
            assert minus[k].prec <= N
        vanishes = series_dot_vanishes(row, col, minus, T, one)
        assert vanishes == agree(minus, want)[0]
        seen["vanishes" if vanishes else "residual"] += 1
    assert all(seen.values()), seen


def _rand_pd(ring, rng):
    """A pd element of up to three keys, each coefficient from _rand_k, sometimes flagged truncated."""
    x, y = ring.x_id(1), ring.y_id(1, 1)
    monomials = [(), ((x, 1),), ((y, 1),), ((x, 2),), ((x, 1), (y, 1)), ((y, 3),)]
    coeffs = {ring.encode(mono): _rand_k(ring.cfg, rng) for mono in rng.sample(monomials, rng.randint(0, 3))}
    return PdElement(ring, coeffs, truncated=rng.random() < 0.1)


@pytest.mark.parametrize("kind", ["chart", "pd"])
def test_series_dot_pair_loop_matches_the_per_slot_dot_over_chart_and_pd_scalars(kind):
    """The inner loop the pair loop runs for scalars other than K: over chart
    scalars (d = 1, r = 1) and over pd scalars, series_dot gives each slot
    the stored form and the place of oracles.series_dot_per_slot with
    BaseConfig.dot, and series_dot_vanishes says what the rule of a
    difference (agree) says of minus against those slots."""
    cfg = make_base_config(5, [-5])
    rng = random.Random(f"pair-loop-{kind}")
    if kind == "chart":
        base = ChartRing(cfg, "chart", d=1, r=1)
        scalar, one = (lambda: _rand_entry(base, rng)), base.one()
    else:
        ring = PdRing(ChartRing(cfg, "point"), "abs-geom", 1, d=1, D=3)
        scalar, one = (lambda: _rand_pd(ring, rng)), ring.one()
    T = 5
    seen = dict.fromkeys(("summed", "vanishes", "vanishes-nonzero", "residual"), 0)
    for _ in range(60):
        r = rng.randint(1, 3)
        row, col = ([[(k, scalar()) for k in rng.sample(range(T), rng.randint(0, T))] for _ in range(r)] for _ in range(2))
        want = series_dot_per_slot(row, col, T, cfg.dot)
        got = series_dot(row, col, T)
        assert [(k, _form(v)) for k, v in got.items()] == [(k, _form(v)) for k, v in want.items()]
        seen["summed"] += any(
            sum(a + b == k for xs, ys in zip(row, col) for a, _ in xs for b, _ in ys) > 1 for k in got
        )
        # minus: the slots read back through a product by one, so that each
        # claims at most N digits, and on half the trials one slot perturbed
        # by p^j or replaced by a random scalar, times one
        minus = {k: v * one for k, v in want.items()}
        roll = rng.random()
        if roll < 0.5:
            k = rng.randrange(T)
            x = scalar() if roll < 0.25 else minus.get(k, one.smul(0)) + one.smul(cfg.p ** rng.randrange(cfg.N))
            minus[k] = x * one
        vanishes = series_dot_vanishes(row, col, minus, T, one)
        assert vanishes == agree(minus, want)[0]
        seen["vanishes" if vanishes else "residual"] += 1
        seen["vanishes-nonzero"] += vanishes and not all(v.is_zero() for v in minus.values())
    assert all(seen.values()), seen


def test_law_error_contract(cfg_u5, nilp2):
    """HorizonTooSmall for T > D + 1, ValidationFailure for sigmas of another
    dimension than the module's, and ValueError for s and u of two dimensions."""
    strat = stratification_from_higgs(nilp2)
    s, wide = GroupElt(cfg_u5, (1,), 1, 6), GroupElt(cfg_u5, (1, 2), 1, 6)
    assert verify_cocycle_law(strat, s, s, T=strat.D + 1)["ok"]
    for data in (strat, nilp2):
        with pytest.raises(HorizonTooSmall):
            verify_cocycle_law(data, s, s, T=strat.D + 2)
    with pytest.raises(ValidationFailure):
        verify_cocycle_law(strat, wide, wide)
    for a, b in ((s, wide), (wide, s)):
        with pytest.raises(ValueError) as exc:
            verify_cocycle_law(strat, a, b)
        assert exc.type is ValueError


def test_law_builds_no_product_or_residual_matrix(cfg_u5, nilp2, monkeypatch):
    """On a point base the law forms no matrix (so no product or residual
    matrix): it runs on slot dicts.  No module of htlab keeps a second
    comparison rule (agree) beside the one-sum zero test."""
    strat = stratification_from_higgs(nilp2)
    rng = random.Random(16)
    bad = corrupted_strat(strat, rng)
    calls = []
    for name in ("__mul__", "__sub__"):
        real = getattr(Mat, name)
        monkeypatch.setattr(Mat, name, lambda a, b, real=real, name=name: calls.append(name) or real(a, b))
    real_init = Mat.__init__
    monkeypatch.setattr(Mat, "__init__", lambda self, *a, **kw: calls.append("Mat") or real_init(self, *a, **kw))
    for _ in range(4):
        assert verify_cocycle_law(strat, _rand_sigma(cfg_u5, rng, 1), _rand_sigma(cfg_u5, rng, 1))["ok"]
    assert not verify_cocycle_law(bad, GroupElt(cfg_u5, (1,), 1, 6), GroupElt(cfg_u5, (2,), 3, 11))["ok"]
    assert calls == []
    assert not [m for m in (sparse, higgs, sen, galois, linalg, pdring) if hasattr(m, "agree")]
    # the counters see what is formed elsewhere: the descent matrix, and the
    # product and difference of each commutator validate_higgs takes
    descent_matrix(strat)
    assert calls == ["Mat"]
    validate_higgs(nilp2)
    assert {"__mul__", "__sub__"} <= set(calls)
