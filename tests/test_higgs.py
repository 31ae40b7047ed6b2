import random

import pytest
from oracles import (
    claims_agree,
    cocycle_strat_naive,
    corrupted_strat,
    descent_faces,
    dot_vanishes_by_cell,
    higgs_conj,
    mat_mul_chain,
)
from test_sen import PROBE_BASES, _form, _random_strat

from htlab import corpus, default_specs, higgs, higgs_from_json, higgs_to_json, make_base_config
from htlab.chart import ChartRing
from htlab.errors import (
    BraidFailure,
    ClosedFormMismatch,
    CommutationFailure,
    NilpotenceFailure,
    ValidationFailure,
)
from htlab.higgs import (
    HiggsData,
    Stratification,
    _multi_indices,
    check_cocycle,
    check_cocycle_strat,
    check_recursions,
    descent_matrix,
    higgs_from_stratification,
    log_from_smooth,
    stratification_from_higgs,
    validate_higgs,
)
from htlab.linalg import Mat, commutator
from htlab.pdring import PdRing, dot_vanishes, face_context
from htlab.samples import sample_higgs


@pytest.fixture(scope="module")
def point(cfg_u5):
    return ChartRing(cfg_u5, "point")


@pytest.fixture(scope="module")
def nilp2(cfg_u5, point):
    """Rank 2, d = 1: theta = E_12, phi = diag(0, 5); [theta, phi] = 5 theta."""
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi = Mat.from_ints(point, [[0, 0], [0, 5]])
    return HiggsData(point, "abs-geom", [theta], phi)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def test_mat_ring_ops(point, cfg_u5):
    a = Mat.from_ints(point, [[1, 2], [3, 4]])
    b = Mat.from_ints(point, [[0, 1], [1, 0]])
    assert (a * b).eq(Mat.from_ints(point, [[2, 1], [4, 3]]))
    assert (a + b - a).eq(b)
    assert commutator(a, a).is_zero()
    assert a.smul(3).eq(Mat.from_ints(point, [[3, 6], [9, 12]]))
    assert a.add_scalar_diag(cfg_u5.k_from_int(10)).eq(Mat.from_ints(point, [[11, 2], [3, 14]]))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_frozen_example(nilp2):
    report = validate_higgs(nilp2)
    assert report["ok"] and not report["undecided"]
    cert = report["certificates"][-1]
    assert cert.subject == "phi-sequence" and cert.ok
    # diag entries of P_n are 0 and 5^n n!, so 5-valuation reaches 8 at n = 7
    assert cert.n_star == 7


def test_validate_rank1_phi_minus_beta(cfg_u5, point):
    h = HiggsData(point, "abs-arith", [], Mat.from_ints(point, [[-5]]))
    report = validate_higgs(h)
    assert report["ok"]
    assert report["certificates"][-1].n_star == 2


def test_commutation_failure(cfg_u5, point):
    t1 = Mat.from_ints(point, [[0, 1], [0, 0]])
    t2 = Mat.from_ints(point, [[0, 0], [1, 0]])
    phi = Mat.zero(point, 2)
    h = HiggsData(point, "abs-geom", [t1, t2], phi)
    with pytest.raises(CommutationFailure):
        validate_higgs(h)


def test_braid_failure(cfg_u5, point):
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi = Mat.from_ints(point, [[0, 0], [0, 7]])
    h = HiggsData(point, "abs-geom", [theta], phi)
    with pytest.raises(BraidFailure) as exc:
        validate_higgs(h)
    assert exc.value.i == 1


def test_nilpotence_failure_absolute(cfg_u5, point):
    # theta = 5^7 passes the braiding test at precision 8 (beta * 5^7 = 0)
    # but is not strictly nilpotent; only the nilpotence check catches it
    h = HiggsData(point, "abs-geom", [Mat.from_ints(point, [[5**7]])], Mat.zero(point, 1))
    with pytest.raises(NilpotenceFailure):
        validate_higgs(h)


def test_relative_topological_nilpotence(cfg_u5, point):
    # 5 * id is not strictly nilpotent but its powers vanish mod 5^8
    h = HiggsData(point, "rel-geom", [Mat.from_ints(point, [[5]])], None, integral=True)
    report = validate_higgs(h)
    assert report["ok"]
    assert report["certificates"][0].n_star == 8


def test_relative_undecided(cfg_u5, point):
    h = HiggsData(point, "rel-geom", [Mat.from_ints(point, [[1]])], None)
    report = validate_higgs(h)
    assert not report["ok"] and report["undecided"]
    assert report["certificates"][0].status == "undecided"


def test_integrality_claim_checked(cfg_u5, point):
    bad = Mat(point, [[cfg_u5.k_one().div_int(5)]])
    h = HiggsData(point, "abs-arith", [], bad, integral=True)
    with pytest.raises(ValidationFailure):
        validate_higgs(h)
    ok = HiggsData(point, "abs-arith", [], bad, integral=False)
    validate_higgs(ok)


def test_shape_validation(cfg_u5, point):
    with pytest.raises(ValidationFailure):
        HiggsData(point, "rel-geom", [], Mat.zero(point, 2))
    with pytest.raises(ValidationFailure):
        HiggsData(point, "abs-arith", [Mat.zero(point, 2)], Mat.zero(point, 2))
    with pytest.raises(ValidationFailure):
        HiggsData(point, "abs-geom", [Mat.zero(point, 2)], Mat.zero(point, 3))


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------


def test_stratification_frozen_values(cfg_u5, nilp2):
    strat = stratification_from_higgs(nilp2)
    point = nilp2.base
    assert strat.matrix(0, (0,)).eq(Mat.identity(point, 2))
    assert strat.matrix(1, (0,)).eq(nilp2.phi)
    # P_2 = (phi + 5) phi = diag(0, 50)
    assert strat.matrix(2, (0,)).eq(Mat.from_ints(point, [[0, 0], [0, 50]]))
    # theta P_1 = 5 theta
    assert strat.matrix(1, (1,)).eq(nilp2.theta[0].smul(5))
    assert strat.matrix(0, (1,)).eq(nilp2.theta[0])
    # theta^2 = 0 wipes everything with |I| >= 2
    assert strat.matrix(0, (2,)).is_zero()
    D = cfg_u5.cutoffs.D
    assert all(n + sum(i) <= D for n, i in strat.indices())


def test_stratification_flavor_index_sets(cfg_u5, point):
    arith = HiggsData(point, "abs-arith", [], Mat.from_ints(point, [[-5]]))
    sa = stratification_from_higgs(arith)
    assert sa.indices() == [(n, ()) for n in range(cfg_u5.cutoffs.D + 1)]
    rel = HiggsData(point, "rel-geom", [Mat.from_ints(point, [[0]])], None)
    sr = stratification_from_higgs(rel)
    assert sr.indices() == [(0, (i,)) for i in range(cfg_u5.cutoffs.D + 1)]


def test_recursions_hold(nilp2):
    strat = stratification_from_higgs(nilp2)
    report = check_recursions(strat)
    assert report["ok"], report["failures"]
    assert report["checked"] > 0


def test_roundtrip_reconstruction(nilp2):
    strat = stratification_from_higgs(nilp2)
    back = higgs_from_stratification(strat)
    assert back.phi.eq(nilp2.phi)
    assert back.theta[0].eq(nilp2.theta[0])
    assert back.flavor == nilp2.flavor and back.rank == nilp2.rank


def test_corrupted_coefficient_is_caught(cfg_u5, nilp2):
    good = stratification_from_higgs(nilp2)
    bump = Mat.zero(nilp2.base, 2).add_scalar_diag(cfg_u5.k_from_int(5**7))
    coeffs = dict(good.coeffs)
    coeffs[(2, (0,))] = coeffs[(2, (0,))] + bump
    strat = Stratification(good.base, good.flavor, coeffs, good.D, good.rank, twist=good.twist)
    with pytest.raises(ClosedFormMismatch) as exc:
        higgs_from_stratification(strat)
    assert (exc.value.n, tuple(exc.value.index)) == (2, (0,))


def test_missing_coefficient_is_caught(nilp2):
    good = stratification_from_higgs(nilp2)
    coeffs = dict(good.coeffs)
    del coeffs[(3, (0,))]
    strat = Stratification(good.base, good.flavor, coeffs, good.D, good.rank, twist=good.twist)
    with pytest.raises(ClosedFormMismatch):
        higgs_from_stratification(strat)


def _tampered(good, key, m):
    """good with the coefficient at key replaced by m, or deleted when m is None."""
    coeffs = dict(good.coeffs)
    if m is None:
        del coeffs[key]
    else:
        coeffs[key] = m
    return Stratification(good.base, good.flavor, coeffs, good.D, good.rank, twist=good.twist)


def test_check_recursions_reports_a_broken_phi_step_and_theta_step(cfg_u5, nilp2):
    good = stratification_from_higgs(nilp2)
    bump = Mat.zero(nilp2.base, 2).add_scalar_diag(cfg_u5.k_from_int(5**7))
    # A_{2,0} != (phi + beta) A_{1,0}
    report = check_recursions(_tampered(good, (2, (0,)), good.matrix(2, (0,)) + bump))
    assert not report["ok"] and {"rule": "phi-step", "n": 1, "index": (0,)} in report["failures"]
    # A_{0,(2)} != theta A_{0,(1)}, which is 0 for theta = E_12
    report = check_recursions(_tampered(good, (0, (2,)), Mat.identity(nilp2.base, 2)))
    assert not report["ok"] and {"rule": "theta-step", "n": 0, "index": (2,), "k": 1} in report["failures"]


@pytest.mark.parametrize(
    "key, tamper",
    [((0, (0,)), "zero"), ((0, (1,)), "delete"), ((1, (0,)), "delete")],
    ids=["A00-not-identity", "A0ek-missing", "A10-missing"],
)
def test_reconstruction_rejects_a_broken_operator_coefficient(nilp2, key, tamper):
    good = stratification_from_higgs(nilp2)
    strat = _tampered(good, key, Mat.zero(nilp2.base, 2) if tamper == "zero" else None)
    with pytest.raises(ClosedFormMismatch) as exc:
        higgs_from_stratification(strat)
    assert (exc.value.n, tuple(exc.value.index)) == key


# ---------------------------------------------------------------------------
# the cocycle oracle
# ---------------------------------------------------------------------------


def test_cocycle_frozen_example(nilp2):
    report = check_cocycle(nilp2)
    assert report["ok"], report
    assert report["witness"] is None


def test_cocycle_rank1_arith(cfg_u5, point):
    h = HiggsData(point, "abs-arith", [], Mat.from_ints(point, [[-5]]))
    assert check_cocycle(h)["ok"]


def test_cocycle_two_thetas(cfg_u5, point):
    t1 = Mat.from_ints(point, [[0, 1], [0, 0]])
    t2 = Mat.from_ints(point, [[0, 2], [0, 0]])
    phi = Mat.from_ints(point, [[5, 0], [0, 10]])
    h = HiggsData(point, "abs-geom", [t1, t2], phi)
    assert validate_higgs(h)["ok"]
    assert check_cocycle(h)["ok"]


def test_cocycle_relative(cfg_u5, point):
    t1 = Mat.from_ints(point, [[0, 3], [0, 0]])
    h = HiggsData(point, "rel-geom", [t1], None)
    assert check_cocycle(h)["ok"]


def test_cocycle_detects_broken_braiding(cfg_u5, point):
    # [theta, phi] = 7 theta != 5 theta: the descent identity must fail
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi = Mat.from_ints(point, [[0, 0], [0, 7]])
    h = HiggsData(point, "abs-geom", [theta], phi)
    report = check_cocycle(h)
    assert not report["ok"]
    assert report["witness"] is not None


def test_cocycle_chart_base(cfg_u5):
    ch = ChartRing(cfg_u5, "chart", d=1, r=0)
    theta = Mat(ch, [[ch.zero(), ch.var(1)], [ch.zero(), ch.zero()]])
    phi = Mat(ch, [[ch.zero(), ch.zero()], [ch.zero(), ch.from_int(5)]])
    h = HiggsData(ch, "abs-geom", [theta], phi)
    assert validate_higgs(h)["ok"]
    assert check_cocycle(h)["ok"]


def test_cocycle_ramified(cfg_r2):
    point2 = ChartRing(cfg_r2, "point")
    theta = Mat.from_ints(point2, [[0, 1], [0, 0]])
    # beta = 4 here
    phi = Mat.from_ints(point2, [[0, 0], [0, 4]])
    h = HiggsData(point2, "abs-geom", [theta], phi)
    assert validate_higgs(h)["ok"]
    assert check_cocycle(h)["ok"]


# ---------------------------------------------------------------------------
# smooth to log
# ---------------------------------------------------------------------------


def test_log_from_smooth_frozen(cfg_u5, point, nilp2):
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    # E'(pi) = 1 for E = u - 5, so the smooth braiding is [theta, phi] = theta
    phi_s = Mat.from_ints(point, [[0, 0], [0, 1]])
    hs = HiggsData(point, "abs-geom", [theta], phi_s, twist="smooth")
    hl = log_from_smooth(hs)
    assert hl.twist == "log"
    assert hl.phi.eq(nilp2.phi)
    assert check_cocycle(hl)["ok"]


def test_log_from_smooth_rejects_log_input(nilp2):
    with pytest.raises(ValidationFailure):
        log_from_smooth(nilp2)


def test_log_from_smooth_ramified(cfg_r2):
    point2 = ChartRing(cfg_r2, "point")
    theta = Mat.from_ints(point2, [[0, 1], [0, 0]])
    # E = u^2 - 2: E'(pi) = 2 pi, represented exactly in O_K
    ep = cfg_r2.Ep
    phi_s = Mat(point2, [[cfg_r2.k_zero(), cfg_r2.k_zero()], [cfg_r2.k_zero(), ep]])
    hs = HiggsData(point2, "abs-geom", [theta], phi_s, twist="smooth")
    hl = log_from_smooth(hs)
    assert validate_higgs(hl)["ok"]
    assert check_cocycle(hl)["ok"]


def test_smooth_cocycle_uses_nonlog_twist(cfg_u5, point):
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi_s = Mat.from_ints(point, [[0, 0], [0, 1]])
    hs = HiggsData(point, "abs-geom", [theta], phi_s, twist="smooth")
    strat = stratification_from_higgs(hs)
    assert check_cocycle_strat(strat)["ok"]


# ---------------------------------------------------------------------------
# vanishing coefficients: no product, same stored forms
# ---------------------------------------------------------------------------


def _plain_stratification(h, D):
    """A_{n,I} = Theta^I P_n with every product formed, in the same order;
    with no phi, only the A_{0,I}."""
    beta = h.base.from_k(h.braid_unit())
    p_seq, factor = [Mat.identity(h.base, h.rank)], h.phi
    for _ in range(D if factor is not None else 0):
        p_seq.append(factor * p_seq[-1])
        factor = factor.add_scalar_diag(beta)
    pows, coeffs = {}, {}
    for index in _multi_indices(h.d, D):
        k = next((i for i, v in enumerate(index) if v > 0), None)
        if k is None:
            pows[index] = Mat.identity(h.base, h.rank)
        else:
            prev = list(index)
            prev[k] -= 1
            pows[index] = h.theta[k] * pows[tuple(prev)]
        for n in range(min(D - sum(index), len(p_seq) - 1) + 1):
            coeffs[(n, index)] = pows[index] * p_seq[n] if n else pows[index]
    return Stratification(h.base, h.flavor, coeffs, D, h.rank, twist=h.twist)


def _stored_forms(strat):
    return [(key, [[(a.u, a.shift, a.prec) for a in row] for row in m.rows]) for key, m in strat.coeffs.items()]


def _vanishing(m):
    return all(a.droppable() for row in m.rows for a in row)


def _clamp_theta(h, k, prec):
    """h with theta_k known to prec digits only: its zeros become reduced-precision zeros."""
    theta = list(h.theta)
    theta[k] = theta[k].map(lambda a: a.clamp_prec(prec))
    return HiggsData(h.base, h.flavor, theta, h.phi, twist=h.twist)


@pytest.mark.parametrize("cfg_name", ["cfg_r2", "cfg_f2"])
def test_skipping_vanishing_products_changes_no_coefficient(request, cfg_name):
    cfg = request.getfixturevalue(cfg_name)
    base = ChartRing(cfg, "point")
    rng = random.Random(41 if cfg_name == "cfg_r2" else 43)
    mods = [
        (sample_higgs(base, rng, "abs-geom", rank, d=3, twist=twist), D)
        for rank, D, twist in ((4, 6, "log"), (5, 7, "smooth"), (6, 8, "log"))
    ]
    h, D = mods[0]
    mods.append((_clamp_theta(h, 0, cfg.N - 2), D))
    skipped = reduced = 0
    for h, D in mods:
        strat = stratification_from_higgs(h, D=D)
        plain = _plain_stratification(h, D)
        assert _stored_forms(strat) == _stored_forms(plain)
        assert check_cocycle_strat(strat) == check_cocycle_strat(plain)
        skipped += sum(_vanishing(m) for m in strat.coeffs.values())
        # zero coefficients known to fewer than N digits: their products are formed
        reduced += sum(m.is_zero() and not _vanishing(m) for m in strat.coeffs.values())
    assert skipped > 0
    assert reduced > 0


def _with_denominators(h):
    """P h P^-1 for P = diag(1, p, p^2, ...), with theta_1 replaced by 0: a
    module whose operators have entries of positive shift above the
    diagonal, and a vanishing theta_1."""
    base, cfg = h.base, h.cfg
    zero = base.zero()
    P, P_inv = (
        Mat(base, [[base.from_k(scale(a)) if a == b else zero for b in range(h.rank)] for a in range(h.rank)])
        for scale in (lambda a: cfg.k_from_int(cfg.p**a), lambda a: cfg.k_one().div_int(cfg.p**a))
    )
    h = higgs_conj(h, P, P_inv)
    theta = [Mat.zero(base, h.rank)] + h.theta[1:]
    return HiggsData(base, h.flavor, theta, h.phi, integral=False, twist=h.twist)


@pytest.mark.parametrize("cfg_name", ["cfg_u5", "cfg_r2"])
def test_products_with_the_shared_zero_keep_the_rule_of_a_matrix_product(request, cfg_name):
    """On seeded non-integral modules with a vanishing theta, every Theta^I,
    P_n and A_{n,I} has the stored form of the Mat.__mul__ chain: the zero
    times an entry 1/p is a zero to N - 1 digits, so the product is formed."""
    cfg = request.getfixturevalue(cfg_name)
    base = ChartRing(cfg, "point")
    rng = random.Random(f"denominators-{cfg_name}")
    reduced = 0
    for flavor, rank, d in (("abs-geom", 3, 2), ("rel-geom", 3, 2), ("abs-geom", 4, 3), ("abs-geom", 2, 1)):
        for _ in range(3):
            h = _with_denominators(sample_higgs(base, rng, flavor, rank, d=d))
            for D in (3, 5):
                strat = stratification_from_higgs(h, D=D)
                assert _stored_forms(strat) == _stored_forms(_plain_stratification(h, D))
                reduced += sum(m.is_zero() and not _vanishing(m) for m in strat.coeffs.values())
    assert reduced > 0


def test_a_vanishing_theta_times_a_denominator_loses_a_digit(cfg_u5):
    # theta_1 = 0 and phi = [[0, 1/5], [0, 0]]: A_{1,(1)} = Theta^(1) P_1 is a
    # zero to 7 digits in its second column, as Theta^(1) * P_1 is
    point = ChartRing(cfg_u5, "point")
    z = cfg_u5.k_zero()
    phi = Mat(point, [[z, cfg_u5.k_one().div_int(5)], [z, z]])
    h = HiggsData(point, "abs-geom", [Mat.zero(point, 2)], phi, integral=False)
    assert validate_higgs(h)["ok"]
    strat = stratification_from_higgs(h, D=3)
    a = strat.coeffs[(1, (1,))]
    assert [[(c.u, c.shift, c.prec) for c in row] for row in a.rows] == [[(0, 0, 8), (0, 0, 7)]] * 2
    assert _stored_forms(strat) == _stored_forms(_plain_stratification(h, 3))


def test_descent_matrix_keeps_every_non_droppable_entry(cfg_r2):
    base = ChartRing(cfg_r2, "point")
    h = sample_higgs(base, random.Random(41), "abs-geom", 4, d=3)
    strat = stratification_from_higgs(_clamp_theta(h, 0, cfg_r2.N - 2), D=6)
    ring = PdRing(base, strat.flavor, 1, d=strat.d, D=strat.D)
    eps = descent_matrix(strat, ring=ring)
    kept = reduced = 0
    for (n, index), m in strat.coeffs.items():
        key = ring.encode([(ring.x_id(1), n)] * bool(n) + [(ring.y_id(k + 1, 1), ik) for k, ik in enumerate(index) if ik])
        for i, row in enumerate(m.rows):
            for j, a in enumerate(row):
                got = eps.entry(i, j).coeffs.get(key)
                if a.droppable():
                    assert got is None
                    continue
                assert (got.u, got.shift, got.prec) == (a.u, a.shift, a.prec)
                kept += 1
                reduced += a.is_zero()
    assert kept and reduced


def test_chart_zero_is_shared_so_stratify_takes_the_identity_path(cfg_u5, monkeypatch):
    """Mat gives every empty sum the ring's one zero, so over a chart too
    _vanishes passes most entries by identity, without droppable()."""
    chart = ChartRing(cfg_u5, "chart", d=1, r=1)
    assert chart.zero() is chart.zero()
    h = sample_higgs(chart, random.Random(3), "abs-geom", 3)
    seen = {"entries": 0, "shared": 0}
    vanishes = higgs._vanishes

    def spy(m):
        zero = m.ring.zero()
        for row in m.rows:
            seen["entries"] += len(row)
            seen["shared"] += sum(a is zero for a in row)
        return vanishes(m)

    monkeypatch.setattr(higgs, "_vanishes", spy)
    stratification_from_higgs(h, D=5)
    assert 0 < seen["shared"] < seen["entries"], seen


# ---------------------------------------------------------------------------
# the descent check, slot by slot
# ---------------------------------------------------------------------------


def _relabelled(strat):
    """strat with the other twist and the same coefficients: its 0th face is
    twisted by the wrong unit."""
    twist = "smooth" if strat.twist == "log" else "log"
    return Stratification(strat.base, strat.flavor, strat.coeffs, strat.D, strat.rank, twist=twist)


def _descent_cases(cfg, rng):
    """Stratifications on the point base and on charts with d = 1 and 2:
    modules of all flavors and both twists, one with theta_1 known to N - 2
    digits, one at D = 2, random coefficients with denominators and short
    precisions (rel-geom ones too), a relabelled twist, and a corrupted copy
    of each."""
    point = ChartRing(cfg, "point")
    cases = []
    for flavor, rank, d, D, twist in (
        ("abs-geom", 3, 2, 4, "log"),
        ("abs-geom", 3, 1, 5, "smooth"),
        ("rel-geom", 2, 2, 4, "log"),
        ("abs-arith", 2, 0, 5, "smooth"),
        ("abs-geom", 3, 2, 2, "log"),
    ):
        cases.append(stratification_from_higgs(sample_higgs(point, rng, flavor, rank, d=d, twist=twist), D=D))
    theta = Mat.from_ints(point, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    cases.append(stratification_from_higgs(HiggsData(point, "rel-geom", [theta]), D=3))
    # rel-geom leaves the 0th face untwisted, so its images are not flagged, and
    # random A_{0,I} give products of degree above D: the filters cut them
    rel = _random_strat(point, rng, 3, 1, 3)
    rel = {key: m for key, m in rel.coeffs.items() if key[0] == 0}
    cases.append(Stratification(point, "rel-geom", rel, 3, 3))
    h = sample_higgs(point, rng, "abs-geom", 3, d=1)
    cases.append(stratification_from_higgs(_clamp_theta(h, 0, cfg.N - 2), D=4))
    cases += [_random_strat(point, rng, 3, 1, 4), _random_strat(point, rng, 2, 2, 3)]
    for d in (1, 2):
        chart = ChartRing(cfg, "chart", d=d, r=1)
        for twist in ("log", "smooth"):
            cases.append(stratification_from_higgs(sample_higgs(chart, rng, "abs-geom", 2, d=1, twist=twist), D=3))
        cases.append(_random_strat(chart, rng, 2, 1, 3))
    cases.append(_relabelled(cases[1]))
    return cases + [corrupted_strat(strat, rng) for strat in cases]


def _reach(p2, p0, i, j):
    """{key: (least term precision, the products l that reach it)} of cell
    (i, j) of p2 * p0, over K scalars, from every pair up to the cutoff."""
    ring = p2.ring
    out = {}
    for l, (x, y) in enumerate(zip(p2.rows[i], [row[j] for row in p0.rows])):
        for k1, c1 in x.coeffs.items():
            for k2, c2 in y.coeffs.items():
                if ring.key_degree(k1) + ring.key_degree(k2) <= ring.D:
                    a = min(c1.prec - c1.shift - c2.shift, c2.prec - c2.shift - c1.shift)
                    least, ls = out.setdefault(k1 + k2, [a, set()])
                    out[k1 + k2][0] = min(least, a)
                    ls.add(l)
    return out


def _entries(m):
    """((i, j), entry) of a matrix, in row-major order."""
    return [((i, j), x) for i, row in enumerate(m.rows) for j, x in enumerate(row)]


@pytest.mark.parametrize("spec", ["p5", "p2e2", "p3f2"])
def test_descent_slot_by_slot_matches_the_matrix_product(spec):
    cfg = {
        "p5": make_base_config(5, [-5]),
        "p2e2": make_base_config(2, [-2, 0]),
        "p3f2": make_base_config(3, [-3], f=2),
    }[spec]
    rng = random.Random(f"descent-{spec}")
    seen = dict.fromkeys(("ok", "witness", "cut", "chart", "A<1", "truncated"), 0)
    for strat in _descent_cases(cfg, rng):
        report = check_cocycle_strat(strat)
        assert report == cocycle_strat_naive(strat), strat
        seen["ok" if report["ok"] else "witness"] += 1
        seen["truncated"] += report["truncated"]
        # every cell of Mat.__mul__, against mat_mul_chain: each key's stored form, and the flag
        p0, _, p2 = descent_faces(strat)
        chain = mat_mul_chain(p2, p0).rows
        for (i, j), cell in _entries(p2 * p0):
            want = chain[i][j]
            assert {k: _form(c) for k, c in cell.coeffs.items()} == {k: _form(c) for k, c in want.coeffs.items()}
            assert cell.truncated == want.truncated
            factors = [(x, p0.rows[l][j]) for l, x in enumerate(p2.rows[i])]
            seen["cut"] += cell.truncated and not any(x.truncated or y.truncated for x, y in factors)
            if not strat.base.is_point:
                seen["chart"] += bool(cell.coeffs)
            elif strat.D > 2:
                # keys summed as dot's chain per product, over more than one product
                seen["A<1"] += sum(a < 1 and len(ls) > 1 for a, ls in _reach(p2, p0, i, j).values())
    assert all(seen.values()), seen


def _corpus_descent_cases():
    """The stratifications of corpus seeds 0 and 1 on six bases, over the
    point and the d = 1, r = 1 chart, each with a corrupted_strat copy."""
    for name, (p, E, f) in PROBE_BASES.items():
        cfg = make_base_config(p, E, f=f)
        for mode in ("point", "chart"):
            base = ChartRing(cfg, mode, d=mode == "chart", r=mode == "chart")
            for seed in (0, 1):
                rng = random.Random(f"{name}-{mode}-{seed}")
                strats = [stratification_from_higgs(h) for h in corpus(base, seed)]
                yield from strats
                yield from (bad for bad in (corrupted_strat(strat, rng) for strat in strats) if bad is not None)


def test_dot_vanishes_matches_the_cell_route_on_the_corpus():
    """pdring.dot_vanishes on every cell of p_2*(eps) p_0*(eps) - p_1*(eps),
    as check_cocycle_strat passes it, gives the (zero, truncated) of the
    cell BaseConfig.dot forms (oracles.dot_vanishes_by_cell), on 1,152
    descent cases: cells that vanish and cells that do not, on both kinds of
    base, and flags set by a cut filter alone.  No chart cell here has a
    truncated key (the box flags the faces first), so
    test_pdring.test_dot_vanishes_counts_every_flag builds one."""
    seen = dict.fromkeys(("zero", "residual", "chart", "cut"), 0)
    cases = 0
    for strat in _corpus_descent_cases():
        cases += 1
        ring1 = PdRing(strat.base, strat.flavor, 1, d=strat.d, D=strat.D)
        eps = descent_matrix(strat, ring=ring1)
        contexts = [face_context(ring1, i, strat.braid_unit()) for i in range(3)]
        ring2 = contexts[0].target
        p0, p1, p2 = (eps.map(c.apply, ring=ring2).rows for c in contexts)
        ms = [1] * strat.rank + [-1]
        for i, (lrow, rrow) in enumerate(zip(p2, p1)):
            for j, rhs in enumerate(rrow):
                xs, ys = lrow + [rhs], [row[j] for row in p0] + [ring2.one()]
                got = dot_vanishes(xs, ys, ms)
                assert got == dot_vanishes_by_cell(xs, ys, ms), (strat, i, j)
                seen["zero" if got[0] else "residual"] += 1
                if not strat.base.is_point:
                    seen["chart"] += 1
                elif got[1] and not any(x.truncated or y.truncated for x, y in zip(xs, ys)):
                    # over K only a factor's flag or a cut filter sets the flag
                    degree = ring2.key_degree
                    assert any(
                        degree(k1) + degree(k2) > ring2.D for x, y in zip(xs, ys) for k1 in x.coeffs for k2 in y.coeffs
                    )
                    seen["cut"] += 1
    assert cases == 1152
    assert all(seen.values()), seen


def test_descent_builds_no_product_or_residual_matrix(nilp2, monkeypatch):
    """A descent check takes each cell of p_2*(eps) p_0*(eps) - p_1*(eps) as
    one sum, with no Mat.__mul__ and no Mat.__sub__, on a module that passes
    and on a corrupted copy that does not.  On a point base it forms no
    scalar for a cell: each of the r^2 cells is one dot_vanishes, which calls
    neither BaseConfig.reduce_terms nor BaseConfig.dot (the faces reduce
    their own keys), and the check calls BaseConfig.dot nowhere."""
    strat = stratification_from_higgs(nilp2)
    assert strat.base.is_point
    bad = corrupted_strat(strat, random.Random(15))
    mats, scalars, in_cell = [], [], [False]
    for name in ("__mul__", "__sub__"):
        real = getattr(Mat, name)
        monkeypatch.setattr(Mat, name, lambda a, b, real=real, name=name: mats.append(name) or real(a, b))
    cfg = type(strat.cfg)
    for name in ("reduce_terms", "dot"):
        real = getattr(cfg, name)
        monkeypatch.setattr(
            cfg, name, lambda c, *a, real=real, name=name: scalars.append((name, in_cell[0])) or real(c, *a)
        )
    real_vanishes = higgs.dot_vanishes
    cells = []

    def vanishes(*args):
        in_cell[0] = True
        cells.append(real_vanishes(*args))
        in_cell[0] = False
        return cells[-1]

    monkeypatch.setattr(higgs, "dot_vanishes", vanishes)
    for s, ok in ((strat, True), (bad, False)):
        mats.clear()
        scalars.clear()
        cells.clear()
        assert check_cocycle_strat(s)["ok"] is ok
        assert mats == []
        assert len(cells) == s.rank**2
        # the faces reduce their own keys, outside the cells
        assert set(scalars) == {("reduce_terms", False)}


@pytest.mark.parametrize(
    "mode, flavor, twist, rank, D",
    [
        ("point", "abs-geom", "log", 4, 6),
        ("point", "abs-geom", "smooth", 4, 6),
        ("point", "rel-geom", "log", 4, 6),
        ("chart", "abs-geom", "log", 3, 4),
    ],
)
def test_stratification_builds_one_zero_matrix(cfg_f2, monkeypatch, mode, flavor, twist, rank, D):
    base = ChartRing(cfg_f2, mode, d=mode == "chart", r=mode == "chart")
    h = sample_higgs(base, random.Random(7), flavor, rank, d=2, twist=twist)
    zeros = []
    real = Mat.zero.__func__
    monkeypatch.setattr(Mat, "zero", classmethod(lambda cls, *a: zeros.append(real(cls, *a)) or zeros[-1]))
    strat = stratification_from_higgs(h, D=D)
    assert len(zeros) <= 1
    vanishing = [m for m in strat.coeffs.values() if _vanishing(m)]
    assert vanishing and all(m is zeros[0] for m in vanishing)


@pytest.mark.parametrize("name", ["cfg_r2", "cfg_f2"])
def test_descent_on_kept_face_contexts_cold_and_warm(request, name):
    """check_cocycle_strat over a corpus on one base and corrupted copies,
    first with no face context kept (cold) and then on the kept ones (warm),
    equals cocycle_strat_naive, whose 0th face is the term-by-term chain."""
    cfg = request.getfixturevalue(name)
    base = ChartRing(cfg, "point")
    rng = random.Random(f"warm-{name}")
    strats = [stratification_from_higgs(h) for h in corpus(base, 23)]
    strats += [corrupted_strat(strat, rng) for strat in strats[:4]]
    want = [cocycle_strat_naive(strat) for strat in strats]
    assert not base.faces and not all(w["ok"] for w in want)
    for _ in range(2):
        assert [check_cocycle_strat(strat) for strat in strats] == want
        assert base.faces


def _descent_cells(h):
    """(p_0*(eps), the cells of p_2*(eps) p_0*(eps) by Mat.__mul__) of a
    module, as coefficient dicts by (i, j)."""
    strat = stratification_from_higgs(h)
    ring1 = PdRing(h.base, strat.flavor, 1, d=strat.d, D=strat.D)
    eps = descent_matrix(strat, ring=ring1)
    alpha = strat.braid_unit()
    p0, p2 = (eps.map(face_context(ring1, i, alpha).apply, ring=ring1.bump(2)) for i in (0, 2))
    return {ij: x.coeffs for ij, x in _entries(p0)}, {ij: x.coeffs for ij, x in _entries(p2 * p0)}


@pytest.mark.parametrize(
    "spec", [(5, [-5], 1), (3, [-3], 1), (2, [-2], 1), (3, [-3, 0], 1), (2, [-2, 0], 1), (3, [-3], 2)]
)
def test_stratification_precision_ladder(spec):
    """Every entry of every A_{n,I}, for eight modules sampled at N = 16 and
    read back at N = 8 through JSON, agrees at N = 8 with the N = 16 entry in
    every digit it claims.

    Point bases only: chart bases wait on sparse zeros that carry their
    precision (ROADMAP item 2)."""
    p, E, f = spec
    base = ChartRing(make_base_config(p, E, f=f, precision=16), "point")
    rng = random.Random(f"strat-ladder-{spec}")
    specs = default_specs()
    claimed = 0
    for _ in range(8):
        flavor, rank, d, twist = rng.choice(specs)
        hi = sample_higgs(base, rng, flavor, rank, d=d, twist=twist)
        doc = higgs_to_json(hi)
        doc["config"]["N"] = "8"
        lo = higgs_from_json(doc)
        assert lo.cfg.N == 8
        lo_strat, hi_strat = stratification_from_higgs(lo), stratification_from_higgs(hi)
        assert lo_strat.coeffs.keys() == hi_strat.coeffs.keys()
        for key, lo_mat in lo_strat.coeffs.items():
            hi_entries = dict(_entries(hi_strat.coeffs[key]))
            for ij, x_lo in _entries(lo_mat):
                assert claims_agree(x_lo, hi_entries[ij]), (flavor, d, twist, key, ij)
                claimed += x_lo.prec - x_lo.shift >= 1 and not x_lo.storage_zero()
    assert claimed


@pytest.mark.parametrize(
    "spec", [(5, [-5], 1), (3, [-3], 1), (2, [-2], 1), (3, [-3, 0], 1), (2, [-2, 0], 1), (3, [-3], 2)]
)
def test_descent_precision_ladder(spec):
    """p_0*(eps) and the product cells of p_2*(eps) p_0*(eps), for a module
    sampled at N = 16 and read back at N = 8 through JSON: each coefficient
    at N = 8 agrees with the N = 16 one in every digit it claims, and a key
    absent at N = 8 is zero mod p^8 at N = 16.

    Point bases only: chart bases wait on sparse zeros that carry their
    precision (ROADMAP item 2)."""
    p, E, f = spec
    hi_cfg = make_base_config(p, E, f=f, precision=16)
    base = ChartRing(hi_cfg, "point")
    rng = random.Random(f"pd-ladder-{spec}")
    specs = default_specs()
    claimed = 0
    for _ in range(4):
        flavor, rank, d, twist = rng.choice(specs)
        hi = sample_higgs(base, rng, flavor, rank, d=d, twist=twist)
        doc = higgs_to_json(hi)
        doc["config"]["N"] = "8"
        lo = higgs_from_json(doc)
        assert lo.cfg.N == 8
        for kind, lo_maps, hi_maps in zip(("face", "cell"), _descent_cells(lo), _descent_cells(hi)):
            assert lo_maps.keys() == hi_maps.keys()
            for ij, lo_coeffs in lo_maps.items():
                hi_coeffs = hi_maps[ij]
                for key in lo_coeffs.keys() | hi_coeffs.keys():
                    x_lo = lo_coeffs.get(key, lo.cfg.k_zero())
                    assert claims_agree(x_lo, hi_coeffs.get(key, hi_cfg.k_zero())), (kind, flavor, d, twist, ij, key)
                    claimed += x_lo.prec - x_lo.shift >= 1 and not x_lo.storage_zero()
    assert claimed
