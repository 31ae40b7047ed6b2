import random
from fractions import Fraction

import pytest

from htlab.base import KElem
from htlab.chart import ChartRing
from htlab.errors import AxiomViolation, BadIndex, InsufficientPrecision
from htlab.galois import GroupElt, act_slots, sigma_t, subs_slots
from htlab import make_base_config, pdring
from htlab.higgs import Stratification, descent_matrix, twist_unit
from htlab.pdring import (
    VARIANTS,
    _gamma,
    _Right,
    FaceContext,
    PdElement,
    PdRing,
    check_cosimplicial_identities,
    check_face_evaluation,
    divided_power,
    dot_vanishes,
    evaluate_at_group,
    face_context,
    face_map,
)
from htlab.linalg import Mat
from oracles import (
    agree,
    claims_agree,
    dot_vanishes_by_cell,
    face_apply_chain,
    face_apply_one_sum,
    mat_mul_chain,
    pd_add_naive,
    pd_evaluate_naive,
    pd_face_naive,
    pd_mul_chain,
    pd_mul_naive,
    pd_to_plain,
    plain_mul,
    plain_to_pd,
    subs_t_chain,
)
from test_sen import _random_strat


@pytest.fixture(scope="module")
def point(cfg_u5):
    return ChartRing(cfg_u5, "point")


@pytest.fixture(scope="module")
def ring1(cfg_u5, point):
    return PdRing(cfg_u5, point, "abs-geom", 1, d=1)


# ---------------------------------------------------------------------------
# chart base
# ---------------------------------------------------------------------------


def test_point_base_hands_back_k_elements(cfg_u5, point):
    x = point.from_int(7)
    assert isinstance(x, KElem)
    assert point.one().eq(cfg_u5.k_one())


def test_chart_relation_reduces_to_pi(cfg_u5):
    ch = ChartRing(cfg_u5, "chart", d=1, r=1)
    prod = ch.var(0) * ch.var(1)
    assert list(prod.coeffs) == [(0, 0)]
    assert prod.coeffs[(0, 0)].eq(cfg_u5.pi)


def test_chart_single_boundary_component(cfg_u5):
    # r = 0 means T_0 itself is pi
    ch = ChartRing(cfg_u5, "chart", d=1, r=0)
    assert ch.var(0).eq(ch.from_k(cfg_u5.pi))


def test_chart_laurent_and_forbidden_negatives(cfg_u5):
    ch = ChartRing(cfg_u5, "chart", d=2, r=0)
    tinv = ch.var(1, -1)
    assert (ch.var(1) * tinv).eq(ch.one())
    with pytest.raises(BadIndex):
        ch.monomial((-1, 0, 0))


def test_chart_degree_cap_flags_truncation(cfg_u5):
    ch = ChartRing(cfg_u5, "chart", d=1, r=0, Dy=3)
    t2 = ch.var(1, 2)
    out = t2 * t2
    assert out.storage_zero()
    assert out.truncated
    assert not (t2 * ch.var(1)).truncated


def test_chart_arithmetic_matches_k(cfg_u5):
    ch = ChartRing(cfg_u5, "chart", d=2, r=1)
    a = ch.from_int(3) + ch.var(2) * ch.from_int(2)
    b = ch.from_int(4) - ch.var(2)
    prod = a * b
    assert prod.coeff((0, 0, 0)).eq(cfg_u5.k_from_int(12))
    assert prod.coeff((0, 0, 1)).eq(cfg_u5.k_from_int(5))
    assert prod.coeff((0, 0, 2)).eq(cfg_u5.k_from_int(-2))


# ---------------------------------------------------------------------------
# divided-power multiplication
# ---------------------------------------------------------------------------


def test_pd_binomial_rule(ring1):
    x = ring1.x(1)
    assert (x * x).eq(ring1.x(1, 2).smul(2))
    assert (ring1.x(1, 2) * x).eq(ring1.x(1, 3).smul(3))


def test_pd_cap_drops_and_flags(ring1):
    big = ring1.x(1, 3) * ring1.x(1, 3)
    assert big.storage_zero()
    assert big.truncated


def test_divided_power_of_generator(ring1):
    for a in range(2, 5):
        assert divided_power(ring1.x(1), a).eq(ring1.x(1, a))


def test_divided_power_of_sum(ring1):
    # gamma_2(x+y) = x^[2] + xy + y^[2]
    g = divided_power(ring1.x(1) + ring1.y(1, 1), 2)
    expect = ring1.x(1, 2) + ring1.x(1) * ring1.y(1, 1) + ring1.y(1, 1, 2)
    assert g.eq(expect)


def test_divided_power_rejects_constant_term(ring1):
    with pytest.raises(AxiomViolation):
        divided_power(ring1.one() + ring1.x(1), 2)


def test_divided_power_certifies_integrality(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "abs-geom", 2, d=1)
    z = ring.x(1).smul(2) + ring.x(2) + ring.y(1, 1).smul(7)
    g = divided_power(z, 3)
    assert g.integral()
    # a pi-denominator input stays legal, it just loses the certificate
    w = ring.x(1).mul_scalar(cfg_u5.k_one().div_int(5))
    assert not divided_power(w, 2).integral()


def _random_pd_int_elem(rng, ring, nterms=4):
    gens = ring.generators()
    coeffs = {}
    for _ in range(nterms):
        nvars = rng.randint(1, 2)
        key = {}
        for _ in range(nvars):
            v = rng.choice(gens)
            key[v] = key.get(v, 0) + rng.randint(1, 2)
        if sum(key.values()) > ring.D:
            continue
        coeffs[tuple(sorted(key.items()))] = rng.randint(-9, 9)
    return coeffs


def test_pd_mul_matches_plain_polynomial_oracle(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "abs-geom", 2, d=2)
    rng = random.Random(11)
    for _ in range(25):
        ca = _random_pd_int_elem(rng, ring)
        cb = _random_pd_int_elem(rng, ring)
        a = _from_ints(ring, ca)
        b = _from_ints(ring, cb)
        got = a * b
        want = plain_to_pd(plain_mul(pd_to_plain(ca), pd_to_plain(cb), ring.D))
        for key in {ring.decode(k) for k in got.coeffs} | set(want):
            assert got.coeff(key).eq(cfg_u5.k_from_int(want.get(key, 0)))


def _from_ints(ring, coeffs):
    out = ring.zero()
    for key, c in coeffs.items():
        term = ring.from_int(c)
        for vid, a in key:
            term = term * ring.var(vid, a)
        out = out + term
    return out


def test_pd_mul_associative_below_cap(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "abs-geom", 1, d=1)
    rng = random.Random(5)
    for _ in range(10):
        a = _from_ints(ring, _random_pd_int_elem(rng, ring, 3))
        b = _from_ints(ring, _random_pd_int_elem(rng, ring, 3))
        c = _from_ints(ring, _random_pd_int_elem(rng, ring, 3))
        assert ((a * b) * c).eq(a * (b * c))
        assert (a * b).eq(b * a)


# ---------------------------------------------------------------------------
# face maps
# ---------------------------------------------------------------------------


def test_outer_faces_shift_indices(ring1):
    x = ring1.x(1)
    assert face_map(1, x).eq(ring1.bump(2).x(2))
    assert face_map(2, x).eq(ring1.bump(2).x(1))
    y = ring1.y(1, 1, 2)
    assert face_map(1, y).eq(ring1.bump(2).y(1, 2, 2))
    assert face_map(2, y).eq(ring1.bump(2).y(1, 1, 2))


def test_face_index_bounds(ring1):
    with pytest.raises(BadIndex):
        face_map(3, ring1.x(1))
    with pytest.raises(BadIndex):
        face_map(-1, ring1.x(1))


def test_twisted_face_on_x_low_degrees(cfg_u5, ring1):
    # (X_2 - X_1)(1 - alpha X_1)^{-1} up to degree 2:
    #   X_2 - X_1 + alpha (X_1 X_2 - 2 X_1^[2]) + higher
    img = face_map(0, ring1.x(1), twist_unit(cfg_u5, "log"))
    t = ring1.bump(2)
    alpha = 5
    assert img.coeff(((t.x_id(1), 1),)).eq(cfg_u5.k_from_int(-1))
    assert img.coeff(((t.x_id(2), 1),)).eq(cfg_u5.k_from_int(1))
    assert img.coeff(((t.x_id(1), 1), (t.x_id(2), 1))).eq(cfg_u5.k_from_int(alpha))
    assert img.coeff(((t.x_id(1), 2),)).eq(cfg_u5.k_from_int(-2 * alpha))


def test_twisted_face_on_y(cfg_u5, ring1):
    img = face_map(0, ring1.y(1, 1), twist_unit(cfg_u5, "log"))
    t = ring1.bump(2)
    assert img.coeff(((t.y_id(1, 2), 1),)).eq(cfg_u5.k_one())
    assert img.coeff(((t.y_id(1, 1), 1),)).eq(cfg_u5.k_from_int(-1))
    assert img.coeff(((t.x_id(1), 1), (t.y_id(1, 2), 1))).eq(cfg_u5.k_from_int(5))
    assert img.coeff(((t.x_id(1), 1), (t.y_id(1, 1), 1))).eq(cfg_u5.k_from_int(-5))


def test_relative_face_is_untwisted(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "rel-geom", 1, d=2)
    img = face_map(0, ring.y(2, 1))
    t = ring.bump(2)
    assert img.eq(t.y(2, 2) - t.y(2, 1))
    assert len(img.coeffs) == 2


def test_faces_are_ring_maps(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "abs-geom", 1, d=1)
    rng = random.Random(17)
    ctx0 = FaceContext(ring, 0, twist_unit(cfg_u5, "smooth"))
    ctx1 = FaceContext(ring, 1, None)
    for _ in range(6):
        a = _from_ints(ring, _random_pd_int_elem(rng, ring, 3))
        b = _from_ints(ring, _random_pd_int_elem(rng, ring, 3))
        for ctx in (ctx0, ctx1):
            assert ctx.apply(a * b).eq(ctx.apply(a) * ctx.apply(b))
            assert ctx.apply(a + b).eq(ctx.apply(a) + ctx.apply(b))


@pytest.mark.parametrize("variant,d", [("abs-arith", 0), ("abs-geom", 2), ("rel-geom", 2)])
@pytest.mark.parametrize("twist", ["log", "smooth"], ids=["log", "nonlog"])
def test_cosimplicial_identities_hold(cfg_u5, point, variant, d, twist):
    alpha = twist_unit(cfg_u5, twist)
    report = check_cosimplicial_identities(cfg_u5, point, variant, d=d, alpha=alpha, max_degree=2)
    assert report["ok"], report["failures"]
    assert report["count"] > 0


def test_cosimplicial_identities_ramified_base(cfg_r2):
    point2 = ChartRing(cfg_r2, "point")
    report = check_cosimplicial_identities(cfg_r2, point2, "abs-geom", d=1, max_degree=1)
    assert report["ok"], report["failures"]


# ---------------------------------------------------------------------------
# group elements and the t-action
# ---------------------------------------------------------------------------


def test_group_law_and_inverse(cfg_u5):
    rng = random.Random(3)
    for _ in range(20):
        a = GroupElt(cfg_u5, (rng.randrange(25), rng.randrange(25)), rng.randrange(25), 1 + 5 * rng.randrange(5))
        b = GroupElt(cfg_u5, (rng.randrange(25), rng.randrange(25)), rng.randrange(25), 1 + 5 * rng.randrange(5))
        c = GroupElt(cfg_u5, (rng.randrange(25), rng.randrange(25)), rng.randrange(25), 1 + 5 * rng.randrange(5))
        assert ((a * b) * c) == (a * (b * c))
        assert (a * a.inverse()).is_identity()
        assert (a.inverse() * a).is_identity()


def test_chi_must_be_unit(cfg_u5):
    with pytest.raises(ValueError):
        GroupElt(cfg_u5, (), 1, 5)


def test_sigma_t_frozen_value(cfg_u5, point):
    # c = 1, chi = 1, beta = 5: sigma(t) = t + 5 t^2 + 25 t^3 + ...
    s = GroupElt(cfg_u5, (), 1, 1)
    st = sigma_t(point, s, T=3)
    assert list(st) == [1, 2]
    assert st[1].eq(cfg_u5.k_one())
    assert st[2].eq(cfg_u5.k_from_int(5))


def test_t_action_is_a_left_action(cfg_u5, point):
    rng = random.Random(9)
    T = cfg_u5.cutoffs.T
    x = {1: cfg_u5.k_one(), 3: cfg_u5.k_from_int(2)}
    for _ in range(10):
        s = GroupElt(cfg_u5, (), rng.randrange(25), 1 + 5 * rng.randrange(5))
        u = GroupElt(cfg_u5, (), rng.randrange(25), 1 + 5 * rng.randrange(5))
        [lhs] = act_slots(s * u, [x], point, T)
        [rhs] = act_slots(s, act_slots(u, [x], point, T), point, T)
        assert agree(lhs, rhs)[0]


# ---------------------------------------------------------------------------
# evaluation at group tuples and the compatibility oracle
# ---------------------------------------------------------------------------


def _rand_sigma(rng, cfg, d):
    return GroupElt(
        cfg,
        tuple(rng.randrange(cfg.p**4) for _ in range(d)),
        rng.randrange(cfg.p**4),
        1 + cfg.p * rng.randrange(cfg.p**3),
    )


def test_evaluate_basics(cfg_u5, ring1):
    s = GroupElt(cfg_u5, (4,), 3, 6)
    ev = evaluate_at_group(ring1.x(1), [s])
    assert ev[1].eq(cfg_u5.k_from_int(3))
    ev2 = evaluate_at_group(ring1.x(1, 2), [s])
    # c^2 / 2! with c = 3
    assert ev2[2].eq(cfg_u5.k_from_int(9).div_int(2))
    evy = evaluate_at_group(ring1.y(1, 1), [s])
    assert evy[1].eq(cfg_u5.k_from_int(4))


def test_evaluate_uses_running_products(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "abs-geom", 2, d=1)
    s1 = GroupElt(cfg_u5, (2,), 1, 6)
    s2 = GroupElt(cfg_u5, (1,), 4, 1)
    both = s1 * s2
    ev = evaluate_at_group(ring.x(2), [s1, s2])
    assert ev[1].eq(cfg_u5.k_from_int(both.c))
    evy = evaluate_at_group(ring.y(1, 2), [s1, s2])
    assert evy[1].eq(cfg_u5.k_from_int(both.n[0]))


def test_face_evaluation_oracle_on_generators(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "abs-geom", 1, d=2)
    rng = random.Random(23)
    for x in (ring.x(1), ring.y(1, 1), ring.y(2, 1), ring.x(1, 2), ring.x(1) * ring.y(1, 1)):
        for _ in range(5):
            sigmas = [_rand_sigma(rng, cfg_u5, 2) for _ in range(2)]
            rep = check_face_evaluation(x, sigmas)
            assert rep["ok"], rep


def test_face_evaluation_oracle_random_elements(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "abs-geom", 1, d=1)
    rng = random.Random(29)
    for _ in range(8):
        x = _from_ints(ring, _random_pd_int_elem(rng, ring, 3))
        sigmas = [_rand_sigma(rng, cfg_u5, 1) for _ in range(2)]
        rep = check_face_evaluation(x, sigmas)
        assert rep["ok"], rep


def test_face_evaluation_relative_geometric_tuples(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "rel-geom", 1, d=2)
    rng = random.Random(31)
    for _ in range(8):
        x = _from_ints(ring, _random_pd_int_elem(rng, ring, 3))
        sigmas = [GroupElt(cfg_u5, (rng.randrange(625), rng.randrange(625)), 0, 1) for _ in range(2)]
        rep = check_face_evaluation(x, sigmas)
        assert rep["ok"], rep


def test_face_evaluation_ramified(cfg_r2):
    point2 = ChartRing(cfg_r2, "point")
    ring = PdRing(cfg_r2, point2, "abs-geom", 1, d=1)
    rng = random.Random(37)
    for _ in range(5):
        x = ring.x(1) + ring.y(1, 1).smul(rng.randint(-3, 3))
        sigmas = [_rand_sigma(rng, cfg_r2, 1) for _ in range(2)]
        rep = check_face_evaluation(x, sigmas)
        assert rep["ok"], rep


def test_face_evaluation_nonlog_params(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "abs-geom", 1, d=1)
    rng = random.Random(41)
    for _ in range(5):
        x = ring.x(1).smul(rng.randint(-3, 3)) + ring.y(1, 1) + ring.x(1, 2)
        sigmas = [_rand_sigma(rng, cfg_u5, 1) for _ in range(2)]
        assert any(s.c for s in sigmas)
        rep = check_face_evaluation(x, sigmas, alpha=twist_unit(cfg_u5, "smooth"))
        assert rep["ok"], rep


@pytest.mark.parametrize("name", ["cfg_u5", "cfg_r2"])
def test_face_evaluation_sees_a_wrong_face(request, monkeypatch, name):
    """One face made wrong by p^k X_1 added, k = 1 or N - 1: the per-face
    verdicts of check_face_evaluation equal the rule of a difference
    (oracles.agree) between the two sides, face by face, and the wrong
    face fails."""
    cfg = request.getfixturevalue(name)
    base = ChartRing(cfg, "point")
    ring = PdRing(cfg, base, "abs-geom", 1, d=1)
    T = cfg.cutoffs.T
    rng = random.Random(43)
    real = pdring.face_map
    failed = 0
    for trial in range(12):
        bad, k = trial % 3, rng.choice((1, cfg.N - 1))

        def wrong(i, x, alpha=None):
            y = real(i, x, alpha)
            return y + y.ring.x(1).smul(cfg.p**k) if i == bad else y

        monkeypatch.setattr(pdring, "face_map", wrong)
        x = _from_ints(ring, _random_pd_int_elem(rng, ring, 3))
        sigmas = [_rand_sigma(rng, cfg, 1) for _ in range(2)]
        rep = check_face_evaluation(x, sigmas)
        rhs = [
            act_slots(sigmas[0], [evaluate_at_group(x, sigmas[1:], T=T)], base, T)[0],
            evaluate_at_group(x, [sigmas[0] * sigmas[1]], T=T),
            evaluate_at_group(x, sigmas[:1], T=T),
        ]
        want = [agree(evaluate_at_group(wrong(i, x), sigmas, T=T), rhs[i])[0] for i in range(3)]
        assert [f["ok"] for f in rep["faces"]] == want, (trial, rep)
        assert rep["ok"] is all(want)
        assert want[:bad] + want[bad + 1 :] == [True, True]
        failed += not want[bad]
    assert failed >= 6


# an absent pd key claims N digits, and _gamma's division cannot lower that
# claim: at p = 2 a power of the twisted image can vanish mod p^N while its
# quotient by a! does not
P2_FACE_OVERCLAIM = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: at p = 2 gamma_a of the twisted d^0 image leaves a key absent that is not 0 to N digits",
)


@pytest.mark.parametrize("N", [pytest.param(8, marks=P2_FACE_OVERCLAIM), 12, 16])
def test_twisted_face_of_the_p2e2_reproducer(N):
    """x = 5 - X_1^[3] over p2e2 (E = u^2 - 2), abs-arith, log twist.  At
    N = 16 the d^0 image holds X_1^[5] and X_1^[4] X_2^[1] at 1920 and
    31616, each 2^7 times an odd number.  At N = 8, gamma_3 of the image
    leaves both keys absent, which claims 8 zero digits: the cube before the
    division agrees with N = 16, and div_int cannot lower the claim of an
    absent key.  So the two keys and face 0 of check_face_evaluation at
    (c = 11, chi = 11), (c = 9, chi = 11) fail at N = 8 and pass at N = 12
    and 16."""

    def image(n):
        cfg = make_base_config(2, [-2, 0], precision=n)
        ring = PdRing(cfg, ChartRing(cfg, "point"), "abs-arith", 1)
        x = ring.from_int(5) - ring.x(1, 3)
        return cfg, x, face_map(0, x, cfg.beta)

    cfg, x, img = image(N)
    hi = image(16)[2]
    keys = ((((0, 0, 1), 5),), (((0, 0, 1), 4), ((0, 0, 2), 1)))
    over = [key for key in keys if not claims_agree(img.coeff(key), hi.coeff(key))]
    rep = check_face_evaluation(x, [GroupElt(cfg, (), 11, 11), GroupElt(cfg, (), 9, 11)])
    assert (over, [f["i"] for f in rep["faces"] if not f["ok"]]) == ([], [])


def _ladder_terms(rng, ring):
    """1 to 4 terms of random integer coefficient: the constant, or a
    monomial in a random set of generators of total degree up to D."""
    gens = ring.generators()
    out = {}
    for _ in range(rng.randint(1, 4)):
        key = ()
        if rng.random() >= 0.2:
            k = rng.randint(1, len(gens))
            total = rng.randint(k, ring.D)
            cuts = sorted(rng.sample(range(1, total), k - 1))
            exps = [b - a for a, b in zip([0] + cuts, cuts + [total])]
            key = tuple(sorted(zip(rng.sample(gens, k), exps)))
        out[key] = rng.randrange(-50, 50)
    return out


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=P2_FACE_OVERCLAIM) if name.startswith("p2") else name
        for name in ("p2", "p3", "p2e2", "p3e2", "p5", "p3f2")
    ],
)
def test_twisted_face_precision_ladder(name):
    """d^0 with the log twist of 180 random integral elements, 90 each of
    abs-arith and abs-geom (d = 1) at degree 1, formed at N = 8 and at
    N = 16: every key at N = 8 agrees with the N = 16 key in every digit it
    claims, and a key absent at N = 8 is zero mod p^8 at N = 16.

    At p = 2 an absent key can over-claim (test_twisted_face_of_the_p2e2_reproducer)."""
    p, E, f = {
        "p2": (2, [-2], 1),
        "p3": (3, [-3], 1),
        "p2e2": (2, [-2, 0], 1),
        "p3e2": (3, [-3, 0], 1),
        "p5": (5, [-5], 1),
        "p3f2": (3, [-3], 2),
    }[name]
    cfgs = [make_base_config(p, E, f=f, precision=N) for N in (8, 16)]
    zero_lo, zero_hi = (cfg.k_zero() for cfg in cfgs)
    rng = random.Random(f"face-ladder-{name}")
    failed = []
    for variant, d in (("abs-arith", 0), ("abs-geom", 1)):
        rings = [PdRing(cfg, ChartRing(cfg, "point"), variant, 1, d=d) for cfg in cfgs]
        for _ in range(90):
            terms = _ladder_terms(rng, rings[0])
            lo, hi = (
                face_map(0, PdElement(r, {r.encode(k): r.cfg.k_from_int(c) for k, c in terms.items()}), r.cfg.beta)
                for r in rings
            )
            keys = lo.coeffs.keys() | hi.coeffs.keys()
            if not all(claims_agree(lo.coeffs.get(k, zero_lo), hi.coeffs.get(k, zero_hi)) for k in keys):
                failed.append((variant, terms))
    assert not failed, (len(failed), failed[:2])


def test_sigma_t_twist_parameter(cfg_u5, point):
    from htlab.galois import GroupElt, sigma_t

    s = GroupElt(cfg_u5, (), 3, 7)
    log = sigma_t(point, s, T=4)
    non = sigma_t(point, s, T=4, alpha=cfg_u5.Ep)
    # chi, chi*alpha*c, chi*(alpha*c)^2 with alpha = 5 resp. 1
    assert log[1].eq(cfg_u5.k_from_int(7))
    assert log[2].eq(cfg_u5.k_from_int(7 * 15))
    assert non[2].eq(cfg_u5.k_from_int(7 * 3))
    assert non[3].eq(cfg_u5.k_from_int(7 * 9))


# ---------------------------------------------------------------------------
# packed monomials against the readable-monomial oracle
# ---------------------------------------------------------------------------

# (variant, degree, d): one generator, where every pair of monomials shares
# its variable, up to six generators
ORACLE_RINGS = (("abs-arith", 1, 0), ("abs-geom", 1, 1), ("rel-geom", 2, 1), ("abs-geom", 2, 2))


def _readable(x):
    return [(x.ring.decode(k), c) for k, c in x.coeffs.items()], x.truncated


def _stored(x):
    """Monomials in dict order, each coefficient's (u, shift, prec), and the flag."""
    terms, trunc = x
    return [(key, (c.u, c.shift, c.prec)) for key, c in terms], trunc


def _oracle_scalar(cfg, rng):
    """A coefficient: a unit, a p-multiple, a denominator, or a zero at full or reduced precision."""
    roll = rng.random()
    if roll < 0.15:
        return cfg.k_zero()
    if roll < 0.25:
        return cfg.k_zero().clamp_prec(rng.randrange(1, cfg.N))
    x = cfg.k_from_int(rng.randrange(1, cfg.p**3))
    if roll < 0.4:
        x = x.div_int(cfg.p)
    elif roll < 0.5:
        x = x.clamp_prec(rng.randrange(2, cfg.N))
    return x


def _oracle_monomial(ring, rng):
    """(variable, exponent) pairs: the constant, one variable to a high power, or several of degree exactly D."""
    gens = ring.generators()
    roll = rng.random()
    if roll < 0.1:
        return ()
    if roll < 0.45:
        return ((rng.choice(gens), rng.randrange(1, ring.D + 1)),)
    k = rng.randrange(1, min(3, len(gens), ring.D) + 1)
    total = ring.D if roll < 0.75 else rng.randrange(k, ring.D + 1)
    # total split into k positive exponents
    cuts = sorted(rng.sample(range(1, total), k - 1))
    exps = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return tuple(zip(rng.sample(gens, k), exps))


def _oracle_element(ring, rng, scalar):
    coeffs = {}
    for _ in range(rng.randrange(0, 5)):
        coeffs[ring.encode(_oracle_monomial(ring, rng))] = scalar()
    return PdElement(ring, coeffs, truncated=rng.random() < 0.15)


@pytest.mark.parametrize("D", [1, 5, 8, 12])
def test_packed_products_sums_and_faces_match_the_oracle(cfg_u5, point, D):
    """Products, sums and every face agree with the oracle on decoded monomials:
    the same monomials in the same order, stored alike, with the same flag.
    d^0, one sum whose key order is face_apply_one_sum's, agrees monomial by
    monomial.  Over a d = 1, r = 1 chart base, products and sums agree too,
    with each chart coefficient's keys sorted: the chart inner loop of the
    pair loop meets pairs that share a variable and pairs cut above D."""
    rng = random.Random(100 + D)
    scalar = lambda: _oracle_scalar(cfg_u5, rng)
    one = point.one()
    units = {twist: twist_unit(cfg_u5, twist) for twist in ("log", "smooth")}
    assert {variant for variant, _, _ in ORACLE_RINGS} == set(VARIANTS)
    shared = 0
    for variant, n, d in ORACLE_RINGS:
        ring = PdRing(cfg_u5, point, variant, n, d=d, D=D)
        for _ in range(12):
            x = _oracle_element(ring, rng, scalar)
            y = _oracle_element(ring, rng, scalar)
            rx, ry = _readable(x), _readable(y)
            assert _stored(_readable(x * y)) == _stored(pd_mul_naive(rx, ry, D))
            assert _stored(_readable(x + y)) == _stored(pd_add_naive(rx, ry))
            assert _stored(_readable(x - y)) == _stored(pd_add_naive(rx, ry, sub=True))
            shared += any(v == w for k1, _ in rx[0] for k2, _ in ry[0] for v, _ in k1 for w, _ in k2)
        # the twisted face builds a divided power of each image up to D; a
        # few terms per element keep that affordable at D = 12
        for twist, alpha in units.items():
            contexts = [FaceContext(ring, i, alpha) for i in range(n + 2)]
            for _ in range(3 if D < 12 else 1):
                x = _oracle_element(ring, rng, scalar)
                for i, ctx in enumerate(contexts):
                    got = ctx.apply(x)
                    want = _stored(pd_face_naive(_readable(x), i, variant, D, one, alpha))
                    if i == 0:
                        # d^0 is one sum, whose key order is its own
                        _assert_face_is_one_sum(ctx, x, got, (variant, twist))
                        got, want = _keys_sorted(_stored(_readable(got))), _keys_sorted(want)
                    else:
                        got = _stored(_readable(got))
                    assert got == want, (variant, twist, i)
    assert shared >= 10
    chart = ChartRing(cfg_u5, "chart", d=1, r=1)
    shared = cut = 0
    for variant, n, d in ORACLE_RINGS:
        ring = PdRing(cfg_u5, chart, variant, n, d=d, D=D)
        for _ in range(6):
            x = _oracle_element(ring, rng, lambda: _chart_scalar(chart, rng))
            y = _oracle_element(ring, rng, lambda: _chart_scalar(chart, rng))
            rx, ry = _readable(x), _readable(y)
            assert _chart_stored(_readable(x * y)) == _chart_stored(pd_mul_naive(rx, ry, D))
            assert _chart_stored(_readable(x + y)) == _chart_stored(pd_add_naive(rx, ry))
            assert _chart_stored(_readable(x - y)) == _chart_stored(pd_add_naive(rx, ry, sub=True))
            for k1, _ in rx[0]:
                for k2, _ in ry[0]:
                    if sum(a for _, a in k1 + k2) > D:
                        cut += 1
                    else:
                        shared += bool({v for v, _ in k1} & {w for w, _ in k2})
    # at D = 1 every pair that shares a variable lies above D
    assert cut >= 3 and (shared >= 3 or D == 1), (shared, cut)


def _chart_stored(x):
    """_stored over a chart base: each chart coefficient's _form with its chart keys sorted."""
    terms, trunc = x
    return _chart_keys_sorted(([(key, _form(c)) for key, c in terms], trunc))


def test_packed_evaluation_matches_the_oracle(cfg_u5, point):
    rng = random.Random(7)
    for D in (1, 5, 8, 12):
        for variant, n, d in ORACLE_RINGS:
            ring = PdRing(cfg_u5, point, variant, n, d=d, D=D)
            ints = {}
            for _ in range(rng.randrange(1, 6)):
                ints[ring.encode(_oracle_monomial(ring, rng))] = rng.randrange(-50, 50)
            x = PdElement(ring, {k: cfg_u5.k_from_int(c) for k, c in ints.items()})
            sigmas = [_rand_sigma(rng, cfg_u5, d) for _ in range(n)]
            values, acc = {}, None
            for j, s in enumerate(sigmas, start=1):
                acc = s if acc is None else acc * s
                values[(0, 0, j)] = acc.c
                for k in range(1, d + 1):
                    values[(1, k, j)] = acc.n[k - 1]
            T = rng.randrange(1, D + 2)
            got = evaluate_at_group(x, sigmas, T=T)
            want = pd_evaluate_naive([(ring.decode(k), c) for k, c in ints.items()], values, T)
            for m in range(T):
                w = want.get(m, 0)
                assert got.get(m, cfg_u5.k_zero()).eq(cfg_u5.k_from_int(w.numerator).div_int(w.denominator)), (D, variant, m)
            # slots appear in the order their first monomial does, then those only a charged zero fills
            seen = [m for m in dict.fromkeys(ring.key_degree(k) for k in x.coeffs) if m < T]
            order = [m for m in seen if m in got]
            assert list(got)[: len(order)] == order


def test_twisted_face_keeps_the_flag_of_a_truncated_constant(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "abs-geom", 1, d=1, D=3)
    x = ring.from_int(7) + ring.x(1, 4)  # x(1, 4) is past the cutoff: a flagged zero
    assert x.truncated and list(x.coeffs) == [0]
    for i in range(3):
        img = FaceContext(ring, i, twist_unit(cfg_u5, "log")).apply(x)
        assert img.truncated, i
        assert img.eq(ring.bump(2).from_int(7))


def _subs_scalar(cfg, rng):
    """A K coefficient for the substitution oracle: a unit, a zero at reduced
    precision, a shifted scalar, or the inverse of (p + 1) / p, (6/5)^-1 at
    p = 5, which gains a digit that the cap at N drops."""
    p, N = cfg.p, cfg.N
    kind = rng.choice(("unit", "unit", "zero", "shifted", "wide"))
    if kind == "zero":
        return cfg.k_zero(rng.randrange(1, N))
    if kind == "shifted":
        return cfg.k_from_int(rng.randrange(1, p**N)).div_int(p ** rng.randrange(1, 3))
    if kind == "wide":
        return cfg.k_from_int(p + 1).div_int(p).inv().smul(rng.choice((1, -1, 2)))
    return cfg.k_from_int(rng.randrange(p**N))


@pytest.mark.parametrize(
    "p, E, f, mode",
    [(5, [-5], 1, "point"), (2, [-2, 0], 1, "point"), (3, [-3], 2, "point"), (5, [-5], 1, "chart")],
    ids=["p5", "p2e2", "p3f2", "p5-chart"],
)
def test_subs_t_all_keeps_the_stored_form_of_the_running_chain(p, E, f, mode):
    """galois.subs_slots, the substitution t -> t_img on {t-degree:
    coefficient} dicts (the name keeps that of the wrapper it replaced),
    against oracles.subs_t_chain."""
    cfg = make_base_config(p, E, f=f, precision=6)
    base = ChartRing(cfg, mode, d=1, r=1) if mode == "chart" else ChartRing(cfg)
    rng = random.Random(f"subs-{p}-{len(E)}-{f}-{mode}")
    T = cfg.cutoffs.T

    def coeff():
        c = base.from_k(_subs_scalar(cfg, rng))
        if mode == "chart" and rng.random() < 0.5:
            c = c + base.var(1, rng.choice((1, 2))).mul_scalar(_subs_scalar(cfg, rng))
        return c

    def series(low):
        coeffs = {k: coeff() for k in range(low, T) if rng.random() < 0.7}
        return {k: c for k, c in coeffs.items() if not c.droppable()}

    seen = 0
    for i in range(40):
        if i % 2:
            s = GroupElt(cfg, (), rng.randrange(p**6), rng.choice((1, p + 1, 1 - p)))
            t_img = sigma_t(base, s, T=T, alpha=cfg.beta if rng.random() < 0.5 else cfg.Ep)
        else:
            t_img = series(1)
        xs = [series(0) for _ in range(3)]
        got = subs_slots(xs, t_img, base, T)
        # every slot has the chain's stored form; the slot order may differ,
        # as the chain moves a slot that cancels to a droppable partial sum
        # and is entered again to the end
        want = subs_t_chain(xs, t_img, base, T)
        assert [sorted((k, _form(v)) for k, v in x.items()) for x in got] == [
            sorted((k, _form(v)) for k, v in x.items()) for x in want
        ]
        seen += sum(len(x) for x in got)
    assert seen > 100
    assert subs_slots([], t_img, base, T) == []


# ---------------------------------------------------------------------------
# the product and the twisted face against the pair-by-pair chain
# ---------------------------------------------------------------------------


def _form(c):
    """The stored form of a scalar or pd element: (u, shift, prec) of each K
    scalar, every dict in its order, and every flag."""
    if isinstance(c, KElem):
        return (c.u, c.shift, c.prec)
    return [(k, _form(v)) for k, v in c.coeffs.items()], c.truncated


def _chain_scalar(cfg, rng):
    """A coefficient for the chain oracles: besides _oracle_scalar's kinds, a
    large denominator (terms of absolute precision below 1 follow) and an
    inverse that gains digits, capped at N."""
    roll = rng.random()
    if roll < 0.2:
        return cfg.k_from_int(rng.randrange(1, cfg.p**3)).div_int(cfg.p ** rng.randrange(2, cfg.N + 1))
    if roll < 0.3:
        return cfg.k_from_int(1 + cfg.p * rng.randrange(cfg.p**2)).div_int(cfg.p).inv()
    return _oracle_scalar(cfg, rng)


def _chart_scalar(chart, rng):
    cfg = chart.cfg
    out = chart.from_k(_chain_scalar(cfg, rng))
    for _ in range(rng.randrange(3)):
        out = out + chart.var(rng.randrange(chart.d + 1), rng.randrange(1, 3)) * chart.from_k(_chain_scalar(cfg, rng))
    return out


def _cut_pair(ring):
    """Two elements whose every pair lies above D."""
    top = ring.var(ring.generators()[0], ring.D)
    return top, top + ring.var(ring.generators()[-1])


@pytest.mark.parametrize("name", ["cfg_u5", "cfg_r2", "cfg_f2"])
def test_products_match_the_chain_oracle(request, name):
    """Stored forms, key order and flag of x * y agree with pd_mul_chain: keys of
    absolute precision below 1 beside others, shifted coefficients,
    reduced-precision zeros, inverses capped at N, chart coefficients, truncated and
    empty operands, monomials of degree exactly D, and fully cut products."""
    cfg = request.getfixturevalue(name)
    rng = random.Random(500 + cfg.p * cfg.e * cfg.f)
    chart = ChartRing(cfg, "chart", d=1, r=1)
    bases = [(ChartRing(cfg, "point"), lambda: _chain_scalar(cfg, rng)), (chart, lambda: _chart_scalar(chart, rng))]
    low = chained = cut = 0
    for base, scalar in bases:
        for D in (2, 5, 8):
            for variant, n, d in ORACLE_RINGS:
                ring = PdRing(cfg, base, variant, n, d=d, D=D)
                pairs = [(ring.zero(), ring.zero()), (PdElement(ring, {}, truncated=True), ring.one()), _cut_pair(ring)]
                for _ in range(10 if base.is_point else 3):
                    pairs.append((_oracle_element(ring, rng, scalar), _oracle_element(ring, rng, scalar)))
                for x, y in pairs:
                    want = pd_mul_chain(x, y)
                    assert _form(x * y) == _form(want), (name, base.mode, D, variant)
                    if base.is_point:
                        xs = [(c.prec - c.shift, c.shift) for c in x.coeffs.values()]
                        ys = [(c.prec - c.shift, c.shift) for c in y.coeffs.values()]
                        low += any(min(a1 - s2, a2 - s1) < 1 for a1, s1 in xs for a2, s2 in ys)
                    chained += not base.is_point and bool(want.coeffs)
                    cut += bool(x.coeffs and y.coeffs) and not want.coeffs and want.truncated
    assert low >= 5 and chained >= 5 and cut >= 3


def _cells(m):
    return {
        (i, j): ({k: _form(c) for k, c in e.coeffs.items()}, e.truncated)
        for i, row in enumerate(m.rows)
        for j, e in enumerate(row)
    }


def _product(a, b):
    return _cells(a * b)


def _chain(a, b):
    return _cells(mat_mul_chain(a, b))


def _cell_entry(ring, rng, scalar):
    roll = rng.random()
    if roll < 0.15:
        return ring.zero()
    if roll < 0.2:
        return PdElement(ring, {}, truncated=True)
    return _oracle_element(ring, rng, scalar)


@pytest.mark.parametrize("name", ["cfg_u5", "cfg_r2", "cfg_f2"])
def test_product_cells_match_the_matrix_product(request, name):
    """Each cell of Mat.__mul__ holds the stored form of every key and the
    flag of the same cell of mat_mul_chain: droppable and empty truncated
    factors, cut pairs, keys of absolute precision below 1 reached by
    several products, inverses capped at N, and chart coefficients."""
    cfg = request.getfixturevalue(name)
    rng = random.Random(700 + cfg.p * cfg.e * cfg.f)
    point = ChartRing(cfg, "point")
    chart = ChartRing(cfg, "chart", d=1, r=1)
    scalars = {point: lambda: _chain_scalar(cfg, rng), chart: lambda: _chart_scalar(chart, rng)}
    low = cut = 0
    for base, scalar in scalars.items():
        for D in (2, 5):
            for variant, n, d in ORACLE_RINGS:
                ring = PdRing(cfg, base, variant, n, d=d, D=D)
                for _ in range(8 if base.is_point else 2):
                    a = Mat(ring, [[_cell_entry(ring, rng, scalar) for _ in range(3)] for _ in range(2)])
                    b = Mat(ring, [[_cell_entry(ring, rng, scalar) for _ in range(2)] for _ in range(3)])
                    got = _product(a, b)
                    assert got == _chain(a, b), (name, base.mode, D, variant)
                    for (i, j), (_, trunc) in got.items():
                        pairs = [(x, b.rows[l][j]) for l, x in enumerate(a.rows[i])]
                        pairs = [(x, y) for x, y in pairs if not x.droppable() and not y.droppable()]
                        cut += trunc and not any(x.truncated or y.truncated for x, y in pairs)
                        if not base.is_point:
                            continue
                        terms = {}
                        for l, (x, y) in enumerate(pairs):
                            for k1, c1 in x.coeffs.items():
                                for k2, c2 in y.coeffs.items():
                                    if ring.key_degree(k1) + ring.key_degree(k2) <= D:
                                        a12 = min(c1.prec - c1.shift - c2.shift, c2.prec - c2.shift - c1.shift)
                                        terms.setdefault(k1 + k2, []).append((l, a12))
                        low += any(min(a for _, a in t) < 1 and len({l for l, _ in t}) > 1 for t in terms.values())
    assert low and cut, (low, cut)


def test_product_cells_sum_low_precision_keys_in_product_order(cfg_u5, point):
    """Below absolute precision 1 every order of a sum stores alike: a + b
    cancels to 5^3 and is normalized before c is added, c + b + a is not,
    and both give the one no-digit zero (0, 1, 1).  The matrix product sums
    its products in l order, as mat_mul_chain does."""
    ring = PdRing(cfg_u5, point, "abs-geom", 1, d=1, D=3)
    xs = [cfg_u5.k_from_coeffs([1], 5, 3), cfg_u5.k_from_coeffs([124], 5, 3), cfg_u5.k_from_coeffs([1], 0, 0)]
    ones = Mat(ring, [[ring.one()] * 3])
    for a, b, c in (xs, xs[::-1]):
        col = Mat(ring, [[ring.from_scalar(x)] for x in (a, b, c)])
        [[cell]] = (ones * col).rows
        assert _form(cell.coeffs[0]) == (0, 1, 1)
        assert _product(ones, col) == _chain(ones, col)
        assert _form(a + b + c) == (0, 1, 1)


def test_product_cells_and_the_matrix_product_keep_n_right_digits(cfg_u5, point):
    """(5^4, w) times (5^4, w), w = (6/5)^-1: the matrix product drops the
    droppable 5^4 * 5^4 = 5^8 before adding w * w.  Every lift of the inputs
    has 5^4 * 5^4 = 5^8, so the sum is 5^8 + w^2, and both the matrix
    product and mat_mul_chain hold it at N digits, none past N, where a
    ninth digit of w^2 alone would be wrong."""
    ring = PdRing(cfg_u5, point, "abs-geom", 1, d=1, D=3)
    N = cfg_u5.N
    w = cfg_u5.k_from_int(6).div_int(5).inv()
    q = cfg_u5.k_from_int(5**4)
    a = Mat(ring, [[ring.from_scalar(q), ring.from_scalar(w)]])
    b = Mat(ring, [[ring.from_scalar(q)], [ring.from_scalar(w)]])
    exact = Fraction(5**8) + Fraction(5, 6) ** 2
    want = exact.numerator * pow(exact.denominator, -1, 5**N) % 5**N
    [[prod]] = (a * b).rows
    [[chain]] = mat_mul_chain(a, b).rows
    for c in (prod.coeffs[0], chain.coeffs[0]):
        assert _form(c) == (want, 0, N)
    assert _product(a, b) == _chain(a, b)


def _mixed(m, rng):
    """m with about a tenth of its entries made droppable, a twentieth empty
    and truncated, and a tenth flagged truncated with their keys kept."""
    t = m.ring
    rows = []
    for row in m.rows:
        out = []
        for x in row:
            roll = rng.random()
            if roll < 0.1:
                x = t.zero()
            elif roll < 0.15:
                x = PdElement(t, {}, truncated=True)
            elif roll < 0.25:
                x = PdElement(t, x.coeffs, truncated=True)
            out.append(x)
        rows.append(out)
    return Mat(t, rows)


def test_product_cells_match_the_matrix_product_at_large_descent_size(cfg_r2):
    """The cells of p_2*(eps) p_0*(eps) on a ring of the large descent
    workload, p = 2, e = 2, abs-geom with d = 3 at D = 8, both twists: the 4 x 4
    faces of the descent matrix of a random rank-4 stratification with a
    dozen nonzero keys, with droppable, empty truncated and truncated
    entries mixed in: Mat.__mul__ agrees with mat_mul_chain in stored form
    and flag.  Each entry of the right factor is read once and serves a
    whole column, so its filters meet left keys of several degrees: some
    cut a key of the entry, others leave it whole."""
    point = ChartRing(cfg_r2, "point")
    ring = PdRing(cfg_r2, point, "abs-geom", 1, d=3, D=8)
    t = ring.bump(2)
    rng = random.Random("cells-large")
    mixed = 0
    for twist in ("log", "smooth"):
        keys = list(_random_strat(point, rng, 4, 3, 8).coeffs.items())[:12]
        eps = descent_matrix(Stratification(point, "abs-geom", dict(keys), 8, 4), ring=ring)
        alpha = twist_unit(cfg_r2, twist)
        a, b = (_mixed(eps.map(face_context(ring, i, alpha).apply, ring=t), rng) for i in (2, 0))
        assert _product(a, b) == _chain(a, b), twist
        for l, brow in enumerate(b.rows):
            for j, y in enumerate(brow):
                if not y.coeffs:
                    continue
                top = max(t.key_degree(k) for k in y.coeffs)
                caps = {t.D - t.key_degree(k) for row in a.rows for k in row[l].coeffs}
                mixed += any(cap < top for cap in caps) and any(cap >= top for cap in caps)
    assert mixed, mixed


@pytest.mark.parametrize("name", ["cfg_u5", "cfg_r2", "cfg_f2"])
def test_pd_dot_with_multipliers_is_the_chain(request, name):
    """BaseConfig.dot over pd scalars with multipliers m (units, multiples of
    p, negatives, p^N) has the stored form and flag of the chain that forms
    each product by pd_mul_chain, applies smul(m) and adds the terms in
    order.  Inside a chart coefficient only the key order may differ, where
    a partial sum is droppable (htlab.chart), as p^N makes it."""
    cfg = request.getfixturevalue(name)
    rng = random.Random(f"pd-dot-{name}")
    point = ChartRing(cfg, "point")
    chart = ChartRing(cfg, "chart", d=1, r=1)
    scalars = {point: lambda: _chain_scalar(cfg, rng), chart: lambda: _chart_scalar(chart, rng)}
    for base, scalar in scalars.items():
        for variant, n, d in ORACLE_RINGS:
            ring = PdRing(cfg, base, variant, n, d=d, D=4)
            for _ in range(6 if base.is_point else 2):
                k = rng.randrange(2, 5)
                xs = [_cell_entry(ring, rng, scalar) for _ in range(k)]
                ys = [_cell_entry(ring, rng, scalar) for _ in range(k)]
                ms = [rng.choice((1, -3, cfg.p, 2 * cfg.p**2, cfg.p**cfg.N)) for _ in range(k)]
                want = ring.zero()
                for x, y, m in zip(xs, ys, ms):
                    want = want + pd_mul_chain(x, y).smul(m)
                got, want = _form(cfg.dot(xs, ys, ms)), _form(want)
                if not base.is_point:
                    got, want = (_chart_keys_sorted(f) for f in (got, want))
                assert got == want, (name, base.mode, variant)


@pytest.mark.parametrize("name", ["cfg_u5", "cfg_r2", "cfg_f2"])
def test_dot_vanishes_is_the_cell_route(request, name):
    """dot_vanishes(xs, ys, ms) is the (is_zero, truncated) of the pd element
    BaseConfig.dot(xs, ys, ms) (oracles.dot_vanishes_by_cell), on random
    dots with multipliers and on the same dots less their own value, the
    descent's form, which vanish, over point and chart bases."""
    cfg = request.getfixturevalue(name)
    rng = random.Random(f"pd-vanish-{name}")
    point = ChartRing(cfg, "point")
    chart = ChartRing(cfg, "chart", d=1, r=1)
    scalars = {point: lambda: _chain_scalar(cfg, rng), chart: lambda: _chart_scalar(chart, rng)}
    seen = dict.fromkeys(("zero", "residual"), 0)
    for base, scalar in scalars.items():
        for variant, n, d in ORACLE_RINGS:
            ring = PdRing(cfg, base, variant, n, d=d, D=4)
            for _ in range(6 if base.is_point else 2):
                k = rng.randrange(2, 5)
                xs = [_cell_entry(ring, rng, scalar) for _ in range(k)]
                ys = [_cell_entry(ring, rng, scalar) for _ in range(k)]
                ms = [rng.choice((1, -3, cfg.p, cfg.p**cfg.N)) for _ in range(k)]
                minus = (xs + [cfg.dot(xs, ys, ms)], ys + [ring.one()], ms + [-1])
                for args in ((xs, ys, ms), minus):
                    got = dot_vanishes(*args)
                    assert got == dot_vanishes_by_cell(*args), (name, base.mode, variant)
                    seen["zero" if got[0] else "residual"] += 1
    assert all(seen.values()), seen


def test_dot_vanishes_counts_every_flag(cfg_u5):
    """A key that does not vanish, met first, ends the test over K but not
    the flag: a later pair cut by a filter still sets it.  Over a chart every
    key is formed, so a later key truncated by the box, with no factor
    flagged, sets it too."""
    chart = ChartRing(cfg_u5, "chart", d=1, r=1, Dy=1)
    for base in (ChartRing(cfg_u5, "point"), chart):
        ring = PdRing(cfg_u5, base, "rel-geom", 1, d=1, D=1 if base.is_point else 3)
        y = ring.y(1, 1)
        if base.is_point:
            x = y  # y * y has pd-degree 2 > D
        else:
            x = ring.from_scalar(chart.var(1)) * y  # T_1^2 lies outside the box Dy = 1
        args = ([y, x], [ring.one(), x], None)
        assert not any(v.truncated for v in args[0] + args[1])
        assert dot_vanishes(*args) == dot_vanishes_by_cell(*args) == (False, True)


def _chart_keys_sorted(form):
    """The _form of a pd element over a chart base with each chart coefficient's keys sorted."""
    keys, trunc = form
    return [(k, (sorted(c[0]), c[1])) for k, c in keys], trunc


def _keys_sorted(form):
    keys, trunc = form
    return sorted(keys), trunc


def _assert_face_is_one_sum(ctx, x, got=None, msg=None):
    """d^0 of x on ctx (got, when given) is face_apply_one_sum in stored form,
    key order and flag, and holds the stored form of face_apply_chain at
    every key, with its flag: the one sum regroups nothing, so only the key
    order may differ from the chain's, and inside a chart coefficient the
    order of the chart keys."""
    got = _form(ctx.apply(x) if got is None else got)
    assert got == _form(face_apply_one_sum(ctx, x)), msg
    chain = _form(face_apply_chain(ctx, x))
    if not ctx.ring.base.is_point:
        got, chain = _chart_keys_sorted(got), _chart_keys_sorted(chain)
    assert (dict(got[0]), got[1]) == (dict(chain[0]), chain[1]), msg


def test_a_column_entry_meets_every_row_through_one_right(cfg_u5, point, monkeypatch):
    """Mat.__mul__ over pd elements reads each entry of the right factor that
    meets a nonempty left entry into one _Right, kept on the entry, and
    every row of the left factor meets the entry through it; an empty entry
    is read into none, and a second product reads nothing again."""
    ring = PdRing(cfg_u5, point, "abs-geom", 1, d=1, D=4)
    rng = random.Random("one-right")
    a = Mat(ring, [[_cell_entry(ring, rng, lambda: _chain_scalar(cfg_u5, rng)) for _ in range(3)] for _ in range(5)])
    b = Mat(ring, [[_cell_entry(ring, rng, lambda: _chain_scalar(cfg_u5, rng)) for _ in range(3)] for _ in range(3)])
    met = {id(y): sum(bool(row[l].coeffs) for row in a.rows) for l, brow in enumerate(b.rows) for y in brow if y.coeffs}
    met = {key: rows for key, rows in met.items() if rows}
    assert max(met.values()) > 1
    read = []
    real = _Right.__init__
    monkeypatch.setattr(_Right, "__init__", lambda self, y: read.append(id(y)) or real(self, y))
    assert _product(a, b) == _chain(a, b)
    assert sorted(read) == sorted(met)
    assert all(y._right is not None for brow in b.rows for y in brow if id(y) in met)
    a * b
    assert len(read) == len(met)


def _face_branches(ctx, x, seen):
    """Count the data-dependent branches the chain of each term of x meets:
    a droppable product c * v on the first gamma, a product whose left
    operand is empty, a product whose filter cuts a live key, and a
    truncated coefficient in a term."""
    t, ring = ctx.target, x.ring
    for key, c in x.coeffs.items():
        gammas = [ctx._gamma_image(vid, a) for vid, off in ring.slots if (a := (key >> off) & ring.field)]
        if not gammas:
            continue
        first = gammas[0]
        products = {k: c * v for k, v in first.coeffs.items()}
        seen["dropped"] += any(p.droppable() for p in products.values())
        seen["chart-trunc"] += any(p.truncated for p in products.values())
        term = PdElement(t, products, first.truncated)
        for g in gammas[1:]:
            seen["empty"] += not term.coeffs
            seen["cut"] += any(t.key_degree(k1) + t.key_degree(k2) > t.D for k1 in term.coeffs for k2 in g.coeffs)
            term = pd_mul_chain(term, g)
            seen["chart-trunc"] += any(p.truncated for p in term.coeffs.values())


def _branch_elements(ring, base):
    """Elements that reach the branches _face_branches counts: p times the
    product of the first two generators (all of whose first products drop
    on a context with the series scaled by p^(N-1)), every generator pair at
    degree D (cut), and, over a chart base, a truncated coefficient."""
    cfg = ring.cfg
    gens = ring.generators()
    out = []
    if len(gens) > 1:
        out.append(PdElement(ring, {ring.encode(((gens[0], 1), (gens[1], 1))): base.from_int(cfg.p)}))
        out.append(PdElement(ring, {ring.encode(((g, ring.D - 1), (h, 1))): base.one() for g in gens for h in gens if g < h}))
    if not base.is_point:
        wide = base.var(0, 1) + base.var(0, base.Dy) * base.var(0, 1)
        assert wide.truncated and wide.coeffs
        out.append(PdElement(ring, {ring.encode(((g, 1),)): wide for g in gens}))
    return out


@pytest.mark.parametrize("name", ["cfg_u5", "cfg_r2", "cfg_f2"])
def test_twisted_face_matches_the_chain_oracle(request, name):
    """FaceContext.apply at i = 0 is face_apply_one_sum in stored form, key
    order and flag, and holds face_apply_chain's stored form at every key,
    with its flag (_assert_face_is_one_sum), a constant key whose inverse
    gains a digit, capped at N, included.

    One context serves every element of a ring, drawn over three seeds, so a
    plan built for one element runs on the next.  The inputs reach each
    data-dependent branch of a plan: a droppable first product, an empty
    left operand (on a second context whose series is scaled by p^(N-1), so
    p times a first gamma drops whole), a cut at D = 3, and truncated chart
    coefficients."""
    cfg = request.getfixturevalue(name)
    point = ChartRing(cfg, "point")
    chart = ChartRing(cfg, "chart", d=1, r=1)
    wide = cfg.k_from_int(1 + cfg.p).div_int(cfg.p).inv()
    scale = cfg.k_from_int(cfg.p ** (cfg.N - 1))
    seen = dict.fromkeys(("dropped", "empty", "cut", "chart-trunc"), 0)
    for base in (point, chart):
        for D in (3, 6):
            for variant, n, d in ORACLE_RINGS:
                ring = PdRing(cfg, base, variant, n, d=d, D=D)
                for twist in ("log", "smooth") if variant != "rel-geom" else ("log",):
                    ctx = FaceContext(ring, 0, twist_unit(cfg, twist))
                    contexts = [ctx]
                    if ctx._geom is not None:
                        scaled = FaceContext(ring, 0, twist_unit(cfg, twist))
                        scaled._geom = ctx._geom.mul_scalar(base.from_k(scale))
                        contexts.append(scaled)
                    xs = [ring.from_scalar(base.from_k(wide)) + ring.var(ring.generators()[0])]
                    xs += _branch_elements(ring, base)
                    for seed in range(3):
                        rng = random.Random(f"face-{name}-{seed}")
                        scalar = (lambda: _chain_scalar(cfg, rng)) if base.is_point else (lambda: _chart_scalar(chart, rng))
                        xs += [_oracle_element(ring, rng, scalar) for _ in range(2 if base.is_point else 1)]
                    for c in contexts:
                        for x in xs:
                            _assert_face_is_one_sum(c, x, msg=(name, base.mode, variant, twist))
                            _face_branches(c, x, seen)
    assert all(seen.values()), seen


def test_twisted_face_matches_the_chain_oracle_at_large_descent_size(cfg_r2):
    """The same agreement on a ring of the large descent workload, p = 2, e = 2,
    abs-geom with d = 3 at D = 8, both twists: the descent matrix entry of a
    random rank-1 stratification, which fills most monomials, and random
    elements, through one context per twist."""
    point = ChartRing(cfg_r2, "point")
    ring = PdRing(cfg_r2, point, "abs-geom", 1, d=3, D=8)
    rng = random.Random("face-large")
    for twist in ("log", "smooth"):
        ctx = FaceContext(ring, 0, twist_unit(cfg_r2, twist))
        eps = descent_matrix(_random_strat(point, rng, 1, 3, 8), ring=ring)
        xs = [x for row in eps.rows for x in row]
        xs += [_oracle_element(ring, rng, lambda: _chain_scalar(cfg_r2, rng)) for _ in range(3)]
        for x in xs:
            _assert_face_is_one_sum(ctx, x, msg=twist)


def test_face_contexts_are_kept_per_ring_and_twist(cfg_u5):
    """face_context hands out one d^0 context per base, ring layout and twist.

    An equal ring with the same unit gets the same context; a change of D,
    degree, variant or twist gets a new one; a chart and a point base over
    one config never share; a ring over another config object with the same
    key is confirmed by eq_ring and gets a context of its own; faces other
    than d^0 are not kept.

    A kept context reads every later gamma of a plan into one _Right, kept
    on the gamma, and every plan lists those very gammas: applied to the
    descent entries of a second module, it keeps the _Rights of the pairs
    the first met and adds one for each new pair."""
    point = ChartRing(cfg_u5, "point")
    chart = ChartRing(cfg_u5, "chart", d=1, r=1)
    log, smooth = twist_unit(cfg_u5, "log"), twist_unit(cfg_u5, "smooth")
    ring = PdRing(cfg_u5, point, "abs-geom", 1, d=1, D=4)
    ctx = face_context(ring, 0, log)
    assert ctx is face_context(PdRing(cfg_u5, point, "abs-geom", 1, d=1, D=4), 0, cfg_u5.beta * cfg_u5.k_one())
    others = [
        face_context(PdRing(cfg_u5, point, "abs-geom", 1, d=1, D=5), 0, log),
        face_context(PdRing(cfg_u5, point, "abs-geom", 2, d=1, D=4), 0, log),
        face_context(PdRing(cfg_u5, point, "abs-arith", 1, D=4), 0, log),
        face_context(ring, 0, smooth),
        face_context(PdRing(cfg_u5, chart, "abs-geom", 1, d=1, D=4), 0, log),
    ]
    assert len({id(c) for c in [ctx] + others}) == 6
    assert len(point.faces) == 5 and len(chart.faces) == 1
    twin_cfg = make_base_config(5, [-5], f=1, precision=8)
    stranger = PdRing(twin_cfg, point, "abs-geom", 1, d=1, D=4)
    other = face_context(stranger, 0, twist_unit(twin_cfg, "log"))
    assert other is not ctx and other.ring.eq_ring(stranger)
    assert face_context(ring, 1, log) is not face_context(ring, 1, log)

    def gammas(key):
        return [(vid, a) for vid, off in ring.slots if (a := (key >> off) & ring.field)]

    rng = random.Random("kept-rights")
    full = dict(_random_strat(point, rng, 2, 1, 4).coeffs)
    low = {key: m for key, m in full.items() if key[0] + sum(key[1]) <= 3}
    before = {}
    for coeffs in (low, full):
        eps = descent_matrix(Stratification(point, "abs-geom", coeffs, 4, 2), ring=ring)
        eps.map(ctx.apply, ring=ctx.target)
        later = {g for row in eps.rows for x in row for key in x.coeffs for g in gammas(key)[1:]}
        rights = {g: ctx._gammas[g]._right for g in later}
        assert None not in rights.values()
        assert len({id(r) for r in rights.values()}) == len(rights)
        assert before.keys() <= later
        assert all(rights[g] is r for g, r in before.items())
        for key, (first, middle, last, flag) in ctx._plans.items():
            plan = [last] if first is None else [first, *middle, last]
            assert len(plan) == len(gammas(key)) and flag == any(g.truncated for g in plan)
            assert all(g is ctx._gammas[vid_a] for g, vid_a in zip(plan, gammas(key)))
            assert all(g._right is rights[vid_a] for g, vid_a in zip(plan[1:], gammas(key)[1:]))
        assert later - before.keys(), sorted(before)
        before = rights
    # a shared context applies as a private one does
    x = ring.x(1, 2) + ring.y(1, 1) * ring.x(1)
    assert _form(face_context(ring, 0, log).apply(x)) == _form(FaceContext(ring, 0, log).apply(x))


@pytest.mark.parametrize("variant,d", [("abs-arith", 0), ("abs-geom", 1)])
def test_twisted_face_defaults_to_beta(cfg_u5, variant, d):
    """With no twist unit d^0 is twisted by beta, as sigma_t and the two
    checks are: face_map(0, x) is face_map(0, x, beta) in stored form, on the
    one context the base keeps, and a private context agrees."""
    point = ChartRing(cfg_u5, "point")
    ring = PdRing(cfg_u5, point, variant, 1, d=d, D=4)
    x = ring.x(1, 3) + ring.x(1).mul_scalar(point.from_int(7))
    if d:
        x = x + ring.y(1, 1, 2) * ring.x(1)
    ctx = face_context(ring, 0)
    assert ctx is face_context(ring, 0, cfg_u5.beta)
    assert _form(face_map(0, x)) == _form(face_map(0, x, cfg_u5.beta))
    assert _form(FaceContext(ring, 0).apply(x)) == _form(ctx.apply(x))
    assert len(point.faces) == 1 and ctx._plans


def test_cached_gammas_are_divided_powers(cfg_r2, cfg_f2):
    for cfg in (cfg_r2, cfg_f2):
        point = ChartRing(cfg, "point")
        for variant, n, d in ORACLE_RINGS:
            ring = PdRing(cfg, point, variant, n, d=d, D=6)
            ctx = FaceContext(ring, 0, twist_unit(cfg, "log"))
            for vid in ring.generators():
                # largest first: the smaller gammas then read a chain built already
                for a in range(ring.D, 0, -1):
                    got = ctx._gamma_image(vid, a)
                    assert _form(got) == _form(divided_power(ctx._gamma_image(vid, 1), a)), (variant, vid, a)


def test_cached_gammas_keep_the_divided_power_checks(cfg_u5, point):
    ring = PdRing(cfg_u5, point, "abs-geom", 1, d=1, D=5)
    ctx = FaceContext(ring, 0, twist_unit(cfg_u5, "log"))
    t = ctx.target
    vid = ring.x_id(1)
    ctx._gammas[(vid, 1)] = t.one() + t.x(2)
    with pytest.raises(AxiomViolation, match="positive pd-degree"):
        ctx._gamma_image(vid, 2)
    # a power that is not x^5 leaves 1/5 behind: the integrality check fires
    with pytest.raises(AxiomViolation, match="integrality"):
        _gamma(t.x(1), t.x(1), 5)


def test_pd_elements_of_different_rings_do_not_combine(cfg_u5, point):
    r4 = PdRing(cfg_u5, point, "abs-geom", 1, d=1, D=4)
    r9 = PdRing(cfg_u5, point, "abs-geom", 1, d=1, D=9)
    x, y = r4.x(1, 2), r9.y(1, 1, 3)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: y * x):
        with pytest.raises(BadIndex):
            op()
    # a ring equal to r4 but not the same object combines
    twin = PdRing(cfg_u5, point, "abs-geom", 1, d=1, D=4)
    z = twin.y(1, 1, 2)
    assert _form(x + z) == _form(x + r4.y(1, 1, 2))
    assert _form(x * z) == _form(x * r4.y(1, 1, 2))


def test_evaluate_at_group_raises_when_the_top_slot_has_no_digit():
    # p = 2, N = 3, T = 5: v_2(4!) = 3, so the t^4 slot keeps no certified digit
    cfg = make_base_config(2, [-2], precision=3)
    ring = PdRing(cfg, ChartRing(cfg, "point"), "abs-arith", 1)
    with pytest.raises(InsufficientPrecision, match="t\\^4"):
        evaluate_at_group(ring.x(1), [GroupElt(cfg, (), 1, 1)], T=5)
    assert evaluate_at_group(ring.x(1), [GroupElt(cfg, (), 1, 1)], T=4)
