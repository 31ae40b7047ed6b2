import random

import pytest

from htlab import WittElem, make_base_config, teichmuller
from htlab.deltaring import teichmuller_factorize
from htlab.errors import HorizonTooSmall, NotAUnit, PrecisionExhausted

from oracles import (
    DeltaRingView,
    PrelogCandidate,
    USeries,
    delta_log_validate,
    delta_product_rule_check,
    teich_fixpoint,
)


@pytest.fixture(scope="module")
def v5():
    return DeltaRingView(make_base_config(5, [-5], precision=8), "witt")


@pytest.fixture(scope="module")
def s5():
    return DeltaRingView(make_base_config(5, [-5], precision=8), "series", series_horizon=12)


def w(view, n, prec=None):
    return view.one(prec).smul(n)


class TestDelta:
    def test_delta_of_constants(self, v5):
        assert v5.delta(w(v5, 1)).is_zero()
        assert v5.delta(w(v5, 0)).is_zero()

    def test_delta_of_p(self, v5):
        # delta(5) = (5 - 5^5)/5 = 1 - 5^4 = -624
        d = v5.delta(w(v5, 5))
        assert d == w(v5, -624, prec=7)

    def test_loses_exactly_one_digit(self, v5):
        x = w(v5, 7, prec=5)
        assert v5.delta(x).prec == 4

    def test_precision_guard(self, v5):
        with pytest.raises(PrecisionExhausted):
            v5.delta(w(v5, 3, prec=1))

    def test_exact_division_needs_a_multiple_of_p(self, v5):
        assert w(v5, 15).div_p_exact() == w(v5, 3, prec=7)
        with pytest.raises(ValueError):
            w(v5, 3).div_p_exact()

    def test_delta_u_is_zero(self, s5):
        u = USeries.u(s5.cfg, s5.M)
        assert s5.delta(u).is_zero()

    def test_product_rule_random(self, v5):
        rng = random.Random(2)
        samples = [(w(v5, rng.randrange(5**8)), w(v5, rng.randrange(5**8))) for _ in range(30)]
        samples.append((w(v5, 1), w(v5, 1)))
        samples.append((w(v5, 5), w(v5, 5)))
        report = delta_product_rule_check(v5, samples)
        assert report["ok"], report["failures"]

    def test_product_rule_series(self, s5):
        rng = random.Random(4)
        cfg = s5.cfg
        samples = []
        for _ in range(10):
            a = USeries(cfg, {i: rng.randrange(5**8) for i in range(0, 6, 2)}, cfg.N, s5.M)
            b = USeries(cfg, {i: rng.randrange(5**8) for i in range(1, 5)}, cfg.N, s5.M)
            samples.append((a, b))
        assert delta_product_rule_check(s5, samples)["ok"]


class TestDeltaLog:
    def test_breuil_kisin_datum_valid(self, s5):
        cfg = s5.cfg
        zero = USeries(cfg, {}, cfg.N, s5.M)
        cand = PrelogCandidate(s5, ("e",), {"e": USeries.u(cfg, s5.M)}, {"e": zero})
        ok, violations = delta_log_validate(cand)
        assert ok, violations

    def test_wrong_deltalog_rejected(self, s5):
        cfg = s5.cfg
        one = USeries.from_int(cfg, 1, s5.M)
        cand = PrelogCandidate(s5, ("e",), {"e": USeries.u(cfg, s5.M)}, {"e": one})
        ok, violations = delta_log_validate(cand)
        assert not ok
        assert violations[0].axiom == "compat"

    def test_empty_generators(self, v5):
        cand = PrelogCandidate(v5, (), {}, {})
        ok, violations = delta_log_validate(cand)
        assert ok and not violations

    def test_teichmuller_datum_on_witt(self, v5):
        # alpha(e) = [2] has phi(alpha) = alpha^p, so delta_log 0 works
        cfg = v5.cfg
        cand = PrelogCandidate(
            v5, ("e",), {"e": teichmuller(cfg, 2)}, {"e": w(v5, 0)}
        )
        ok, violations = delta_log_validate(cand)
        assert ok, violations


class TestFactorize:
    def test_teichmuller_unit_gives_empty_product(self, v5):
        x = teichmuller(v5.cfg, 3)
        a, cert = teichmuller_factorize(x, horizon=4)
        assert a == 3
        assert cert.y.is_zero()

    def test_spot_value_mod_125(self):
        # x = 2 in Z_5 at N=3, horizon 2; oracle recombines by hand
        cfg = make_base_config(5, [-5], precision=3)
        x = WittElem(cfg, 2, 3)
        a, cert = teichmuller_factorize(x, horizon=2)
        assert a == 2
        y = cert.y.w  # (2/2^5 - 1)/5 as an integer mod 25
        t = teich_fixpoint(5, 2, 3)
        rebuilt = t * pow(1 + 5 * y, 1, 125) * pow(1 + 5 * y, 5, 125) % 125
        assert rebuilt % 125 == 2
        assert cert.recombine() == x

    def test_nonunit_rejected(self, v5):
        with pytest.raises(NotAUnit):
            teichmuller_factorize(w(v5, 10), horizon=3)

    def test_horizon_too_small(self, v5):
        with pytest.raises(HorizonTooSmall):
            teichmuller_factorize(w(v5, 2), horizon=2, target_prec=8)

    @pytest.mark.parametrize("horizon", [-1, -2])
    def test_negative_horizon_rejected(self, v5, horizon):
        with pytest.raises(HorizonTooSmall):
            teichmuller_factorize(w(v5, 2), horizon=horizon)

    def test_certificate_keeps_its_factors(self, v5):
        a, cert = teichmuller_factorize(w(v5, 2), horizon=4)
        assert cert.factors() is cert.factors()
        assert len(cert.factors()) == 4

    def test_random_units_all_primes(self):
        rng = random.Random(13)
        for p in (2, 3, 5):
            for f in (1, 2):
                cfg = make_base_config(p, [-p], f=f, precision=6)
                for _ in range(10):
                    if f == 1:
                        raw = rng.randrange(1, p**6)
                        while raw % p == 0:
                            raw = rng.randrange(1, p**6)
                    else:
                        raw = (rng.randrange(1, p**6), rng.randrange(p**6))
                        while raw[0] % p == 0 and raw[1] % p == 0:
                            raw = (rng.randrange(1, p**6), rng.randrange(p**6))
                    x = WittElem(cfg, raw, 6)
                    a, cert = teichmuller_factorize(x, horizon=5)
                    assert cert.verified_prec == 6
                    assert cert.recombine() == x

    def test_induction_strengthens_with_horizon(self):
        # partial products agree with x mod p^(n+2) step by step
        cfg = make_base_config(3, [-3], precision=8)
        x = WittElem(cfg, 5, 8)
        for M in range(1, 7):
            a, cert = teichmuller_factorize(x, horizon=M)
            d = cert.recombine() - x
            v = d.val()
            assert v is None or v >= M + 1


@pytest.mark.parametrize("f", [1, 2])
def test_witt_carriers_take_integers_past_n(f):
    """A Witt carrier may hold more digits than N (scale_pk gains them), where
    the K scalar constructors cap at N: its integers are n mod p^prec."""
    cfg = make_base_config(5, [-5], f=f, precision=8)
    prec = cfg.N + 3
    for n in (-1, -7, 5**10 + 3):
        digits = USeries.from_int(cfg, n, 4, prec).coeffs[0]
        assert digits == (n % 5**prec if f == 1 else (n % 5**prec, 0))
    assert USeries.u(cfg, 4, prec).coeffs == {1: 1 if f == 1 else (1, 0)}
    assert DeltaRingView(cfg, "witt").one(prec).w == (1 if f == 1 else (1, 0))
