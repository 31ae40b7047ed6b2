"""Acceptance suite: one test per release criterion.

Run with -v for one pass/fail line per criterion.  Every closed form is
checked against an independent oracle (brute-force expansion, exhaustive
enumeration, or a hand identity); tolerances are zero at the stated
working precision throughout.
"""

import random
import time

import pytest

from htlab import make_base_config
from htlab.chart import ChartRing
from htlab.cohomology import (
    build_higgs_complex,
    cohomology,
    cohomology_all,
    kernel_cokernel_mod,
    verify_complex,
)
from htlab.deltaring import WittElem, teichmuller, teichmuller_factorize
from htlab.galois import GroupElt
from htlab.higgs import (
    HiggsData,
    check_cocycle,
    check_recursions,
    higgs_from_stratification,
    log_from_smooth,
    stratification_from_higgs,
    twist_unit,
)
from htlab.linalg import Mat
from htlab.pdring import PdRing, check_cosimplicial_identities, check_face_evaluation
from htlab.samples import corpus, sample_group, sample_higgs
from htlab.sen import (
    cocycle_matrix,
    crosscheck_inverse_simpson,
    sen_operator,
    verify_cocycle_law,
)
from oracles import DeltaRingView, kernel_cokernel_cardinalities

CONFIGS = [(2, [-2, 0]), (3, [-3]), (5, [-5])]
CORPUS_SEED = 11


def _bases():
    for p, E in CONFIGS:
        cfg = make_base_config(p, E, f=1, precision=8)
        yield cfg, ChartRing(cfg, "point")


def _full_corpus():
    out = []
    for cfg, base in _bases():
        for h in corpus(base, seed=CORPUS_SEED):
            out.append(h)
    return out


def test_criterion_01_cocycle_oracle_on_seeded_corpus():
    t0 = time.monotonic()
    mods = _full_corpus()
    assert len(mods) >= 50
    assert all(h.rank <= 3 and h.d <= 2 and h.cfg.e <= 2 for h in mods)
    for h in mods:
        rep = check_cocycle(h)
        assert rep["ok"], (h.flavor, h.rank, h.d, h.twist, rep)
    assert time.monotonic() - t0 < 300


def test_criterion_02_recursion_identities_exact():
    for h in _full_corpus():
        rep = check_recursions(stratification_from_higgs(h))
        assert rep["ok"], rep["failures"]
        assert rep["checked"] > 0


def test_criterion_03_roundtrip_module_to_stratification_and_back():
    for h in _full_corpus():
        back = higgs_from_stratification(stratification_from_higgs(h))
        for a, b in zip(h.theta, back.theta):
            assert (a - b).is_zero()
        if h.phi is None:
            assert back.phi is None
        else:
            assert (h.phi - back.phi).is_zero()


def test_criterion_04_cosimplicial_identities_both_twists():
    for cfg, base in _bases():
        units = [twist_unit(cfg, "log"), twist_unit(cfg, "smooth")]
        for variant, d in (("abs-arith", 0), ("abs-geom", 2), ("rel-geom", 2)):
            alphas = units if variant != "rel-geom" else [None]
            for alpha in alphas:
                rep = check_cosimplicial_identities(
                    cfg, base, variant, d=d, alpha=alpha, max_degree=2, D=5
                )
                assert rep["ok"], rep["failures"]
                assert rep["count"] > 0


def test_criterion_05_galois_cocycle_law_and_hand_identity():
    for h in _full_corpus():
        cfg = h.cfg
        strat = stratification_from_higgs(h)
        rng = random.Random(1000 + cfg.p)
        geometric = h.flavor == "rel-geom"
        for _ in range(20):
            s = sample_group(cfg, rng, h.d, geometric=geometric)
            u = sample_group(cfg, rng, h.d, geometric=geometric)
            rep = verify_cocycle_law(strat, s, u, T=6)
            assert rep["ok"], (h.flavor, h.rank, h.d, h.twist, rep)
    # rank 1 with phi = -beta: U(sigma) = 1 - beta c t on the nose
    for cfg, base in _bases():
        beta = twist_unit(cfg, "log")
        phi = Mat(base, [[base.from_k(-beta)]])
        h = HiggsData(base, "abs-arith", [], phi)
        strat = stratification_from_higgs(h)
        rng = random.Random(77)
        for _ in range(5):
            s = sample_group(cfg, rng, 0)
            u = sample_group(cfg, rng, 0)
            su = s * u
            [series] = cocycle_matrix(strat, su, T=6)
            assert series[0].eq(cfg.k_one())
            assert series.get(1, cfg.k_zero()).eq(-cfg.beta.smul(su.c))
            assert all(series[k].is_zero() for k in range(2, 6) if k in series)
            assert verify_cocycle_law(strat, s, u, T=6)["ok"]


def test_criterion_06_face_evaluation_oracle_degree_one_to_two():
    tuples = 0
    for p, E in [(5, [-5]), (2, [-2, 0])]:
        cfg = make_base_config(p, E, f=1, precision=8)
        base = ChartRing(cfg, "point")
        rng = random.Random(10 * p)
        jobs = [
            ("abs-arith", 0, twist_unit(cfg, "log")),
            ("abs-arith", 0, twist_unit(cfg, "smooth")),
            ("abs-geom", 1, twist_unit(cfg, "log")),
            ("abs-geom", 2, twist_unit(cfg, "smooth")),
            ("rel-geom", 1, None),
            ("rel-geom", 2, None),
        ]
        for variant, d, alpha in jobs:
            ring = PdRing(cfg, base, variant, 1, d=d)
            gens = list(ring.generators())
            for _ in range(10):
                x = ring.from_int(rng.randint(-5, 5))
                for g in gens:
                    if rng.random() < 0.7:
                        x = x + ring.var(g, rng.randint(1, 2)).smul(rng.randint(-4, 4))
                if variant == "rel-geom":
                    sigmas = [
                        GroupElt(cfg, tuple(rng.randrange(p**4) for _ in range(d)), 0, 1)
                        for _ in range(2)
                    ]
                else:
                    sigmas = [sample_group(cfg, rng, d) for _ in range(2)]
                rep = check_face_evaluation(x, sigmas, alpha=alpha, T=6)
                assert rep["ok"], (variant, d, rep)
                tuples += 1
    assert tuples >= 100


@pytest.mark.parametrize("p,E_coeffs", [(2, [-2, 0]), (3, [-3])], ids=["p2", "p3"])
def test_criterion_07_cohomology_cardinalities_vs_enumeration(p, E_coeffs):
    cfg = make_base_config(p, E_coeffs, f=1, precision=8)
    base = ChartRing(cfg, "point")
    e = cfg.e
    rng = random.Random(7 * p)
    for size in (1, 2):
        for _ in range(5):
            rows = [
                [tuple(rng.randrange(p**3) for _ in range(e)) for _ in range(size)]
                for _ in range(size)
            ]
            mat = Mat(
                base,
                [[cfg.k_from_coeffs(list(x)) for x in row] for row in rows],
            )
            got = kernel_cokernel_mod(mat, 2)
            ker, coker = kernel_cokernel_cardinalities(p, E_coeffs, 2, rows)
            assert got["kernel"] == ker
            assert got["cokernel"] == coker
            assert not got["precision_limited"]


def test_criterion_08_teichmuller_factorization():
    total = 0
    for p in (2, 3, 5):
        for f in (1, 2):
            cfg = make_base_config(p, [-p], f=f, precision=8)
            rng = random.Random(p * 10 + f)
            for _ in range(20):
                if f == 1:
                    raw = rng.randrange(1, p**8)
                else:
                    raw = tuple(rng.randrange(p**8) for _ in range(f))
                x = WittElem(cfg, raw, 8)
                if x.val() != 0:
                    x = x + DeltaRingView(cfg).one(8)
                a, cert = teichmuller_factorize(x, 7)
                rebuilt = teichmuller(cfg, a, cert.verified_prec)
                for factor in cert.factors():
                    rebuilt = rebuilt * factor
                assert (rebuilt - x).is_zero()
                lift = teichmuller(cfg, a, 8)
                assert lift.pow(p**f) == lift
                total += 1
    assert total >= 100
    # spot value: the lift of 2 is 7 mod 25
    cfg5 = make_base_config(5, [-5], f=1, precision=8)
    t = teichmuller(cfg5, 2, 2)
    assert t == WittElem(cfg5, 7, 2)


def test_criterion_09_smooth_log_coherence():
    pairs = 0
    for cfg, base in _bases():
        ep_inv = cfg.Ep.inv()
        rng = random.Random(40 + cfg.p)
        for rank in (1, 2, 3):
            for _ in range(6):
                hs = sample_higgs(base, rng, "abs-arith", rank=rank, twist="smooth")
                hl = log_from_smooth(hs)
                got = sen_operator(hl)
                want = hs.phi.mul_scalar(base.from_k(-ep_inv))
                assert (got - want).is_zero()
                free_s = [g["free_rank"] for g in cohomology_all(build_higgs_complex(hs))]
                free_l = [g["free_rank"] for g in cohomology_all(build_higgs_complex(hl))]
                assert free_s == free_l
                pairs += 1
    assert pairs >= 50


def test_criterion_10_inverse_simpson_crosscheck():
    for cfg, base in _bases():
        rng = random.Random(60 + cfg.p)
        for rank in (1, 2):
            for _ in range(3):
                h = sample_higgs(base, rng, "abs-geom", rank=rank, d=1)
                s = sample_group(cfg, rng, 1)
                rep = crosscheck_inverse_simpson(h, s, T=4, D=3)
                assert rep["ok"], (cfg.p, rank, rep)


def test_criterion_11_tor_amplitude_window():
    for h in _full_corpus():
        if h.flavor != "rel-geom" and h.phi is None:
            continue
        rep = build_higgs_complex(h)
        expected_top = h.d if h.flavor == "rel-geom" else h.d + 1
        assert rep.top == expected_top
        assert verify_complex(rep)["ok"]
        groups = cohomology_all(rep)
        assert len(groups) == expected_top + 1
        for deg in (-1, expected_top + 1):
            g = cohomology(rep, deg)
            assert g["free_rank"] == 0 and g["torsion"] == []
            assert not g["precision_limited"]
