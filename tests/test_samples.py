import random

from htlab.chart import ChartRing
from htlab.higgs import check_cocycle, validate_higgs
from htlab.samples import corpus, default_specs, sample_group, sample_higgs
from htlab.serialize import dumps, higgs_to_json


def test_default_specs_cover_flavors():
    specs = default_specs()
    flavors = {f for (f, r, d, t) in specs}
    assert flavors == {"abs-arith", "abs-geom", "rel-geom"}
    assert all(d == 0 for (f, r, d, t) in specs if f == "abs-arith")
    assert all(t == "log" for (f, r, d, t) in specs if f == "rel-geom")
    assert max(r for (f, r, d, t) in specs) == 3
    assert max(d for (f, r, d, t) in specs) == 2


def test_corpus_deterministic(cfg_u5):
    base = ChartRing(cfg_u5, "point")
    a = [dumps(higgs_to_json(h), canonical=True) for h in corpus(base, seed=9)]
    b = [dumps(higgs_to_json(h), canonical=True) for h in corpus(base, seed=9)]
    assert a == b
    c = [dumps(higgs_to_json(h), canonical=True) for h in corpus(base, seed=10)]
    assert a != c


def test_corpus_satisfies_axioms(cfg_u5):
    base = ChartRing(cfg_u5, "point")
    for h in corpus(base, seed=3):
        res = validate_higgs(h)
        assert res["ok"]


def test_corpus_passes_cocycle_check(cfg_r2):
    base = ChartRing(cfg_r2, "point")
    specs = [("abs-geom", 2, 1, "log"), ("abs-geom", 3, 2, "smooth"), ("rel-geom", 2, 2, "log")]
    for h in corpus(base, seed=5, specs=specs):
        assert check_cocycle(h)["ok"]


def test_chart_mode_samples_validate(cfg_u5):
    ch = ChartRing(cfg_u5, "chart", d=2, r=1)
    rng = random.Random(8)
    for _ in range(4):
        h = sample_higgs(ch, rng, "abs-geom", rank=2, d=2)
        assert validate_higgs(h)["ok"]
        assert check_cocycle(h)["ok"]


def test_sample_group_geometric_restriction(cfg_u5):
    rng = random.Random(0)
    for _ in range(10):
        s = sample_group(cfg_u5, rng, 2, geometric=True)
        assert s.c == 0 and s.chi == 1
        assert len(s.n) == 2
    full = [sample_group(cfg_u5, rng, 1) for _ in range(10)]
    assert any(s.c != 0 for s in full)
    assert all(s.chi % cfg_u5.p == 1 for s in full)


def test_rank_one_and_arith_shapes(cfg_u5):
    base = ChartRing(cfg_u5, "point")
    rng = random.Random(2)
    h = sample_higgs(base, rng, "abs-arith", rank=1, d=2)
    assert h.d == 0 and h.phi is not None
    g = sample_higgs(base, rng, "rel-geom", rank=3, d=2)
    assert g.phi is None and len(g.theta) == 2
