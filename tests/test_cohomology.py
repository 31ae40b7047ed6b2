import importlib
import random

import pytest

from htlab import make_base_config
from htlab.chart import ChartRing
from htlab.cohomology import (
    ComplexRep,
    build_higgs_complex,
    cohomology,
    cohomology_all,
    kernel_cokernel_mod,
    snf_dvr,
    verify_complex,
)
from htlab.errors import InsufficientPrecision, ValidationFailure
from htlab.higgs import HiggsData
from htlab.linalg import Mat
from oracles import kernel_cokernel_cardinalities


@pytest.fixture(scope="module")
def point(cfg_u5):
    return ChartRing(cfg_u5, "point")


def _shape(rep, degree):
    h = cohomology(rep, degree)
    return h["free_rank"], h["torsion"]


# ---------------------------------------------------------------------------
# Smith reduction
# ---------------------------------------------------------------------------


def test_snf_frozen_values(point, cfg_r2):
    assert snf_dvr(Mat.from_ints(point, [[0, 0], [0, 5]])).vals == [1]
    assert snf_dvr(Mat.from_ints(point, [[5, 0], [0, 7]])).vals == [0, 1]
    assert snf_dvr(Mat.from_ints(point, [[5, 5], [5, 30]])).vals == [1, 2]
    assert snf_dvr(Mat.zero(point, 2)).vals == []
    point2 = ChartRing(cfg_r2, "point")
    # v_pi(2) = 2 in the ramified base
    assert snf_dvr(Mat.from_ints(point2, [[2]])).vals == [2]


def test_snf_transform_identities(point):
    rng = random.Random(7)
    ident = Mat.identity(point, 3)
    for _ in range(12):
        m = Mat.from_ints(point, [[rng.randrange(-60, 60) for _ in range(3)] for _ in range(3)])
        s = snf_dvr(m)
        assert sorted(s.vals) == s.vals
        assert (s.U * m * s.V).eq(s.diag(point))
        assert (s.U * s.Uinv).eq(ident)
        assert (s.Uinv * s.U).eq(ident)
        assert (s.V * s.Vinv).eq(ident)
        assert (s.Vinv * s.V).eq(ident)


def test_snf_rectangular(point):
    m = Mat.from_ints(point, [[0, 1], [0, 0], [0, 5]])
    s = snf_dvr(m)
    assert s.vals == [0]
    assert (s.U * m * s.V).eq(s.diag(point))


def test_snf_requires_integral(point, cfg_u5):
    m = Mat(point, [[cfg_u5.k_one().div_int(5)]])
    with pytest.raises(ValidationFailure):
        snf_dvr(m)


def test_snf_precision_flag(point, cfg_u5):
    fuzzy = cfg_u5.k_zero().clamp_prec(3)
    m = Mat(point, [[fuzzy]])
    assert snf_dvr(m).precision_limited
    with pytest.raises(InsufficientPrecision):
        snf_dvr(m, strict=True)
    exact = Mat(point, [[cfg_u5.k_zero()]])
    assert not snf_dvr(exact).precision_limited


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def _nilp2(point):
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi = Mat.from_ints(point, [[0, 0], [0, 5]])
    return HiggsData(point, "abs-geom", [theta], phi)


def test_complex_shapes(point):
    h = _nilp2(point)
    rep = build_higgs_complex(h)
    assert rep.ranks == [2, 4, 2]
    assert rep.top == h.d + 1
    assert verify_complex(rep)["ok"]
    arith = HiggsData(point, "abs-arith", [], Mat.from_ints(point, [[-5]]))
    rep_a = build_higgs_complex(arith)
    assert rep_a.ranks == [1, 1]
    assert rep_a.diffs[0].eq(arith.phi)
    rel = HiggsData(point, "rel-geom", [Mat.from_ints(point, [[0, 2], [0, 0]])], None)
    rep_r = build_higgs_complex(rel)
    assert rep_r.ranks == [2, 2]
    assert rep_r.top == rel.d
    assert verify_complex(rep_r)["ok"]


def test_complex_d2_squares_to_zero(point):
    t1 = Mat.from_ints(point, [[0, 1], [0, 0]])
    t2 = Mat.from_ints(point, [[0, 2], [0, 0]])
    phi = Mat.from_ints(point, [[5, 0], [0, 10]])
    h = HiggsData(point, "abs-geom", [t1, t2], phi)
    rep = build_higgs_complex(h)
    assert rep.ranks == [2, 6, 6, 2]
    assert verify_complex(rep)["ok"]
    rel = HiggsData(point, "rel-geom", [t1, t2], None)
    rep_r = build_higgs_complex(rel)
    assert rep_r.ranks == [2, 4, 2]
    assert verify_complex(rep_r)["ok"]


def test_broken_braiding_breaks_the_complex(point):
    theta = Mat.from_ints(point, [[0, 1], [0, 0]])
    phi = Mat.from_ints(point, [[0, 0], [0, 7]])
    h = HiggsData(point, "abs-geom", [theta], phi)
    report = verify_complex(build_higgs_complex(h))
    assert not report["ok"]


# ---------------------------------------------------------------------------
# cohomology shapes
# ---------------------------------------------------------------------------


def test_cohomology_frozen_two_term(point):
    rep = ComplexRep(point, [2, 2], [Mat.from_ints(point, [[0, 0], [0, 5]])])
    assert _shape(rep, 0) == (1, [])
    assert _shape(rep, 1) == (1, [1])
    assert _shape(rep, -1) == (0, [])
    assert _shape(rep, 2) == (0, [])


def test_cohomology_frozen_nilp2(point):
    rep = build_higgs_complex(_nilp2(point))
    assert _shape(rep, 0) == (1, [])
    assert _shape(rep, 1) == (1, [])
    assert _shape(rep, 2) == (0, [1])


def test_cohomology_arith_rank1(point):
    h = HiggsData(point, "abs-arith", [], Mat.from_ints(point, [[-5]]))
    rep = build_higgs_complex(h)
    assert _shape(rep, 0) == (0, [])
    assert _shape(rep, 1) == (0, [1])


def test_cohomology_zero_phi(point):
    h = HiggsData(point, "abs-arith", [], Mat.zero(point, 2))
    rep = build_higgs_complex(h)
    assert _shape(rep, 0) == (2, [])
    assert _shape(rep, 1) == (2, [])


def test_cohomology_all_and_amplitude(point):
    rep = build_higgs_complex(_nilp2(point))
    shapes = cohomology_all(rep)
    assert len(shapes) == rep.top + 1
    assert all(not s["precision_limited"] for s in shapes)
    # the top arithmetic degree d+1 is actually attained
    assert shapes[-1]["torsion"] == [1]
    rel = HiggsData(point, "rel-geom", [Mat.from_ints(point, [[0, 1], [0, 0]])], None)
    rep_r = build_higgs_complex(rel)
    assert rep_r.top == rel.d
    assert cohomology(rep_r, rel.d + 1) == {
        "degree": rel.d + 1,
        "free_rank": 0,
        "torsion": [],
        "precision_limited": False,
    }


# ---------------------------------------------------------------------------
# cardinalities against exhaustive enumeration
# ---------------------------------------------------------------------------


def _to_mat(cfg, ring, rows):
    return Mat(
        ring,
        [[cfg.k_from_coeffs(list(x)) for x in row] for row in rows],
    )


@pytest.mark.parametrize(
    "p,E_coeffs",
    [(2, [-2, 0]), (3, [-3]), (3, [-3, 0])],
    ids=["p2-ramified", "p3-unramified", "p3-ramified"],
)
def test_mod_p2_cardinalities_match_enumeration(p, E_coeffs):
    cfg = make_base_config(p, E_coeffs, f=1, precision=8)
    ring = ChartRing(cfg, "point")
    rng = random.Random(100 * p + len(E_coeffs))
    e = len(E_coeffs)
    for size in (1, 2):
        for _ in range(4):
            rows = [
                [tuple(rng.randrange(p**3) for _ in range(e)) for _ in range(size)]
                for _ in range(size)
            ]
            got = kernel_cokernel_mod(_to_mat(cfg, ring, rows), 2)
            ker, coker = kernel_cokernel_cardinalities(p, E_coeffs, 2, rows)
            assert got["kernel"] == ker
            assert got["cokernel"] == coker


def test_mod_p2_cardinalities_zero_matrix():
    cfg = make_base_config(3, [-3], f=1, precision=8)
    ring = ChartRing(cfg, "point")
    rows = [[(0,), (0,)], [(0,), (0,)]]
    got = kernel_cokernel_mod(_to_mat(cfg, ring, rows), 2)
    assert got["kernel"] == 9**2
    assert got["cokernel"] == 9**2


# ---------------------------------------------------------------------------
# behavior at the edge of working precision
# ---------------------------------------------------------------------------


def test_cohomology_all_completes_on_corpus(cfg_r2):
    # ramified modules can push invariant factors close to the working
    # window; the default mode must finish and flag what it cannot certify,
    # while strict mode either agrees or refuses
    from htlab.samples import corpus

    base = ChartRing(cfg_r2, "point")
    saw_limited = False
    for h in corpus(base, seed=11):
        rep = build_higgs_complex(h)
        groups = cohomology_all(rep)
        assert len(groups) == rep.top + 1
        limited = any(g["precision_limited"] for g in groups)
        saw_limited = saw_limited or limited
        if limited:
            with pytest.raises(InsufficientPrecision):
                cohomology_all(rep, strict=True)
        else:
            strict_groups = cohomology_all(rep, strict=True)
            for g, sg in zip(groups, strict_groups):
                assert g["free_rank"] == sg["free_rank"]
                assert g["torsion"] == sg["torsion"]
    assert saw_limited


def _outcome(thunk):
    try:
        return thunk(), None
    except (InsufficientPrecision, ValidationFailure) as exc:
        return None, type(exc)


def test_cohomology_all_reduces_each_differential_once(cfg_u5, cfg_r2, monkeypatch):
    # cohomology_all must agree with the degrees taken one at a time (same
    # groups, or the same exception type), while reducing every differential
    # once and each image once more
    from htlab.samples import corpus

    # the package exports the function cohomology under the module's name
    cohomology_module = importlib.import_module("htlab.cohomology")

    calls = []

    def counting_snf(mat, strict=False):
        calls.append(mat)
        return snf_dvr(mat, strict=strict)

    monkeypatch.setattr(cohomology_module, "snf_dvr", counting_snf)
    modules = corpus(ChartRing(cfg_u5, "point"), 3) + corpus(ChartRing(cfg_r2, "point"), 11)
    modules.append(corpus(ChartRing(make_base_config(3, [-3], precision=8), "point"), 39)[18])
    seen = set()
    for h in modules:
        rep = build_higgs_complex(h)
        for strict in (False, True):
            calls.clear()
            each, each_err = _outcome(lambda: [cohomology(rep, n, strict=strict) for n in range(rep.top + 1)])
            images_each = sum(1 for m in calls if not any(m is d for d in rep.diffs))
            calls.clear()
            every, every_err = _outcome(lambda: cohomology_all(rep, strict=strict))
            assert every_err is each_err
            assert every == each
            per_diff = [sum(1 for m in calls if m is d) for d in rep.diffs]
            images = len(calls) - sum(per_diff)
            if every_err is None:
                assert per_diff == [1] * len(rep.diffs)
                assert images == images_each
            else:
                assert max(per_diff) <= 1
            seen.add((strict, every_err))
    # the corpus covers certified answers and both kinds of refusal
    assert {(False, None), (True, None), (True, InsufficientPrecision), (False, ValidationFailure)} <= seen


def test_snf_high_valuation_pivot_keeps_unit_digits(cfg_r2):
    # pivot pi^6 against an 8-digit window: the exact divide leaves enough
    # of the unit part to finish the reduction
    point2 = ChartRing(cfg_r2, "point")
    pi6 = 2 * 2 * 2 * 3
    m = Mat.from_ints(point2, [[pi6, 0], [0, 2 * pi6]])
    s = snf_dvr(m)
    assert s.vals == [6, 8]
    assert (s.U * m * s.V).eq(s.diag(point2))


def test_snf_rejects_chart_base(cfg_u5):
    chart = ChartRing(cfg_u5, "chart", d=1, r=1)
    m = Mat(chart, [[chart.var(1, 1), chart.from_int(5)], [chart.from_int(1), chart.from_int(0)]])
    with pytest.raises(ValidationFailure, match="point base"):
        snf_dvr(m)


@pytest.mark.xfail(strict=True, raises=ValidationFailure, reason="known defect: image escapes the kernel in degree 1")
def test_valid_corpus_module_gets_an_answer_in_degree_1():
    # validate_higgs and verify_complex both pass on this module, so the
    # cohomology must be certified, flagged precision_limited, or refused
    # with InsufficientPrecision; it raises ValidationFailure instead.  When
    # the defect is fixed this test passes, and the mark must go.
    from htlab.samples import corpus

    h = corpus(ChartRing(make_base_config(3, [-3], precision=8), "point"), 39)[18]
    cohomology(build_higgs_complex(h), 1)
