"""The protocol the sparse base gives chart and pd elements."""

import pytest

from htlab.base import Cutoffs, make_base_config
from htlab.chart import ChartElem, ChartRing
from htlab.galois import series_dot
from htlab.higgs import Stratification, descent_matrix
from htlab.linalg import Mat
from htlab.pdring import PdRing


def _chart(cfg):
    ring = ChartRing(cfg, "chart", d=1, r=1)
    return ChartElem(ring, {(0, 0): cfg.k_from_int(3), (0, 2): cfg.k_from_int(7)})


def _pd(cfg):
    ring = PdRing(cfg, ChartRing(cfg, "point"), "abs-geom", 1, d=1)
    return ring.x(1).mul_scalar(cfg.k_from_int(3)) + ring.y(1, 1, 2)


MAKERS = {"chart": _chart, "pd": _pd}


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_sparse_protocol(cfg_u5, kind):
    x = MAKERS[kind](cfg_u5)
    with pytest.raises(TypeError):
        hash(x)
    for other in MAKERS:
        if other != kind:
            assert (x == MAKERS[other](cfg_u5)) is False
    # a cancellation at the ambient precision forgets its keys ...
    assert (x + (-x)).coeffs == {}
    # ... one known to fewer digits keeps them, so later comparisons stay honest
    s = x + (-x).clamp_prec(cfg_u5.N - 2)
    assert list(s.coeffs) == list(x.coeffs)
    assert s.is_zero()


def test_chart_element_truncated_to_nothing_keeps_its_flag_in_every_container():
    # at Dy = 2 every term of x^3 leaves the degree box: no coefficient is
    # left, but the flag is, so no container may forget the element
    cfg = make_base_config(5, [-5], cutoffs=Cutoffs(Dy=2))
    ring = ChartRing(cfg, "chart", d=1, r=0)
    x = ring.var(1)
    lost = x * x * x
    assert lost.coeffs == {} and lost.truncated and not lost.droppable()
    assert (lost * ring.one()).truncated
    assert (Mat(ring, [[lost]]) * Mat(ring, [[ring.one()]])).entry(0, 0).truncated
    assert series_dot([[(0, ring.one())]], [[(1, lost)]], 3)[1].truncated
    coeffs = {(0, (0,)): Mat.identity(ring, 1), (0, (1,)): Mat(ring, [[lost]])}
    strat = Stratification(ring, "rel-geom", coeffs, 1, 1)
    assert descent_matrix(strat).entry(0, 0).truncated


def _product_and_chain(a, b):
    chain = a.entry(0, 0) * b.entry(0, 0) + a.entry(0, 1) * b.entry(1, 0)
    got = (a * b).entry(0, 0)
    return (got.u, got.shift, got.prec), (chain.u, chain.shift, chain.prec), chain


def test_matrix_product_pays_for_a_skipped_zero_times_a_denominator(cfg_u5):
    # 0 * (1/5) is zero to 7 digits only, so 0 * (1/5) + 1 * 5^7 is known
    # mod 5^7, as the chain of its terms is: Mat.__mul__ keeps a droppable
    # left factor in the entry's sum when its partner has a denominator
    point = ChartRing(cfg_u5, "point")
    a = Mat(point, [[cfg_u5.k_zero(), cfg_u5.k_one()]])
    b = Mat(point, [[cfg_u5.k_one().div_int(5)], [cfg_u5.k_from_int(5**7)]])
    got, want, chain = _product_and_chain(a, b)
    assert chain.abs_prec == 7 and chain.is_zero()
    assert got == want


def test_matrix_product_pays_for_a_denominator_times_a_skipped_zero(cfg_u5):
    # the mirror case: (1/5) * 0 + 1 * 5^7, a droppable right factor
    point = ChartRing(cfg_u5, "point")
    a = Mat(point, [[cfg_u5.k_one().div_int(5), cfg_u5.k_one()]])
    b = Mat(point, [[cfg_u5.k_zero()], [cfg_u5.k_from_int(5**7)]])
    got, want, chain = _product_and_chain(a, b)
    assert chain.abs_prec == 7 and chain.is_zero()
    assert got == want


def test_matrix_product_skips_a_zero_whose_partner_has_shift_0(cfg_u5):
    # a droppable factor whose partner has no denominator is still skipped,
    # on either side: the product claims the ambient precision
    point = ChartRing(cfg_u5, "point")
    zero, one, short = cfg_u5.k_zero(), cfg_u5.k_one(), cfg_u5.k_one().clamp_prec(3)
    big = cfg_u5.k_from_int(5**7)
    for a, b in (([zero, one], [short, big]), ([short, one], [zero, big])):
        got = (Mat(point, [a]) * Mat(point, [[x] for x in b])).entry(0, 0)
        assert (got.u, got.shift, got.prec) == (big.u, 0, cfg_u5.N)
