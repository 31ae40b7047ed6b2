import json
import random

import pytest

from htlab.base import Cutoffs, make_base_config
from htlab.chart import ChartRing
from htlab.errors import ParseError
from htlab.samples import sample_higgs
from htlab.serialize import (
    dump_higgs,
    dumps,
    higgs_from_json,
    higgs_to_json,
    k_from_json,
    k_to_json,
    load_higgs,
    scalar_from_json,
    scalar_to_json,
    series_to_json,
)


def _same_mat(a, b):
    return (a - b).is_zero()


def test_k_scalar_roundtrip(cfg_u5):
    x = cfg_u5.k_from_int(37).div_int(4)
    y = k_from_json(cfg_u5, k_to_json(x))
    assert (x - y).is_zero()


def test_k_scalar_with_shift(cfg_u5):
    x = cfg_u5.k_from_int(3) * cfg_u5.pi_inv() * cfg_u5.pi_inv()
    d = k_to_json(x)
    assert int(d["shift"]) >= 0
    y = k_from_json(cfg_u5, d)
    assert (x - y).is_zero()
    assert y.val_pi() == -2


def test_witt_tuple_coefficients(cfg_f2):
    x = cfg_f2.k_from_int(7).div_int(5)
    d = k_to_json(x)
    assert isinstance(d["coeffs"][0], list)
    y = k_from_json(cfg_f2, d)
    assert (x - y).is_zero()


def test_scalar_width_checked(cfg_r2):
    d = {"coeffs": ["1"], "prec": "8", "shift": "0"}
    with pytest.raises(ParseError):
        k_from_json(cfg_r2, d)


def test_residue_width_checked(cfg_u5, cfg_f2):
    for cfg, coeffs in ((cfg_f2, [["1"]]), (cfg_f2, ["1"]), (cfg_u5, [["1", "2"]])):
        with pytest.raises(ParseError):
            k_from_json(cfg, {"coeffs": coeffs, "prec": "8", "shift": "0"})


def test_chart_scalar_roundtrip(cfg_u5):
    ch = ChartRing(cfg_u5, "chart", d=2, r=0)
    x = ch.var(1, 2).smul(3) + ch.var(2, -1) + ch.from_int(11)
    d = scalar_to_json(x)
    y = scalar_from_json(ch, d)
    assert (x - y).is_zero()


def test_malformed_chart_terms_are_parse_errors_whatever_the_coefficient(cfg_u5):
    ch = ChartRing(cfg_u5, "chart", d=1, r=0)
    for coeff in (cfg_u5.k_zero(), cfg_u5.k_from_int(3)):
        rec = k_to_json(coeff)
        for exps in (["0", "0", "0"], ["0"], ["-1", "0"]):
            with pytest.raises(ParseError):
                scalar_from_json(ch, {"terms": [{"exps": exps, "coeff": rec}]})
        term = {"exps": ["0", "1"], "coeff": rec}
        with pytest.raises(ParseError, match="written twice"):
            scalar_from_json(ch, {"terms": [term, dict(term)]})
    # a Laurent position may be negative, and keys that meet through the
    # relation are distinct monomials, summed as written
    assert scalar_from_json(ch, {"terms": [{"exps": ["0", "-2"], "coeff": rec}]}).coeffs
    two = {"terms": [{"exps": ["1", "0"], "coeff": rec}, {"exps": ["0", "0"], "coeff": rec}]}
    assert scalar_from_json(ch, two).coeff((0, 0)).eq(cfg_u5.k_from_int(3 * 6))


def test_bare_coefficient_over_chart(cfg_u5):
    ch = ChartRing(cfg_u5, "chart", d=1, r=0)
    y = scalar_from_json(ch, k_to_json(cfg_u5.k_from_int(6)))
    assert (y - ch.from_int(6)).is_zero()


def test_higgs_roundtrip_point(cfg_u5):
    base = ChartRing(cfg_u5, "point")
    rng = random.Random(4)
    h = sample_higgs(base, rng, "abs-geom", rank=3, d=2)
    h2 = higgs_from_json(json.loads(dumps(higgs_to_json(h))))
    assert h2.flavor == h.flavor and h2.rank == h.rank and h2.twist == h.twist
    for a, b in zip(h.theta, h2.theta):
        assert _same_mat(a, b)
    assert _same_mat(h.phi, h2.phi)


def test_higgs_roundtrip_chart(cfg_u5):
    ch = ChartRing(cfg_u5, "chart", d=2, r=1)
    rng = random.Random(6)
    h = sample_higgs(ch, rng, "abs-geom", rank=2, d=2, twist="smooth")
    h2 = higgs_from_json(json.loads(dumps(higgs_to_json(h), canonical=True)))
    assert h2.base.d == 2 and h2.base.r == 1 and h2.twist == "smooth"
    for a, b in zip(h.theta, h2.theta):
        assert _same_mat(a, b)


def test_chart_module_keeps_its_degree_box_through_json():
    """A chart ring's degree box is its config's cutoffs.Dy, which the config
    block writes: a module over a Dy = 2 config comes back over a ring
    eq_ring finds alike, and its entries combine with the original's."""
    cfg = make_base_config(5, [-5], cutoffs=Cutoffs(Dy=2))
    ch = ChartRing(cfg, "chart", d=1, r=0)
    h = sample_higgs(ch, random.Random(8), "abs-geom", rank=2, d=1)
    h2 = higgs_from_json(json.loads(dumps(higgs_to_json(h), canonical=True)))
    assert h2.base.Dy == 2 and h2.base.eq_ring(ch)
    for a, b in zip(h.theta + [h.phi], h2.theta + [h2.phi]):
        assert _same_mat(a, b)
        assert (a * b).eq(a * a)


def test_relative_descriptor_has_no_phi(cfg_u5):
    base = ChartRing(cfg_u5, "point")
    rng = random.Random(5)
    h = sample_higgs(base, rng, "rel-geom", rank=2, d=1)
    doc = higgs_to_json(h)
    assert "phi" not in doc
    assert higgs_from_json(doc).phi is None


def test_integral_reads_a_json_boolean_true_when_absent(cfg_u5):
    base = ChartRing(cfg_u5, "point")
    h = sample_higgs(base, random.Random(9), "abs-arith", rank=2, d=0)
    doc = higgs_to_json(h)
    for value in (True, False):
        doc["integral"] = value
        assert higgs_from_json(doc).integral is value
    del doc["integral"]
    assert higgs_from_json(doc).integral is True
    for value in ("false", "true", 0, 1, None):
        doc["integral"] = value
        with pytest.raises(ParseError):
            higgs_from_json(doc)


def test_canonical_dumps_stable(cfg_u5):
    base = ChartRing(cfg_u5, "point")
    rng = random.Random(7)
    h = sample_higgs(base, rng, "abs-geom", rank=2, d=1)
    s1 = dumps(higgs_to_json(h), canonical=True)
    s2 = dumps(higgs_to_json(higgs_from_json(json.loads(s1))), canonical=True)
    assert s1 == s2
    assert " " not in s1


def test_file_roundtrip(cfg_u5, tmp_path):
    base = ChartRing(cfg_u5, "point")
    rng = random.Random(8)
    h = sample_higgs(base, rng, "abs-arith", rank=2, d=0)
    path = tmp_path / "mod.json"
    dump_higgs(h, str(path))
    h2 = load_higgs(str(path))
    assert _same_mat(h.phi, h2.phi)


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_higgs(str(bad))
    with pytest.raises(ParseError):
        higgs_from_json({"config": {"p": "5", "E_coeffs": ["-5"]}})


def test_series_to_json_orders_powers(cfg_u5):
    base = ChartRing(cfg_u5, "point")
    d = series_to_json({3: base.from_int(2), 1: base.from_int(9)})
    assert list(d.keys()) == ["1", "3"]
