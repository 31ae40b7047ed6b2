"""Chart scalars: the constructor's rule, the coefficient maps and the dot kernel."""

import random

import pytest

from htlab.base import Cutoffs, make_base_config
from htlab.chart import ChartElem, ChartRing
from htlab.errors import BadIndex
from oracles import chart_dot_chain

# (d, r): one boundary component or two, with a Laurent variable or none
CHARTS = ((1, 0), (1, 1), (2, 1), (2, 2))


def _stored(x):
    return [(k, (c.u, c.shift, c.prec)) for k, c in x.coeffs.items()]


def _with_box(cfg, Dy):
    """A config like cfg, whose chart rings have the degree box Dy."""
    return make_base_config(cfg.p, cfg.E_coeffs, f=cfg.f, precision=cfg.N, cutoffs=Cutoffs(Dy=Dy))


def test_a_zero_the_relation_forms_is_dropped(cfg_u5):
    # 5^7 * T_0 T_1 = 5^7 * pi = 5^8, a droppable zero at N = 8
    ring = ChartRing(cfg_u5, "chart", d=1, r=1)
    c = cfg_u5.k_from_int(5**7)
    for x in (ChartElem(ring, {(1, 1): c}), ring.var(0) * ChartElem(ring, {(0, 1): c})):
        assert x.storage_zero() and x.droppable()
    # the same zero at a key past Dy = 3 is dropped before the box: no flag
    ring = ChartRing(_with_box(cfg_u5, 3), "chart", d=2, r=1)
    for x in (
        ChartElem(ring, {(1, 1, 4): c}),
        ChartElem(ring, {(1, 0, 2): c}) * ring.monomial((0, 1, 2)),
        ring.cfg.dot([ring.var(1), ChartElem(ring, {(1, 0, 2): c})], [ring.var(2), ring.monomial((0, 1, 2))], [0, 1]),
    ):
        assert not x.truncated


def test_the_constructor_checks_a_key_before_its_coefficient(cfg_u5):
    ring = ChartRing(cfg_u5, "chart", d=1, r=0)
    for exps in ((0, 0, 0), (-1, 0)):
        for c in (cfg_u5.k_zero(), cfg_u5.k_one()):
            with pytest.raises(BadIndex):
                ChartElem(ring, {exps: c})


def test_coefficient_maps_keep_their_keys_and_drop_only_droppable(cfg_u5):
    ring = ChartRing(cfg_u5, "chart", d=2, r=1)
    k = cfg_u5.k_from_int
    x = ChartElem(ring, {(0, 1, -1): k(5**7), (1, 0, 2): k(3), (0, 0, 0): k(2)})
    keys = list(x.coeffs)
    assert list(x.smul(5).coeffs) == keys[1:]
    assert list((-x).coeffs) == list(x.div_int(5).coeffs) == list(x.mul_scalar(k(7)).coeffs) == keys
    assert ring.from_k(cfg_u5.k_zero()).storage_zero()
    assert list(ring.from_k(cfg_u5.k_zero().clamp_prec(3)).coeffs) == [ring.origin]


def _scalar(cfg, rng):
    """A coefficient: a unit, a p-multiple, a p^(N-1) multiple (which a power
    of pi can make a droppable zero), a denominator, or a zero at full or
    reduced precision."""
    roll = rng.random()
    if roll < 0.1:
        return cfg.k_zero()
    if roll < 0.2:
        return cfg.k_zero().clamp_prec(rng.randrange(1, cfg.N))
    if roll < 0.3:
        return cfg.k_from_int(cfg.p ** (cfg.N - 1) * rng.randrange(1, cfg.p))
    x = cfg.k_from_int(rng.randrange(1, cfg.p**3))
    if roll < 0.5:
        return x.div_int(cfg.p ** rng.randrange(1, 3))
    if roll < 0.6:
        return x.clamp_prec(rng.randrange(2, cfg.N))
    return x


def _element(ring, rng):
    """An operand of 1-3 terms (T_0 and the positions up to r at 0..2, the
    Laurent ones at -2..2), or an empty one, truncated or not."""
    roll = rng.random()
    if roll < 0.08:
        return ring.zero()
    if roll < 0.12:
        return ChartElem(ring, {}, truncated=True)
    coeffs = {}
    for _ in range(rng.randrange(1, 4)):
        exps = tuple(rng.randrange(3) if i <= ring.r else rng.randrange(-2, 3) for i in range(ring.d + 1))
        coeffs[exps] = _scalar(ring.cfg, rng)
    return ChartElem(ring, coeffs, truncated=rng.random() < 0.08)


@pytest.mark.parametrize("name", ["cfg_u5", "cfg_r2", "cfg_f2"])
def test_dot_matches_the_chain_oracle(request, name):
    """dot and products over chart scalars give each key the stored form and
    the flag of chart_dot_chain, and its key order unless the chain dropped
    a droppable coefficient or partial sum: relation powers 1 and 2 or more,
    keys past a small Dy, reduced-precision zeros, shifted coefficients, the
    multipliers 1, -1, p, 0 and 3p^2, truncated and empty operands, and a
    last term that cancels the first."""
    cfg = _with_box(request.getfixturevalue(name), 3)
    rng = random.Random(900 + cfg.p * cfg.e * cfg.f)
    mults = (1, -1, cfg.p, 0, 3 * cfg.p**2)
    seen = dict.fromkeys(("pi", "pi^2", "box", "low", "dropped", "reordered", "cancelled"), 0)
    for d, r in CHARTS:
        ring = ChartRing(cfg, "chart", d=d, r=r)
        for _ in range(60):
            n = rng.randrange(1, 5)
            xs = [_element(ring, rng) for _ in range(n)]
            ys = [_element(ring, rng) for _ in range(n)]
            ms = [rng.choice(mults) for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                xs[-1], ys[-1], ms[-1] = xs[0], -ys[0], ms[0]
                seen["cancelled"] += 1
            for case, got in (
                ((xs, ys, ms), cfg.dot(xs, ys, ms)),
                ((xs, ys, None), cfg.dot(xs, ys)),
                ((xs[:1], ys[:1], None), xs[0] * ys[0]),
            ):
                coeffs, trunc, dropped = chart_dot_chain(*case)
                want = [(k, (c.u, c.shift, c.prec)) for k, c in coeffs.items()]
                assert got.truncated == trunc, (d, r, case)
                if dropped:
                    assert sorted(_stored(got)) == sorted(want), (d, r, case)
                    seen["dropped"] += 1
                    seen["reordered"] += _stored(got) != want
                else:
                    assert _stored(got) == want, (d, r, case)
                seen["box"] += trunc and not any(x.truncated or y.truncated for x, y in zip(*case[:2]))
                seen["low"] += any(c.prec - c.shift < cfg.N and c.u == cfg.zero_u for c in coeffs.values())
            for x, y in zip(xs, ys):
                for e1 in x.coeffs:
                    for e2 in y.coeffs:
                        m = min(a + b for a, b in zip(e1[: r + 1], e2[: r + 1]))
                        seen["pi" if m == 1 else "pi^2"] += m > 0
    assert min(seen.values()) >= 3, seen


def test_elements_of_rings_that_differ_do_not_combine(cfg_u5):
    # Dy = 2 and Dy = 6: the sum would keep T_1^5 in the Dy = 2 ring, unflagged
    small = ChartRing(_with_box(cfg_u5, 2), "chart", d=1, r=0)
    large = ChartRing(_with_box(cfg_u5, 6), "chart", d=1, r=0)
    assert not small.eq_ring(large)
    # d = 1 and d = 2: the sum would hold keys of lengths 2 and 3
    wide = ChartRing(cfg_u5, "chart", d=2, r=0)
    for x, y in ((small.var(1), large.var(1, 5)), (small.var(1), wide.var(1))):
        for combine in (lambda: x + y, lambda: y - x, lambda: x * y, lambda: cfg_u5.dot([x, x], [x, y])):
            with pytest.raises(BadIndex, match="do not combine"):
                combine()
    # a ring alike in every field, over another config of the same p, E, f and N, combines
    twin = ChartRing(_with_box(cfg_u5, 2), "chart", d=1, r=0)
    assert small.eq_ring(twin) and (small.var(1) - twin.var(1)).storage_zero()
