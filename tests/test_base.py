import random
from fractions import Fraction
from math import prod

import pytest

from htlab import (
    BaseConfig,
    base,
    Cutoffs,
    frobenius,
    make_base_config,
    teichmuller,
)
from htlab.errors import NotAUnit, NotEisenstein, NotPrime
from htlab.serialize import k_from_json

from oracles import ok_mul_naive, teich_fixpoint


class TestConfig:
    def test_unramified_constants(self, cfg_u5):
        assert cfg_u5.e == 1
        assert cfg_u5.pi == cfg_u5.k_from_int(5)
        assert cfg_u5.Ep == cfg_u5.k_one()
        assert cfg_u5.beta == cfg_u5.k_from_int(5)

    def test_ramified_constants(self, cfg_r2):
        # E = u^2 - 2: E'(pi) = 2 pi, beta = 2 pi^2 = 4
        assert cfg_r2.e == 2
        assert cfg_r2.Ep == cfg_r2.k_from_coeffs([0, 2])
        assert cfg_r2.beta == cfg_r2.k_from_int(4)

    def test_not_eisenstein_unit_constant(self):
        with pytest.raises(NotEisenstein):
            make_base_config(5, [-3, 0])

    def test_not_eisenstein_p_squared(self):
        with pytest.raises(NotEisenstein):
            make_base_config(5, [25, 0])

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            make_base_config(6, [-6])

    def test_the_modulus_search_is_bounded(self):
        # f > 1 searches at most p^f candidates, so p^f is capped at 10^6; a
        # huge p costs one primality test
        with pytest.raises(ValueError, match=r"f > 1 needs p\^f <= 10\^6"):
            make_base_config(10**9 + 7, [-(10**9 + 7)], f=2)
        assert base._irreducible_mod_p(make_base_config(997, [-997], f=2).modpoly, 997)
        assert make_base_config(10**18 + 3, [-(10**18 + 3)]).modpoly == (0,)

    @pytest.mark.parametrize("field", ["N", "e*f", "D", "T", "Dy", "n_max"])
    def test_each_limit_is_accepted_and_one_more_is_rejected(self, field):
        # the limit is accepted; one past it is a ValueError that names the
        # field and the limit
        def config(value):
            if field == "N":
                return make_base_config(5, [-5], precision=value)
            if field == "e*f":
                return make_base_config(5, [-5] + [0] * (value - 1))
            return make_base_config(5, [-5], cutoffs=Cutoffs(**{field: value}))

        top = {"N": base.MAX_N, "e*f": base.MAX_EF, **base.MAX_CUTOFFS}[field]
        name = {"N": "precision N", "e*f": r"degree e \* f"}.get(field, f"cutoff {field}")
        config(top)
        with pytest.raises(ValueError, match=rf"^{name} = {top + 1} is above its limit {top}$"):
            config(top + 1)

    def test_json_roundtrip(self, cfg_r2):
        blob = cfg_r2.to_json()
        assert blob["p"] == "2"
        assert blob["E_coeffs"] == ["-2", "0"]
        back = type(cfg_r2).from_json(blob)
        assert back.p == 2 and back.e == 2 and back.N == 8
        assert back.cutoffs == cfg_r2.cutoffs

    def test_from_json_gives_each_absent_key_its_default(self):
        partial = {"p": "5", "E_coeffs": ["-5"], "N": "6", "cutoffs": {"T": "3"}}
        want = BaseConfig(5, [-5], N=6, cutoffs=Cutoffs(T=3))
        assert BaseConfig.from_json(partial).to_json() == want.to_json()
        bare = BaseConfig.from_json({"p": "5", "E_coeffs": ["-5"]})
        assert bare.to_json() == BaseConfig(5, [-5]).to_json()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p", 5.9), ("p", True), ("p", "5.0"), ("E_coeffs", [-5.2]), ("E_coeffs", [False]),
            ("f", 1.0), ("N", 8.7), ("N", "8e0"), ("D", 5.5), ("T", True), ("Dy", "4.0"), ("n_max", 64.0),
        ],
    )
    def test_from_json_rejects_floats_bools_and_non_decimal_strings(self, field, value):
        d = {"p": "5", "E_coeffs": ["-5"], "f": "1", "N": "8", "cutoffs": {"D": "5", "T": "6", "Dy": "4", "n_max": "64"}}
        block = d["cutoffs"] if field in d["cutoffs"] else d
        block[field] = value
        with pytest.raises(ValueError, match="is not an integer"):
            BaseConfig.from_json(d)

    def test_from_json_reads_ints_and_signed_decimal_strings(self):
        d = {"p": 5, "E_coeffs": ["-5"], "f": "+1", "N": 7, "cutoffs": {"D": "4", "T": 3, "Dy": "+2", "n_max": 9}}
        want = BaseConfig(5, [-5], N=7, cutoffs=Cutoffs(D=4, T=3, Dy=2, n_max=9))
        assert BaseConfig.from_json(d).to_json() == want.to_json()


class TestOkArith:
    def test_pi_squared_unramified(self, cfg_u5):
        pi = cfg_u5.pi
        assert pi * pi == cfg_u5.k_from_int(25)

    def test_pi_squared_ramified(self, cfg_r2):
        pi = cfg_r2.pi
        assert pi * pi == cfg_r2.k_from_int(2)

    def test_valuation_six_ramified(self, cfg_r2):
        # 6 = 2 * 3 with 3 a unit and v(2) = e = 2
        assert cfg_r2.k_from_int(6).val_pi() == 2

    def test_valuation_multiplicative(self, cfg_r2):
        rng = random.Random(7)
        for _ in range(50):
            x = cfg_r2.k_from_coeffs([rng.randrange(40), rng.randrange(40)])
            y = cfg_r2.k_from_coeffs([rng.randrange(40), rng.randrange(40)])
            vx, vy = x.val_pi(), y.val_pi()
            if vx is None or vy is None or vx + vy >= cfg_r2.e * cfg_r2.N:
                continue
            assert (x * y).val_pi() == vx + vy

    def test_ring_axioms_random(self, cfg_r2):
        rng = random.Random(11)
        for _ in range(40):
            x, y, z = (
                cfg_r2.k_from_coeffs([rng.randrange(256), rng.randrange(256)])
                for _ in range(3)
            )
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x

    def test_invert_unit(self, cfg_r2):
        x = cfg_r2.k_from_coeffs([3, 5])
        assert x * x.inv() == cfg_r2.k_one()

    def test_invert_nonunit_raises(self, cfg_r2):
        with pytest.raises(NotAUnit):
            cfg_r2.unit_inv(cfg_r2.pi.u, cfg_r2.N)

    def test_precision_propagation(self, cfg_u5):
        x = cfg_u5.k_from_int(7, prec=4)
        y = cfg_u5.k_from_int(3, prec=8)
        assert (x * y).prec == 4
        assert (x + y).prec == 4


def test_product_matches_naive_two_variable_reduction():
    # e = 2 and f = 2 together: the structure constants fold in both moduli
    cfg = make_base_config(3, [-3, 3], f=2, precision=6)
    rng = random.Random(5)
    M = 3**6
    for _ in range(30):
        xs, ys = ([[rng.randrange(M) for _ in range(2)] for _ in range(2)] for _ in range(2))
        got = cfg.k_from_coeffs(xs) * cfg.k_from_coeffs(ys)
        want = ok_mul_naive(3, [-3, 3], cfg.modpoly, 6, xs, ys)
        assert [list(c) for c in got.coeffs()] == want
        x = cfg.k_from_coeffs(xs)
        if x.val_pi() == 0:
            assert x * x.inv() == cfg.k_one()


class TestKElem:
    def test_shift_normalization(self, cfg_u5):
        x = cfg_u5.k_from_coeffs([25], shift=1)  # 25/5 = 5
        assert x.shift == 0
        assert x.u == 5 and x.prec == cfg_u5.N - 1

    def test_div_int(self, cfg_u5):
        x = cfg_u5.k_from_int(7)
        y = x.div_int(35)
        assert y.shift == 1
        assert (y * cfg_u5.k_from_int(35)) == cfg_u5.k_from_int(7)

    def test_pi_inverse(self, cfg_r2):
        piv = cfg_r2.pi_inv()
        assert piv * cfg_r2.pi == cfg_r2.k_one()
        assert piv.val_pi() == -1

    def test_general_inverse(self, cfg_r2):
        # pi * 3: valuation 1
        x = cfg_r2.pi * cfg_r2.k_from_int(3)
        xi = x.inv()
        assert x * xi == cfg_r2.k_one()
        assert xi.val_pi() == -1

    def test_inverse_with_shift(self, cfg_u5):
        x = cfg_u5.k_from_int(3).div_int(5)  # 3/5
        xi = x.inv()
        assert x * xi == cfg_u5.k_one()
        assert xi.val_pi() == 1

    def test_abs_precision_drops_with_shift(self, cfg_u5):
        x = cfg_u5.k_from_int(3).div_int(25)
        assert x.abs_prec == cfg_u5.N - 2

    def test_beta_inv(self, cfg_r2):
        assert cfg_r2.beta_inv() * cfg_r2.beta == cfg_r2.k_one()

    def test_div_pi_exact_matches_peel(self, cfg_r2):
        pi = cfg_r2.pi
        piv = cfg_r2.pi_inv()
        unit = cfg_r2.k_from_int(3) + pi.smul(5)
        for v in (1, 2, 3, 6, 8):
            x = unit
            for _ in range(v):
                x = x * pi
            slow = x
            for _ in range(v):
                slow = slow * piv
            fast = x.div_pi_exact(v)
            assert (fast - unit).is_zero()
            assert (fast - slow).is_zero()
            assert fast.abs_prec >= slow.abs_prec

    def test_div_pi_exact_precision_gain(self, cfg_r2):
        # dividing by pi^8 = 2^4 B^4 costs four digits, not eight
        pi = cfg_r2.pi
        x = cfg_r2.k_from_int(3)
        for _ in range(8):
            x = x * pi
        assert x.div_pi_exact(8).abs_prec == cfg_r2.N - 4
        slow = x
        piv = cfg_r2.pi_inv()
        for _ in range(8):
            slow = slow * piv
        assert slow.abs_prec == cfg_r2.N - 8

    def test_div_pi_exact_unramified(self, cfg_u5):
        x = cfg_u5.k_from_int(75)
        y = x.div_pi_exact(2)
        assert y == cfg_u5.k_from_int(3)
        assert x.div_pi_exact(0) is x

    def test_neg_b_inv(self, cfg_r2):
        # pi^2 * (-B)^{-1} = 2 when E = u^2 - 2
        prod = cfg_r2.pi * cfg_r2.pi * cfg_r2.neg_b_inv()
        assert prod == cfg_r2.k_from_int(2)


class TestTeichmuller:
    def test_spot_values(self, cfg_u5):
        t = teichmuller(cfg_u5, 2, prec=2)
        assert t.w == 7  # 2^5 = 32 = 7 mod 25, 7^5 = 7 mod 25
        cfg3 = make_base_config(3, [-3], precision=8)
        t3 = teichmuller(cfg3, 2, prec=2)
        assert t3.w == 8  # -1 is its own lift

    def test_zero_one(self, cfg_u5):
        assert teichmuller(cfg_u5, 0).w == 0
        assert teichmuller(cfg_u5, 1).w == 1

    def test_matches_iteration_oracle(self):
        rng = random.Random(3)
        for p in (2, 3, 5):
            cfg = make_base_config(p, [-p], precision=8)
            for _ in range(10):
                a = rng.randrange(p)
                assert teichmuller(cfg, a).w == teich_fixpoint(p, a, 8)

    def test_fixed_by_q_power(self, cfg_f2):
        for a in [(1, 1), (2, 0), (0, 1), (2, 2)]:
            t = teichmuller(cfg_f2, a)
            assert t.pow(cfg_f2.p**cfg_f2.f) == t


class TestFrobenius:
    def test_identity_for_f1(self, cfg_u5):
        x = teichmuller(cfg_u5, 3)
        assert frobenius(x, 1) == x

    def test_ring_homomorphism(self, cfg_f2):
        rng = random.Random(5)
        from htlab import WittElem

        for _ in range(25):
            x = WittElem(cfg_f2, (rng.randrange(6561), rng.randrange(6561)))
            y = WittElem(cfg_f2, (rng.randrange(6561), rng.randrange(6561)))
            assert frobenius(x + y) == frobenius(x) + frobenius(y)
            assert frobenius(x * y) == frobenius(x) * frobenius(y)

    def test_frobenius_lift_law(self, cfg_f2):
        # phi(x) = x^p mod p on 200 samples
        rng = random.Random(9)
        from htlab import WittElem

        p = cfg_f2.p
        for _ in range(200):
            x = WittElem(cfg_f2, (rng.randrange(6561), rng.randrange(6561)))
            d = frobenius(x) - x.pow(p)
            v = d.val()
            assert v is None or v >= 1

    def test_order_f(self, cfg_f2):
        from htlab import WittElem

        x = WittElem(cfg_f2, (17, 29))
        assert frobenius(frobenius(x)) == x
        assert frobenius(x, -1) == frobenius(x, cfg_f2.f - 1)

    def test_teichmuller_equivariance(self, cfg_f2):
        # phi([a]) = [a^p]
        from htlab import WittElem

        a = (2, 1)
        t = teichmuller(cfg_f2, a)
        ap = WittElem(cfg_f2, a, 1).pow(cfg_f2.p)
        assert frobenius(t) == teichmuller(cfg_f2, ap)

    def test_beyond_the_config_precision(self):
        # an element may carry more digits than N; phi keeps all of them exact
        from htlab import WittElem

        cfg = make_base_config(3, [-3], f=2, precision=4)
        rng = random.Random(1)
        for _ in range(20):
            x = WittElem(cfg, (rng.randrange(3**7), rng.randrange(3**7)), 7)
            y = WittElem(cfg, (rng.randrange(3**7), rng.randrange(3**7)), 7)
            assert frobenius(x * y) == frobenius(x) * frobenius(y)
            assert frobenius(frobenius(x)) == x

    def test_fixes_zp(self, cfg_f2):
        from htlab import WittElem

        w = WittElem(cfg_f2, (42, 0))
        assert frobenius(w) == w


def test_config_compiles_one_kernel_and_witt_builds_its_own_once(monkeypatch):
    from htlab import WittElem

    calls = []
    real = base._kernels
    monkeypatch.setattr(base, "_kernels", lambda n, table: calls.append(n) or real(n, table))
    unramified = make_base_config(3, [-3], f=2)
    assert calls == [2]
    WittElem(unramified, (1, 2))  # e = 1: W is O_K itself, no second config
    assert calls == [2]
    ramified = make_base_config(3, [-3, 0], f=2)
    assert calls == [2, 4]
    for _ in range(2):
        WittElem(ramified, (1, 2))  # e = 2: the unramified config, built on first use
    assert calls == [2, 4, 2]


def test_configs_with_one_table_share_one_compilation(monkeypatch):
    compiled = []
    real = base._compile_kernels
    monkeypatch.setattr(base, "_COMPILED", {})
    monkeypatch.setattr(base, "_compile_kernels", lambda n, table: compiled.append(n) or real(n, table))
    a = make_base_config(3, [-3], f=2)
    b = make_base_config(3, [-3], f=2, precision=6)  # N does not enter the table
    assert compiled == [2]
    assert (a.mulu, a.linu, a.dotu) == (b.mulu, b.linu, b.dotu)
    make_base_config(2, [-2, 0])
    make_base_config(2, [-6, 2])  # another E: another table
    assert compiled == [2, 2, 2]
    make_base_config(5, [-5])  # e f = 1: plain functions, nothing compiled
    assert compiled == [2, 2, 2]


def _dot_operand(cfg, rng):
    """A K scalar of one of the shapes a sum of products meets.

    Shifted numerators, reduced precision, zeros at full or reduced
    precision, the inverse of a shifted scalar (which gains digits, up to
    N), scalars of absolute precision below 1, and scalars built with no
    digit at all.
    """
    p, N = cfg.p, cfg.N
    kinds = ("unit", "any", "zero", "shifted", "inv", "thin", "void")
    kind = rng.choices(kinds, weights=(8, 3, 3, 3, 2, 1, 1))[0]
    prec = N if rng.random() < 0.6 else rng.randrange(1, N + 1)
    shift = 0
    if kind in ("shifted", "inv"):
        shift = rng.randrange(1, 3)
    elif kind == "thin":
        prec, shift = rng.randrange(1, 3), rng.randrange(2, 4)
    elif kind == "void":
        prec, shift = rng.randrange(-1, 1), rng.randrange(0, 2)

    def coeff():
        if kind == "zero":
            return [0] * cfg.f
        return [rng.randrange(p ** max(prec, 1)) for _ in range(cfg.f)]

    coeffs = [coeff() for _ in range(cfg.e)]
    if kind in ("unit", "shifted", "inv") and coeffs[0][0] % p == 0:
        coeffs[0][0] += 1
    coeffs = [c[0] if cfg.f == 1 else tuple(c) for c in coeffs]
    x = cfg.k_from_coeffs(coeffs, prec=prec, shift=shift)
    return x.inv() if kind == "inv" else x


def _form(x):
    return (x.u, x.shift, x.prec)


@pytest.mark.parametrize(
    "p, E, f",
    [(5, [-5], 1), (2, [-2, 0], 1), (3, [-3, 0], 1), (3, [-3], 2)],
    ids=["p5", "p2e2", "p3e2", "p3f2"],
)
def test_dot_matches_the_left_to_right_chain(p, E, f):
    """dot gives the (u, shift, prec) of sum (x_k * y_k).smul(m_k) taken in
    order, and so does the chain in any other order of its terms."""
    cfg = make_base_config(p, E, f=f, precision=6)
    rng = random.Random(7 * p + 11 * f + len(E))
    multipliers = (1, 1, 1, -1, 2, p, -p, 3 * p * p, 0)
    fused = low = shifted = 0

    def chain(xs, ys, ms, order):
        acc = None
        for k in order:
            t = xs[k] * ys[k]
            if ms is not None and ms[k] != 1:
                t = t.smul(ms[k])
            acc = t if acc is None else acc + t
        return acc

    for _ in range(400):
        n = rng.randrange(1, 6)
        xs = [_dot_operand(cfg, rng) for _ in range(n)]
        ys = [_dot_operand(cfg, rng) for _ in range(n)]
        ms = [rng.choice(multipliers) for _ in range(n)] if rng.random() < 0.5 else None
        if n > 2 and rng.random() < 0.3:
            # the last term cancels the first, so a partial sum drops its shift
            xs[-1], ys[-1] = -xs[0], ys[0]
            if ms is not None:
                ms[-1] = ms[0]
        got = _form(cfg.dot(xs, ys, ms))
        assert got == _form(chain(xs, ys, ms, range(n)))
        assert got == _form(chain(xs, ys, ms, rng.sample(range(n), n)))
        a = min(min(x.prec, y.prec) - x.shift - y.shift for x, y in zip(xs, ys))
        if n > 1:
            fused += a >= 1
            low += a < 1
            shifted += a >= 1 and any(x.shift + y.shift for x, y in zip(xs, ys))
    # both regimes are met: A >= 1, at shift 0 and above, and A < 1, where a
    # zero has no digit left and is stored as (0, 1 - A, 1) in every order
    assert fused > 100 and shifted > 20 and low > 20
    one = 1 if f == 1 else (1,) * f
    for q in (0, -1, -3):
        assert _form(cfg.k_zero(q)) == _form(cfg.k_from_int(7, q)) == (cfg.zero_u, 1 - q, 1)
        for s in (0, 2):
            assert _form(cfg.k_from_coeffs([one], q, s)) == (cfg.zero_u, 1 - q + s, 1)


@pytest.mark.parametrize(
    "p, E, f",
    [(5, [-5], 1), (2, [-2, 0], 1), (3, [-3], 2)],
    ids=["p5", "p2e2", "p3f2"],
)
def test_a_negative_shift_is_multiplied_out(p, E, f):
    """p^-s u with s < 0 stores as the shift-0 spelling u p^-s at prec - s
    digits, the same value at the same absolute precision, capped at N: dot still gives
    the chain's form, and the inverse is the inverse."""
    cfg = make_base_config(p, E, f=f, precision=6)
    rng = random.Random(5 * p + f)
    one = cfg.k_one()
    for _ in range(200):
        prec, shift = rng.randrange(1, 7), -rng.randrange(1, 4)
        raw = [[rng.randrange(p**prec) for _ in range(f)] for _ in range(cfg.e)]
        if rng.random() < 0.7 and raw[0][0] % p == 0:
            raw[0][0] += 1
        m = p**-shift

        def spell(scale):
            return [c[0] * scale if f == 1 else tuple(x * scale for x in c) for c in raw]

        x = cfg.k_from_coeffs(spell(1), prec, shift)
        assert _form(x) == _form(cfg.k_from_coeffs(spell(m), prec - shift, 0))
        assert x.shift >= 0 and x.abs_prec == min(prec - shift, cfg.N)
        xs = [x, _dot_operand(cfg, rng), x]
        ys = [_dot_operand(cfg, rng), x, one]
        chain = xs[0] * ys[0] + xs[1] * ys[1] + xs[2] * ys[2]
        assert _form(cfg.dot(xs, ys)) == _form(chain)
        if x.val_pi() == 0:
            assert (x * x.inv() - one).is_zero()


def _agrees(x, exact):
    """Whether the K scalar x agrees in its A = x.abs_prec digits with the
    exact coordinates (Fractions on the basis pi^i g^j): every coordinate of
    the difference has p-adic valuation at least A."""
    cfg = x.cfg
    p, A = cfg.p, x.abs_prec
    for c, want in zip((x.u,) if cfg.n == 1 else x.u, exact):
        d = Fraction(c, p**x.shift) - want
        if d:
            v = 0
            num, den = d.numerator, d.denominator
            while not num % p:
                num //= p
                v += 1
            while not den % p:
                den //= p
                v -= 1
            if v < A:
                return False
    return True


@pytest.mark.parametrize(
    "p, E, f",
    [(5, [-5], 1), (2, [-2, 0], 1), (3, [-3], 2)],
    ids=["p5", "p2e2", "p3f2"],
)
def test_no_scalar_claims_more_than_n_digits(p, E, f):
    """Where a precision enters from outside (k_from_int, k_from_coeffs, a
    JSON record) or an inverse gains digits, the stored claim is capped at
    N, and the digits it keeps are the exact value's."""
    cfg = make_base_config(p, E, f=f)
    N, n = cfg.N, cfg.n
    rng = random.Random(f"cap-{p}-{len(E)}-{f}")
    seen = capped = 0

    def spell(raw):
        # the coefficients of k_from_coeffs from the e rows of f ints
        return [r[0] if f == 1 else tuple(r) for r in raw]

    def check(x, exact, claimed):
        nonlocal seen, capped
        assert x.shift >= 0 and x.abs_prec <= N, (x, claimed)
        assert x.abs_prec == min(claimed, N) or claimed < 1, (x, claimed)
        assert _agrees(x, exact), (x, exact)
        seen += 1
        capped += claimed > N

    for _ in range(150):
        m = rng.randrange(-(p ** (N + 6)), p ** (N + 6))
        q = rng.randrange(N + 1, N + 6)
        check(cfg.k_from_int(m, q), [Fraction(m)] + [Fraction(0)] * (n - 1), q)

        q, s = rng.randrange(1, N + 6), rng.randrange(-3, 4)
        raw = [[rng.randrange(-(p ** (N + 6)), p ** (N + 6)) for _ in range(f)] for _ in range(cfg.e)]
        coeffs = spell(raw)
        exact = [Fraction(c) * Fraction(p) ** -s for row in raw for c in row]
        check(cfg.k_from_coeffs(coeffs, q, s), exact, q - s)
        rec = {"coeffs": [str(c) if f == 1 else [str(x) for x in c] for c in coeffs], "prec": str(q), "shift": str(s)}
        check(k_from_json(cfg, rec), exact, q - s)

        # p^-s c inverted, c an integer prime to p: the inverse p^s / c is
        # known to q + s digits
        c = rng.randrange(1, p ** (N + 6))
        if not c % p:
            c += 1
        q, s = rng.randrange(1, N + 6), rng.randrange(0, 4)
        x = cfg.k_from_coeffs(spell([[c] + [0] * (f - 1)] + [[0] * f] * (cfg.e - 1)), q, s)
        if x.abs_prec >= 1:
            check(x.inv(), [Fraction(p**s, c)] + [Fraction(0)] * (n - 1), min(q, N + s) + s)
    assert seen > 400 and capped > 200, (seen, capped)


def _primes_below(n):
    """The primes below n by the sieve of Eratosthenes: trial division by
    every prime up to sqrt(n), done as crossing out."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for q in range(2, int(n**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, n, q)))
    return [q for q in range(n) if sieve[q]]


def test_is_prime_matches_trial_division_below_a_million():
    assert [n for n in range(10**6) if base._is_prime(n)] == _primes_below(10**6)


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    small = set(_primes_below(10**4))
    # Chernick's (6k + 1)(12k + 1)(18k + 1) is a Carmichael number when all
    # three factors are prime: a Fermat liar to every base prime to it
    chernick = [
        (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        for k in range(1, 300)
        if {6 * k + 1, 12 * k + 1, 18 * k + 1} <= small
    ]
    assert len(chernick) >= 10 and 56052361 in chernick
    assert not any(base._is_prime(n) for n in chernick)
    # strong pseudoprimes to every prime base up to 23, and up to 37
    for factors in ((149491, 747451, 34233211), (399165290221, 798330580441)):
        assert all(base._is_prime(q) for q in factors)
        assert not base._is_prime(prod(factors))
    assert base._is_prime(10**18 + 3) and base._is_prime(2**61 - 1)
    # the least strong pseudoprime to the first 13 prime bases ends the range
    assert base._is_prime(3317044064679887385961813)
    with pytest.raises(ValueError, match="out of the range"):
        base._is_prime(3317044064679887385961981)
