"""Regenerate the golden outputs that ``test_golden.py`` compares byte for byte.

    PYTHONPATH=src python tests/make_golden.py

Writes, under ``tests/golden/``:

* ``inputs/*.json``: twelve generated module descriptors (point and chart
  bases; e = 1, 2; f = 1, 2; all three flavors; both twists), a thirteenth,
  ``corpus(p3 point, 39)[18]``, whose H^1 has torsion [1, 1, 2], and one
  ``factorize`` file of units and non-units per base;
* ``<descriptor>.<command>.json``: the stdout of ``lab <command> --canonical``
  on each input, ``<descriptor>.cohomology-strict.json`` that of ``lab
  cohomology --strict --canonical`` on each module, and ``manifest.json``, the
  argument list and exit code of every case (or the exception, should a
  command crash instead of reporting);
* ``scalars.json``: ``k_to_json`` of every result of seeded chains of scalar
  operations on four bases, together with its valuation and zero test, or
  the exception the operation raised;
* ``containers.json``: the exact stored form of the results of the container
  kernels (``Mat`` products with a matrix and with one column, ``PdElement``
  products and face maps, ``cocycle_matrix``, s applied to U(u) by
  ``act_slots``, the cocycle-law product as ``tests/oracles.py`` chains it
  and ``subs_slots``) on seeded operands: every scalar as (coeffs, prec,
  shift), every sparse dict in its insertion order and every t-series with
  its T, so a change in the order of the scalar operations shows even where
  the value at precision does not;
* ``snf.json``: ``snf_dvr`` on seeded integral matrices over four bases
  (square and rectangular, rank-deficient, high-valuation pivots,
  reduced-precision zeros): the exponents, the ``precision_limited`` flag,
  the stored form of U, V, Uinv and Vinv (V built by ``snf_dvr``; U and the
  inverses replayed by ``tests/oracles.py`` from the step record of its
  naive elimination, ``snf_dvr_naive``) and the strict-mode outcome; and
  ``cohomology_all`` on corpus modules, strict and not;
* ``witt.json``: the stored form (w, prec, frob_power) of seeded Witt-vector
  operations on eighteen bases (p = 2, 3, 5; f = 1, 2, 3; e = 1, 2),
  reduced-precision and non-unit operands included: ring operations,
  ``frobenius``, ``teichmuller``, the ``teichmuller_factorize``
  certificate, ``DeltaRingView.delta`` and ``delta_log_validate`` on both
  carriers, and ``USeries`` products and Frobenius.

Only the public API and ``tests/oracles.py`` are used, so the same script
records the outputs of any version of the package since ``snf_dvr`` took
``with_v`` and ``FaceContext`` took the twist unit itself; older versions
lack names or options it uses.
Regenerate only for an intended change of output, and review the diff.
"""

import json
import random
import sys
from pathlib import Path

from click.testing import CliRunner
from oracles import (
    DeltaRingView,
    PrelogCandidate,
    USeries,
    delta_log_validate,
    replay_u,
    replay_uinv,
    replay_vinv,
    series_mat_mul_chain,
    snf_dvr_naive,
)

from htlab import (
    ChartRing,
    KElem,
    WittElem,
    dumps,
    frobenius,
    higgs_to_json,
    make_base_config,
    sample_higgs,
    teichmuller,
    teichmuller_factorize,
)
from htlab.chart import ChartElem
from htlab.cli import main
from htlab.cohomology import build_higgs_complex, cohomology_all, snf_dvr
from htlab.galois import GroupElt, act_slots, subs_slots
from htlab.higgs import descent_matrix, stratification_from_higgs, twist_unit
from htlab.linalg import Mat
from htlab.pdring import FaceContext, PdElement, PdRing
from htlab.samples import corpus
from htlab.sen import cocycle_matrix
from htlab.serialize import k_from_json, k_to_json

GOLDEN = Path(__file__).parent / "golden"

# (name, p, lower coefficients of E, f)
LAB_BASES = (("p5", 5, (-5,), 1), ("p2e2", 2, (-2, 0), 1), ("p3f2", 3, (-3,), 2))
LAB_MODES = (("point", 0, 0), ("chart", 1, 1))  # (mode, chart d, chart r)
LAB_SHAPES = (  # (flavor, rank, d, twist)
    ("abs-geom", 2, 1, "log"),
    ("abs-arith", 2, 0, "smooth"),
    ("rel-geom", 2, 1, "log"),
    ("abs-geom", 2, 2, "smooth"),
)
LAB_COMMANDS = (
    ("check",),
    ("stratify",),
    ("cohomology",),
    ("cocycle", "--samples", "3"),
)
N = 8

SCALAR_BASES = (("p5", 5, (-5,), 1), ("p2e2", 2, (-2, 0), 1), ("p3e2", 3, (-3, 0), 1), ("p3f2", 3, (-3,), 2))
SCALAR_OPS = 240  # operations per base


def lab_inputs():
    """name -> descriptor document; names sort in generation order."""
    docs = {}
    for b, (bname, p, E, f) in enumerate(LAB_BASES):
        cfg = make_base_config(p, list(E), f=f, precision=N)
        rng = random.Random(1000 + b)
        for m, (mode, cd, cr) in enumerate(LAB_MODES):
            base = ChartRing(cfg, mode, d=cd, r=cr)
            for j in range(2):
                flavor, rank, d, twist = LAB_SHAPES[(2 * m + j + b) % len(LAB_SHAPES)]
                h = sample_higgs(base, rng, flavor, rank=rank, d=d, twist=twist)
                docs[f"{bname}-{mode}-{flavor}-d{d}-{twist}"] = higgs_to_json(h)
        items = []
        for k in range(5):
            digits = [rng.randrange(p**N) for _ in range(f)]
            if k % 3 == 2:
                digits = [p * x for x in digits]  # a non-unit
            elif digits[0] % p == 0:
                digits[0] += 1
            items.append([str(x) for x in digits] if f > 1 else str(digits[0]))
        docs[f"{bname}-units"] = {"config": cfg.to_json(), "units": items}
    docs["p3-point-abs-geom-d1-log"] = higgs_to_json(p3_reproducer())
    return docs


def p3_reproducer():
    """A valid module whose Smith transforms certify only 4 digits of one row;
    its H^1 is certified with torsion [1, 1, 2]."""
    return corpus(ChartRing(make_base_config(3, [-3], precision=N), "point"), 39)[18]


def lab_cases(names):
    """(case name, input name, argument list); inputs are passed by file name.
    The strict cohomology cases come after all others, named <input>.cohomology-strict."""
    cases = []
    for name in names:
        commands = [("factorize",)] if name.endswith("-units") else LAB_COMMANDS
        for cmd in commands:
            cases.append((f"{name}.{cmd[0]}", name, list(cmd)))
    for name in names:
        if not name.endswith("-units"):
            cases.append((f"{name}.cohomology-strict", name, ["cohomology", "--strict"]))
    return cases


def run_case(runner, args, path):
    """(stdout, exit code or None, exception text or None) of one lab call."""
    res = runner.invoke(main, [args[0], str(path), *args[1:], "--canonical"])
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        return res.stdout, None, f"{type(res.exception).__name__}: {res.exception}"
    return res.stdout, res.exit_code, None


def _coord(rng, p, prec, kind):
    if kind == 0:
        return 0
    if kind == 1:  # zero at the stored precision, nonzero as an integer
        return p ** max(prec, 0) * rng.randrange(1, p**3)
    if kind == 2:  # divisible by a random power of p
        return p ** rng.randrange(0, N + 1) * rng.randrange(p ** (N + 2))
    return rng.randrange(-(p ** (N + 2)), p ** (N + 2))


def _random_scalar(cfg, rng):
    """A random scalar: shifted, short, zero-at-precision, digitless or generic.

    Built with ``k_from_coeffs``: ``k_from_json`` rejects the records with
    prec < 1 that the chains include on purpose.
    """
    p = cfg.p
    prec = rng.choice((cfg.N, cfg.N, cfg.N, rng.randrange(0, cfg.N + 3)))
    shift = rng.choice((0, 0, 1, rng.randrange(0, cfg.N + 3)))
    kind = rng.choice((0, 1, 2, 2, 3, 3, 3, 3, 3, 3))
    coeffs = []
    for _ in range(cfg.e):
        w = [_coord(rng, p, prec, kind) for _ in range(cfg.f)]
        coeffs.append(tuple(w) if cfg.f > 1 else w[0])
    return cfg.k_from_coeffs(coeffs, prec, shift)


def _outcome(thunk):
    try:
        return thunk(), None
    except Exception as exc:  # the golden records whatever the operation raised
        return None, f"{type(exc).__name__}: {exc}"


def _describe(x):
    out = {"value": k_to_json(x), "abs_prec": str(x.abs_prec)}
    for name in ("val_pi", "is_zero"):
        v, err = _outcome(getattr(x, name))
        out[name] = err if err is not None else (v if isinstance(v, bool) or v is None else str(v))
    return out


def scalar_chains():
    """Seeded chains of scalar operations; each result joins the operand pool."""
    out = {}
    for b, (bname, p, E, f) in enumerate(SCALAR_BASES):
        cfg = make_base_config(p, list(E), f=f, precision=N)
        rng = random.Random(2000 + b)
        pool = [_random_scalar(cfg, rng) for _ in range(12)]
        steps = [{"op": "from_json", "result": _describe(x)} for x in pool]
        for _ in range(SCALAR_OPS):
            if rng.random() < 0.35:
                pool.append(_random_scalar(cfg, rng))
            x = rng.choice(pool)
            y = rng.choice(pool)
            op = rng.choice(
                ("add", "sub", "mul", "mul", "neg", "inv", "inv", "div_int", "div_pi_exact", "clamp_prec", "smul", "eq")
            )
            arg = None
            if op == "add":
                thunk = lambda: x + y
            elif op == "sub":
                thunk = lambda: x - y
            elif op == "mul":
                thunk = lambda: x * y
            elif op == "neg":
                thunk = lambda: -x
            elif op == "inv":
                thunk = x.inv
            elif op == "div_int":
                arg = rng.choice((-1, 1)) * p ** rng.randrange(0, 3) * rng.choice((1, 1, 2, 3, 7, 12, 0))
                thunk = lambda: x.div_int(arg)
            elif op == "div_pi_exact":
                v, _ = _outcome(x.val_pi)
                arg = rng.randrange(0, v + 1) if v is not None and v >= 0 else rng.randrange(0, 4)
                thunk = lambda: x.div_pi_exact(arg)
            elif op == "clamp_prec":
                arg = rng.randrange(0, cfg.N + 2)
                thunk = lambda: x.clamp_prec(arg)
            elif op == "smul":
                arg = rng.choice((-1, 1)) * rng.choice((0, 1, 2, 3, p, p * p, 5 * p, rng.randrange(1000)))
                thunk = lambda: x.smul(arg)
            else:
                thunk = lambda: x.eq(y)
            res, err = _outcome(thunk)
            step = {"op": op, "x": k_to_json(x)}
            if op in ("add", "sub", "mul", "eq"):
                step["y"] = k_to_json(y)
            if arg is not None:
                step["arg"] = str(arg)
            if err is not None:
                step["error"] = err
            elif op == "eq":
                step["result"] = res
            else:
                step["result"] = _describe(res)
                pool.append(res)
            steps.append(step)
        out[bname] = steps
    return out


def _form(x):
    """The stored form of a scalar or sparse element, dict order kept."""
    if isinstance(x, KElem):
        return k_to_json(x)
    if isinstance(x, ChartElem):
        terms = [[list(e), k_to_json(c)] for e, c in x.coeffs.items()]
        return {"chart": terms, "truncated": x.truncated}
    if isinstance(x, PdElement):
        decode = x.ring.decode
        terms = [[[[list(v), a] for v, a in decode(key)], _form(c)] for key, c in x.coeffs.items()]
        return {"pd": terms, "truncated": x.truncated}
    raise TypeError(f"no stored form for {type(x).__name__}")


def _mat_form(m):
    return [[_form(a) for a in row] for row in m.rows]


def _t_series_form(x, T):
    """The stored form of a {t-degree: coefficient} t-series, with its T."""
    return {"series": [[k, _form(c)] for k, c in x.items()], "T": T}


def _cells_form(cells, r, T):
    """The stored form of an r x r matrix of t-series given as its r^2 cells, row by row."""
    return [[_t_series_form(x, T) for x in cells[i * r : (i + 1) * r]] for i in range(r)]


def _k_entry(cfg, rng):
    """A scalar operand: full-precision zero, reduced-precision zero, or a random record."""
    roll = rng.random()
    if roll < 0.3:
        return cfg.k_zero()
    if roll < 0.45:
        zero = {"coeffs": [["0"] * cfg.f if cfg.f > 1 else "0"] * cfg.e}
        zero["prec"] = str(rng.randrange(1, cfg.N))
        zero["shift"] = str(rng.choice((0, 0, 1, 2)))
        return k_from_json(cfg, zero)
    return _random_scalar(cfg, rng)


def _chart_entry(base, rng):
    roll = rng.random()
    if roll < 0.3:
        return base.zero()
    out = base.from_k(_k_entry(base.cfg, rng))
    if roll < 0.7:
        out = out + base.var(1, rng.choice((1, 2))).smul(rng.randrange(1, 30))
    return out


def _operand(ring, entry, rng, n, m):
    """An n x m matrix of random entries, with an all-zero row or column now and then."""
    rows = [[entry() for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.4:
        i = rng.randrange(n)
        rows[i] = [ring.zero() for _ in range(m)]
    if rng.random() < 0.4:
        j = rng.randrange(m)
        for row in rows:
            row[j] = ring.zero()
    return rows


def _mat_products(ring, entry, rng, count):
    steps = []
    for _ in range(count):
        n, k, m = (rng.randrange(1, 5) for _ in range(3))
        a = Mat(ring, _operand(ring, entry, rng, n, k))
        b = Mat(ring, _operand(ring, entry, rng, k, m))
        v = [entry() if rng.random() < 0.7 else ring.zero() for _ in range(k)]
        steps.append(
            {
                "a": _mat_form(a),
                "b": _mat_form(b),
                "v": [_form(x) for x in v],
                "ab": _mat_form(a * b),
                "av": [_form(x) for x in (a * Mat(ring, [[x] for x in v])).col(0)],
            }
        )
    return steps


def _pd_element(ring, rng, cfg):
    """A random pd element whose pd-degree reaches near the cutoff."""
    gens = ring.generators()
    coeffs = {}
    for _ in range(rng.randrange(0, 5)):
        key = {}
        if rng.random() < 0.85:
            for _ in range(rng.randrange(1, 3)):
                key[rng.choice(gens)] = rng.randrange(1, ring.D + 1)
        coeffs[ring.encode(key.items())] = ring.base.from_k(_k_entry(cfg, rng))
    return PdElement(ring, coeffs, truncated=rng.random() < 0.1)


def _pd_products(cfg, base, rng, count):
    ring = PdRing(cfg, base, "abs-geom", 2, d=1, D=4)
    faces = [FaceContext(ring, i, twist_unit(cfg, "log")) for i in range(3)]
    steps = []
    for _ in range(count):
        x = _pd_element(ring, rng, cfg)
        y = _pd_element(ring, rng, cfg) if rng.random() < 0.8 else ring.one()
        steps.append(
            {
                "x": _form(x),
                "y": _form(y),
                "xy": _form(x * y),
                "yx": _form(y * x),
                "faces": [_form(f.apply(x)) for f in faces],
            }
        )
    return steps


def _descent_products(h):
    """The pd-level cocycle product p2*(eps) p0*(eps) of one module."""
    strat = stratification_from_higgs(h)
    ring1 = PdRing(strat.cfg, strat.base, strat.flavor, 1, d=strat.d, D=strat.D)
    eps = descent_matrix(strat, ring=ring1)
    faces = [FaceContext(ring1, i, strat.braid_unit()) for i in range(3)]
    p0, _, p2 = (eps.map(f.apply, ring=faces[0].target) for f in faces)
    return _mat_form(p2 * p0)


def _group_elements(cfg, rng, d):
    """c = 0 with chi = 1 and chi != 1, then c != 0 with chi = 1 and chi != 1."""
    p = cfg.p
    n = tuple(rng.randrange(p**4) for _ in range(d))
    c = 1 + rng.randrange(p**4)
    chi = 1 + p * (1 + rng.randrange(p**3))
    return [GroupElt(cfg, n, 0, 1), GroupElt(cfg, n, 0, chi), GroupElt(cfg, n, c, 1), GroupElt(cfg, n, c, chi)]


def _cocycle_cases(base, seed, rng):
    cfg = base.cfg
    T = cfg.cutoffs.T
    steps = []
    for i, h in enumerate(corpus(base, seed)):
        strat = stratification_from_higgs(h)
        r = strat.rank
        gs = _group_elements(cfg, rng, h.d)
        pairs = list(zip(gs, gs[1:] + gs[:1]))
        for s, u in pairs[i % 2 :: 2]:  # every s, alternating over the modules
            us = cocycle_matrix(strat, s)
            act = act_slots(s, cocycle_matrix(strat, u), base, T, strat.braid_unit())
            steps.append(
                {
                    "module": [h.flavor, str(h.rank), str(h.d), h.twist],
                    "s": s.to_json(),
                    "u": u.to_json(),
                    "U(s)": _cells_form(us, r, T),
                    "s(U(u))": _cells_form(act, r, T),
                    "product": _cells_form(series_mat_mul_chain(us, act, r, T, cfg.dot), r, T),
                }
            )
    return steps


def _subs_cases(base, rng, count):
    """t -> t_img on random series, t_img with random coefficients (zeros included)."""
    cfg = base.cfg
    T = cfg.cutoffs.T
    steps = []
    def series(coeffs):
        return {k: c for k, c in coeffs.items() if not c.droppable()}

    for i in range(count):
        x = series({k: _k_entry(cfg, rng) for k in range(T) if rng.random() < 0.7})
        t_img = series({k: _k_entry(cfg, rng) for k in range(1, T) if rng.random() < 0.7})
        if i % 4 == 0:
            # t -> t + t^2 with x_2 = -x_1: the t^2 slot cancels to a droppable zero
            r = cfg.k_from_int(rng.randrange(1, 1000))
            x = series({**x, 1: r, 2: -r})
            t_img = {1: base.one(), 2: base.one()}
        [subs] = subs_slots([x], t_img, base, T)
        steps.append({"x": _t_series_form(x, T), "t_img": _t_series_form(t_img, T), "subs": _t_series_form(subs, T)})
    return steps


def container_cases():
    """Seeded container-kernel results on three bases, stored form and dict order kept."""
    out = {}
    for b, (bname, p, E, f) in enumerate(LAB_BASES):
        cfg = make_base_config(p, list(E), f=f, precision=N)
        rng = random.Random(3000 + b)
        point = ChartRing(cfg, "point")
        chart = ChartRing(cfg, "chart", d=1, r=1)
        descent = [
            h
            for h in corpus(point, 11 + b)
            if h.rank == 3 and h.flavor in ("abs-geom", "rel-geom")
        ]
        out[bname] = {
            "mat": _mat_products(point, lambda: _k_entry(cfg, rng), rng, 40),
            "chart_mat": _mat_products(chart, lambda: _chart_entry(chart, rng), rng, 12),
            "pd": _pd_products(cfg, point, rng, 40),
            "descent": [_descent_products(h) for h in descent[:3]],
            "cocycle": _cocycle_cases(point, 11 + b, rng),
            "subs_t": _subs_cases(point, rng, 20),
        }
    chart_cfg = make_base_config(5, [-5], precision=N)
    out["p5-chart"] = {"cocycle": _cocycle_cases(ChartRing(chart_cfg, "chart", d=1, r=1), 7, random.Random(3100))}
    return out


SNF_MATS = 40  # seeded matrices per base
SNF_KINDS = ("generic", "rank-deficient", "high-valuation", "fuzzy")


def _int_entry(cfg, rng, fuzzy=False):
    """An integral scalar: a full- or reduced-precision zero, p^a times a random numerator, or generic."""
    roll = rng.random()
    if roll < 0.2:
        return cfg.k_zero()
    zero = ["0"] * cfg.f if cfg.f > 1 else "0"
    if roll < (0.7 if fuzzy else 0.35):
        rec = {"coeffs": [zero] * cfg.e, "prec": str(rng.randrange(1, cfg.N))}
        return k_from_json(cfg, rec)
    prec = cfg.N if rng.random() < 0.75 else rng.randrange(1, cfg.N)
    kind = 2 if roll < 0.6 else 3
    coeffs = []
    for _ in range(cfg.e):
        w = [str(_coord(rng, cfg.p, prec, kind)) for _ in range(cfg.f)]
        coeffs.append(w if cfg.f > 1 else w[0])
    return k_from_json(cfg, {"coeffs": coeffs, "prec": str(prec)})


def _snf_operand(point, rng, kind):
    cfg = point.cfg
    n, m = rng.randrange(1, 6), rng.randrange(1, 6)
    if kind == "rank-deficient" and min(n, m) > 1:
        r = rng.randrange(1, min(n, m))
        a = Mat(point, [[_int_entry(cfg, rng) for _ in range(r)] for _ in range(n)])
        b = Mat(point, [[_int_entry(cfg, rng) for _ in range(m)] for _ in range(r)])
        return a * b
    mat = Mat(point, _operand(point, lambda: _int_entry(cfg, rng, kind == "fuzzy"), rng, n, m))
    if kind == "high-valuation":
        scal = point.one()
        for _ in range(rng.randrange(2, cfg.e * cfg.N)):
            scal = scal * point.from_k(cfg.pi)
        mat = mat.mul_scalar(scal)
    return mat


def _snf_result(mat, strict):
    s, err = _outcome(lambda: snf_dvr(mat, strict=strict, with_v=not strict))
    if err is not None:
        return {"error": err}
    out = {"vals": [str(v) for v in s.vals], "precision_limited": s.precision_limited}
    if not strict:
        r = snf_dvr_naive(mat)
        transforms = (replay_u(mat, r), s.V, replay_uinv(mat, r), replay_vinv(mat, r))
        for name, m in zip(("U", "V", "Uinv", "Vinv"), transforms):
            out[name] = _mat_form(m)
    return out


def _cohomology_result(rep, strict):
    groups, err = _outcome(lambda: cohomology_all(rep, strict=strict))
    return {"error": err} if err is not None else groups


def snf_cases():
    """Seeded Smith reductions on four bases, transforms in stored form; cohomology on corpus modules."""
    out = {}
    for b, (bname, p, E, f) in enumerate(SCALAR_BASES):
        cfg = make_base_config(p, list(E), f=f, precision=N)
        point = ChartRing(cfg, "point")
        rng = random.Random(4000 + b)
        steps = []
        for i in range(SNF_MATS):
            kind = SNF_KINDS[i % len(SNF_KINDS)]
            mat = _snf_operand(point, rng, kind)
            steps.append({"kind": kind, "a": _mat_form(mat), "snf": _snf_result(mat, False), "strict": _snf_result(mat, True)})
        # a non-integral matrix is refused in both modes
        frac = Mat(point, [[cfg.k_one().div_int(p)]])
        steps.append({"kind": "non-integral", "a": _mat_form(frac), "snf": _snf_result(frac, False), "strict": _snf_result(frac, True)})
        modules = []
        for h in corpus(point, 21 + b):
            rep = build_higgs_complex(h)
            modules.append(
                {
                    "module": [h.flavor, str(h.rank), str(h.d), h.twist],
                    "cohomology": _cohomology_result(rep, False),
                    "strict": _cohomology_result(rep, True),
                }
            )
        out[bname] = {"snf": steps, "cohomology": modules}
    rep = build_higgs_complex(p3_reproducer())
    out["p3-escape"] = {"cohomology": _cohomology_result(rep, False), "strict": _cohomology_result(rep, True)}
    return out


WITT_BASES = tuple((p, f, e) for p in (2, 3, 5) for f in (1, 2, 3) for e in (1, 2))
WITT_N = 6
WITT_OPS = 40  # ring operations per base


def _wj(w):
    """A bare int or a tuple of ints, as the JSON of its decimal strings."""
    return [str(x) for x in w] if isinstance(w, tuple) else str(w)


def _witt_form(x):
    return [_wj(x.w), str(x.prec), str(x.frob_power)]


def _series_form(x):
    return {"coeffs": [[str(i), _wj(c)] for i, c in x.coeffs.items()], "prec": str(x.prec), "M": str(x.M)}


def _raw_witt(cfg, rng, kind=None):
    """Unreduced digits: zero, a multiple of p (a non-unit), a unit, or a negative generic value."""
    p, f = cfg.p, cfg.f
    kind = rng.choice((0, 1, 2, 2, 2, 3)) if kind is None else kind
    if kind == 0:
        digits = [0] * f
    elif kind == 1:
        digits = [p ** rng.randrange(1, WITT_N + 1) * rng.randrange(p ** (WITT_N + 1)) for _ in range(f)]
    elif kind == 2:
        digits = [rng.randrange(p ** (WITT_N + 1)) for _ in range(f)]
        if digits[0] % p == 0:
            digits[0] += 1
    else:
        digits = [rng.randrange(-(p ** (WITT_N + 2)), p ** (WITT_N + 2)) for _ in range(f)]
    return tuple(digits) if f > 1 else digits[0]


def _witt_operand(cfg, rng, kind=None):
    prec = rng.choice((WITT_N, WITT_N, WITT_N, rng.randrange(1, WITT_N)))
    return WittElem(cfg, _raw_witt(cfg, rng, kind), prec)


def _witt_chain(cfg, rng):
    """Seeded ring operations; each result joins the operand pool."""
    p = cfg.p
    pool = [_witt_operand(cfg, rng) for _ in range(8)]
    steps = [{"op": "new", "result": _witt_form(x)} for x in pool]
    for _ in range(WITT_OPS):
        if rng.random() < 0.3:
            pool.append(_witt_operand(cfg, rng))
        x, y = rng.choice(pool), rng.choice(pool)
        op = rng.choice(
            ("add", "sub", "neg", "mul", "mul", "pow", "smul", "scale_pk", "inv", "div_p_exact", "val", "frobenius")
        )
        arg = None
        if op == "add":
            thunk = lambda: x + y
        elif op == "sub":
            thunk = lambda: x - y
        elif op == "neg":
            thunk = lambda: -x
        elif op == "mul":
            thunk = lambda: x * y
        elif op == "pow":
            arg = rng.choice((0, 1, 2, p, p + 1, p**cfg.f, rng.randrange(200)))
            thunk = lambda: x.pow(arg)
        elif op == "smul":
            arg = rng.choice((-1, 1)) * rng.choice((0, 1, 2, p, p * p, rng.randrange(1000)))
            thunk = lambda: x.smul(arg)
        elif op == "scale_pk":
            arg = rng.randrange(0, 3)
            thunk = lambda: x.scale_pk(arg)
        elif op == "inv":
            thunk = x.inv
        elif op == "div_p_exact":
            x = x.smul(p) if rng.random() < 0.5 else x.scale_pk(1)  # divisible by p, as required
            thunk = x.div_p_exact
        elif op == "val":
            thunk = lambda: x.val()
        else:
            arg = rng.choice((-1, 0, 1, 2))
            thunk = lambda: frobenius(x, arg)
        res, err = _outcome(thunk)
        step = {"op": op, "x": _witt_form(x)}
        if op in ("add", "sub", "mul"):
            step["y"] = _witt_form(y)
        if arg is not None:
            step["arg"] = str(arg)
        if err is not None:
            step["error"] = err
        elif op == "val":
            step["result"] = None if res is None else str(res)
        else:
            step["result"] = _witt_form(res)
            pool.append(res)
        steps.append(step)
    return steps


def _teichmuller_cases(cfg, rng):
    out = []
    for _ in range(6):
        a = _raw_witt(cfg, rng)
        prec = rng.randrange(1, WITT_N + 1)
        t = teichmuller(cfg, a, prec)
        out.append({"a": _wj(a), "prec": str(prec), "lift": _witt_form(t), "frobenius": _witt_form(frobenius(t))})
    t = teichmuller(cfg, WittElem(cfg, _raw_witt(cfg, rng, 2), 1))
    out.append({"a": "WittElem", "lift": _witt_form(t)})
    return out


def _factorize_cases(cfg, rng):
    out = []
    for i in range(5):
        x = _witt_operand(cfg, rng, 1 if i == 4 else 2)
        horizon = rng.randrange(0, WITT_N)
        step = {"x": _witt_form(x), "horizon": str(horizon)}
        got, err = _outcome(lambda: teichmuller_factorize(x, horizon))
        if err is not None:
            step["error"] = err
        else:
            a, cert = got
            step["residue"] = _wj(a)
            step["y"] = _witt_form(cert.y)
            step["factors"] = [_witt_form(g) for g in cert.factors()]
            step["verified_prec"] = str(cert.verified_prec)
        out.append(step)
    x = _witt_operand(cfg, rng, 2)
    _, err = _outcome(lambda: teichmuller_factorize(x, 1, target_prec=WITT_N))
    out.append({"x": _witt_form(x), "horizon": "1", "target_prec": str(WITT_N), "error": err})
    return out


def _series(cfg, rng, M):
    prec = rng.choice((WITT_N, WITT_N, rng.randrange(1, WITT_N + 1)))
    coeffs = {i: _raw_witt(cfg, rng) for i in range(M + 1) if rng.random() < 0.5}
    return USeries(cfg, coeffs, prec, M)


def _series_cases(cfg, rng):
    p, M = cfg.p, 5
    out = []
    for _ in range(6):
        x, y = _series(cfg, rng, M), _series(cfg, rng, M)
        step = {"x": _series_form(x), "y": _series_form(y)}
        for name, thunk in (
            ("add", lambda: x + y),
            ("sub", lambda: x - y),
            ("neg", lambda: -x),
            ("mul", lambda: x * y),
            ("pow", lambda: x.pow(p)),
            ("smul", lambda: x.smul(p + 1)),
            ("scale_pk", lambda: x.scale_pk(1)),
            ("div_p_exact", lambda: x.smul(p).div_p_exact()),
            ("phi", x.phi),
        ):
            res, err = _outcome(thunk)
            step[name] = err if err is not None else _series_form(res)
        out.append(step)
    return out


def _validation(cand):
    got, err = _outcome(lambda: delta_log_validate(cand))
    if err is not None:
        return {"error": err}
    ok, violations = got
    return {"ok": ok, "violations": [[v.axiom, list(v.word)] for v in violations]}


def _delta_cases(cfg, rng):
    p, M = cfg.p, 5
    witt, series = DeltaRingView(cfg, "witt"), DeltaRingView(cfg, "series", series_horizon=M)
    out = {"witt": [], "series": []}
    for _ in range(6):
        x = _witt_operand(cfg, rng)
        res, err = _outcome(lambda: witt.delta(x))
        out["witt"].append({"x": _witt_form(x), "delta": err if err is not None else _witt_form(res)})
        s = _series(cfg, rng, M)
        res, err = _outcome(lambda: series.delta(s))
        out["series"].append({"x": _series_form(s), "delta": err if err is not None else _series_form(res)})
    t = teichmuller(cfg, _raw_witt(cfg, rng, 2))
    zero = witt.one().smul(0)
    out["witt_log"] = [
        _validation(PrelogCandidate(witt, ("e",), {"e": t}, {"e": zero})),
        _validation(PrelogCandidate(witt, ("e", "f"), {"e": t, "f": _witt_operand(cfg, rng, 2)}, {"e": zero, "f": witt.one()})),
    ]
    u = USeries.u(cfg, M)
    szero = USeries(cfg, {}, cfg.N, M)
    out["series_log"] = [
        _validation(PrelogCandidate(series, ("e",), {"e": u}, {"e": szero})),
        _validation(PrelogCandidate(series, ("e", "f"), {"e": u, "f": _series(cfg, rng, M)}, {"e": szero, "f": series.one()})),
    ]
    return out


def witt_cases():
    """Seeded Witt-vector and delta-ring results, as stored forms, on eighteen bases."""
    out = {}
    for b, (p, f, e) in enumerate(WITT_BASES):
        cfg = make_base_config(p, [-p] + [0] * (e - 1), f=f, precision=WITT_N)
        rng = random.Random(5000 + b)
        out[f"p{p}f{f}e{e}"] = {
            "ops": _witt_chain(cfg, rng),
            "teichmuller": _teichmuller_cases(cfg, rng),
            "factorize": _factorize_cases(cfg, rng),
            "series": _series_cases(cfg, rng),
            "delta": _delta_cases(cfg, rng),
        }
    return out


def write_all():
    inputs = GOLDEN / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    docs = lab_inputs()
    for name, doc in docs.items():
        (inputs / f"{name}.json").write_text(dumps(doc, canonical=True) + "\n")
    runner = CliRunner()
    manifest = []
    for case, name, args in lab_cases(docs):
        stdout, code, exc = run_case(runner, args, inputs / f"{name}.json")
        (GOLDEN / f"{case}.json").write_text(stdout)
        manifest.append({"case": case, "input": name, "args": args, "exit_code": code, "exception": exc})
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    (GOLDEN / "scalars.json").write_text(json.dumps(scalar_chains(), indent=1, sort_keys=True) + "\n")
    (GOLDEN / "containers.json").write_text(json.dumps(container_cases(), sort_keys=True) + "\n")
    (GOLDEN / "snf.json").write_text(json.dumps(snf_cases(), sort_keys=True) + "\n")
    (GOLDEN / "witt.json").write_text(json.dumps(witt_cases(), sort_keys=True) + "\n")
    return len(manifest)


if __name__ == "__main__":
    n = write_all()
    print(f"wrote {n} lab cases, scalars.json, containers.json, snf.json and witt.json under {GOLDEN}", file=sys.stderr)
