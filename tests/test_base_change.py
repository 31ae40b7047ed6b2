"""Unramified base change: a module over Z_p and the same module read over
W(F_{p^2}) give the same answers, digit for digit.

Extension of scalars along Z_p -> W(F_{p^2}) is unramified: E, beta and
every valuation are unchanged, and the lifted coefficients stay in Z_p.  So
every stored form agrees once a coordinate pair (c, 0) is read back as c.
The f = 1 side runs the bare-int scalar kernels and the f = 2 side the
compiled tuple kernels, so this pins the two to one answer.
"""

import json
import random

import pytest
from click.testing import CliRunner
from oracles import corrupted_strat, lift_unramified

from htlab import make_base_config
from htlab.chart import ChartRing
from htlab.cli import main
from htlab.cohomology import build_higgs_complex, cohomology_all
from htlab.errors import ValidationFailure
from htlab.galois import GroupElt
from htlab.higgs import stratification_from_higgs, validate_higgs
from htlab.samples import corpus
from htlab.sen import cocycle_matrix, h0_fixed_points, verify_cocycle_law
from htlab.serialize import dumps, higgs_from_json, higgs_to_json, mat_to_json, scalar_to_json

LAB = (["check"], ["stratify"], ["cohomology"], ["cocycle", "--samples", "2"])


def _unlift(x):
    """x with each W coordinate list [c, 0, .., 0] of a scalar record read back as c."""
    if isinstance(x, list):
        return [_unlift(v) for v in x]
    if not isinstance(x, dict):
        return x
    if "coeffs" in x and "prec" in x:
        assert all(set(c[1:]) == {"0"} for c in x["coeffs"]), x
        return {**x, "coeffs": [c[0] for c in x["coeffs"]]}
    return {k: _unlift(v) for k, v in x.items()}


def _sigma_params(rng, p, d):
    """(n, c, chi) of a random sigma, one with c = 0 and, for d > 0, one with
    n_1 = 0, so that U(sigma) compiles more than one layout."""
    M = p**8

    def n():
        return [rng.randrange(1, M) for _ in range(d)]

    def chi():
        return 1 + p * rng.randrange(p**3)

    out = [(n(), rng.randrange(1, M), chi()), (n(), 0, chi())]
    if d:
        out.append(([0] + n()[1:], rng.randrange(1, M), chi()))
    return out


def _answers(h, sigmas, seed):
    """Every answer htlab gives on h, in stored form as JSON records."""
    strat = stratification_from_higgs(h)
    out = {"strat": [[n, list(index), mat_to_json(A)] for (n, index), A in strat.coeffs.items()]}
    us = []
    gs = [GroupElt(h.cfg, n, c, chi) for n, c, chi in sigmas]
    for g in gs:
        r = strat.rank
        U = [[[m, scalar_to_json(v)] for m, v in e.items()] for e in cocycle_matrix(strat, g)]
        us.append([U[i * r : (i + 1) * r] for i in range(r)])
    out["U"] = us
    # the group law's verdict and witness on each cyclic pair of the sigmas,
    # on the module and on a corrupted copy of its stratification
    pairs = list(zip(gs, gs[1:] + gs[:1]))
    bad = corrupted_strat(strat, random.Random(seed))
    for name, st in (("law", strat), ("law-corrupted", bad)):
        if st is not None:
            out[name] = [[law["ok"], law["witness"]] for law in (verify_cocycle_law(st, s, u) for s, u in pairs)]
    out["cohomology"] = cohomology_all(build_higgs_complex(h))
    try:
        res = validate_higgs(h)
        out["validate"] = [res["ok"], [c.subject for c in res["certificates"] if not c.ok]]
    except ValidationFailure as exc:
        out["validate"] = f"{type(exc).__name__}: {exc}"
    h0 = h0_fixed_points(strat)
    out["h0"] = [h0["dim"], [[scalar_to_json(a) for a in v] for v in h0["basis"]]]
    return out


def _lab(runner, path, doc):
    """(exit code, report without its config digest) of each module command on doc."""
    path.write_text(dumps(doc))
    out = []
    for args in LAB:
        res = runner.invoke(main, [args[0], str(path), *args[1:], "--canonical"])
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
        report = json.loads(res.stdout)
        report.pop("config_digest", None)
        out.append([res.exit_code, report])
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_unramified_base_change_keeps_every_answer(p, tmp_path):
    """On the p-adic corpus of every flavor, twist and d, lifted f = 1 -> 2
    through its descriptor: the stratification, U(sigma) at three sigmas,
    the group law's verdict and witness on the cyclic pairs of those sigmas,
    on the module and on a corrupted copy of its stratification, the
    cohomology, the validate verdict, the fixed vectors and the lab
    --canonical reports all agree in stored form."""
    point = ChartRing(make_base_config(p, [-p]), "point")
    rng = random.Random(f"base-change-{p}")
    runner = CliRunner()
    witnesses = 0
    for i, h in enumerate(corpus(point, p)):
        doc = higgs_to_json(h)
        lifted = higgs_from_json(lift_unramified(doc, 2))
        assert (lifted.cfg.f, lifted.cfg.n, h.cfg.n) == (2, 2, 1)
        sigmas = _sigma_params(rng, p, h.d)
        seed = rng.randrange(10**9)
        want = _answers(h, sigmas, seed)
        assert _unlift(_answers(lifted, sigmas, seed)) == want, (i, h.flavor)
        witnesses += sum(not ok for ok, _ in want.get("law-corrupted", []))
        if i % 3 == 0:
            down = _lab(runner, tmp_path / "f1.json", doc)
            up = _lab(runner, tmp_path / "f2.json", lift_unramified(doc, 2))
            assert _unlift(up) == down, (i, h.flavor)
    assert witnesses
