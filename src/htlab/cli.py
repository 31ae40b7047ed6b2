"""Command-line front end.

Each subcommand reads a JSON descriptor, runs the corresponding pipeline,
and prints a report.  Exit codes: 0 when every check passes, 1 on any
failure, 2 when the only non-passing checks are undecided (for example a
convergence certificate that ran out of its search budget, or a kernel
read off at exhausted precision).

With --canonical the report has sorted keys, no whitespace, and no timing
field, so identical descriptor and flags give byte-identical output.
"""

import hashlib
import json
import random
import sys
import time

import click

from .cohomology import build_higgs_complex, cohomology_all, verify_complex
from .deltaring import DeltaRingView, WittElem, teichmuller_factorize
from .errors import (
    HorizonTooSmall,
    InsufficientPrecision,
    NotAUnit,
    ParseError,
    ValidationFailure,
)
from .galois import GroupElt
from .higgs import check_cocycle_strat, stratification_from_higgs, validate_higgs
from .samples import sample_group
from .sen import cocycle_matrix, verify_cocycle_law
from .serialize import (
    _w_to_json,
    config_from_json,
    dumps,
    higgs_from_json,
    mat_to_json,
    series_mat_to_json,
)


def _read_doc(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"not a JSON descriptor: {exc}")
    if not isinstance(doc, dict):
        raise ParseError(f"not a JSON descriptor: expected an object, got {type(doc).__name__}")
    return doc


def _apply_overrides(doc, precision, pd_cutoff, t_order):
    cfgd = doc.get("config")
    if cfgd is None:
        raise ParseError("descriptor has no config block")
    if not isinstance(cfgd, dict):
        raise ParseError("bad config block: not a JSON object")
    if precision is not None:
        cfgd["N"] = str(precision)
    cuts = cfgd.setdefault("cutoffs", {})
    if not isinstance(cuts, dict):
        raise ParseError("bad config block: cutoffs is not a JSON object")
    if pd_cutoff is not None:
        cuts["D"] = str(pd_cutoff)
    if t_order is not None:
        cuts["T"] = str(t_order)
    return doc


def _digest(cfg):
    blob = json.dumps(cfg.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _echo(text):
    # an explicit file: click caches the stream it picks for a bare echo, and
    # that cache keeps every replaced sys.stdout alive when lab runs in-process
    click.echo(text, file=sys.stdout)


def _emit(report, statuses, canonical, out, t0):
    if not canonical:
        report["timing_ms"] = int((time.monotonic() - t0) * 1000)
    text = dumps(report, canonical=canonical)
    _echo(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    if any(s == "fail" for s in statuses):
        sys.exit(1)
    if any(s == "undecided" for s in statuses):
        sys.exit(2)
    sys.exit(0)


def _fail_report(command, exc, canonical):
    report = {
        "command": command,
        "checks": {"parse": {"status": "fail", "detail": str(exc)}},
    }
    _echo(dumps(report, canonical=canonical))
    sys.exit(1)


def _unit_digits(item, f):
    """A Witt vector of a factorize descriptor: one integer for f = 1, a list of f for f > 1."""

    def digit(x):
        if isinstance(x, int) and not isinstance(x, bool):
            return x
        if isinstance(x, str):
            try:
                return int(x)
            except ValueError:
                pass
        raise ParseError(f"unit {item!r}: {x!r} is not an integer")

    if f == 1:
        if isinstance(item, list):
            raise ParseError(f"unit {item!r}: expected one integer, the base has f = 1")
        return digit(item)
    if not isinstance(item, list) or len(item) != f:
        raise ParseError(f"unit {item!r}: expected a list of {f} integers")
    return tuple(digit(x) for x in item)


opt_precision = click.option("--precision", type=int, default=None, help="override absolute precision")
opt_pd = click.option("--pd-cutoff", type=int, default=None, help="override the divided-power degree cap")
opt_t = click.option("--t-order", type=int, default=None, help="override the t-series order")
opt_canonical = click.option("--canonical", is_flag=True, help="byte-stable output: sorted keys, no timing")
opt_out = click.option("-o", "--output", default=None, help="also write the report to this path")


@click.group()
def main():
    """Exact p-adic laboratory for nilpotent Higgs modules."""


@main.command()
@click.argument("descriptor")
@opt_precision
@opt_pd
@opt_t
@click.option("--strict", is_flag=True, help="treat precision-limited results as failures")
@opt_canonical
@opt_out
def check(descriptor, precision, pd_cutoff, t_order, strict, canonical, output):
    """Validate axioms, the frozen cocycle identity, and the complex."""
    t0 = time.monotonic()
    try:
        doc = _apply_overrides(_read_doc(descriptor), precision, pd_cutoff, t_order)
        h = higgs_from_json(doc)
    except ParseError as exc:
        _fail_report("check", exc, canonical)
    checks = {}
    try:
        res = validate_higgs(h)
        if res["ok"]:
            checks["validate"] = {"status": "pass"}
        else:
            pending = [c.subject for c in res["certificates"] if not c.ok]
            checks["validate"] = {"status": "undecided", "detail": pending}
    except ValidationFailure as exc:
        checks["validate"] = {"status": "fail", "detail": f"{type(exc).__name__}: {exc}"}
    if checks["validate"]["status"] != "fail":
        try:
            strat = stratification_from_higgs(h)
            coc = check_cocycle_strat(strat)
            if coc["ok"]:
                checks["cocycle"] = {"status": "pass"}
            else:
                checks["cocycle"] = {"status": "fail", "detail": str(coc["witness"])}
            rep = build_higgs_complex(h)
            ver = verify_complex(rep)
            if ver["ok"]:
                checks["complex"] = {"status": "pass"}
            else:
                checks["complex"] = {"status": "fail", "detail": f"degrees {ver['failures']}"}
        except ValidationFailure as exc:
            checks["synthesis"] = {"status": "fail", "detail": f"{type(exc).__name__}: {exc}"}
    statuses = [c["status"] for c in checks.values()]
    if strict and "undecided" in statuses:
        statuses.append("fail")
    report = {"command": "check", "config_digest": _digest(h.cfg), "checks": checks}
    _emit(report, statuses, canonical, output, t0)


@main.command()
@click.argument("descriptor")
@opt_precision
@opt_pd
@opt_canonical
@opt_out
def stratify(descriptor, precision, pd_cutoff, canonical, output):
    """Synthesize the stratification coefficients and print them."""
    t0 = time.monotonic()
    try:
        doc = _apply_overrides(_read_doc(descriptor), precision, pd_cutoff, None)
        h = higgs_from_json(doc)
        strat = stratification_from_higgs(h)
    except (ParseError, ValidationFailure) as exc:
        _fail_report("stratify", exc, canonical)
    coeffs = {}
    for (n, index) in sorted(strat.indices()):
        key = f"{n}:" + ",".join(str(i) for i in index)
        coeffs[key] = mat_to_json(strat.matrix(n, index))
    report = {
        "command": "stratify",
        "config_digest": _digest(h.cfg),
        "checks": {"stratify": {"status": "pass"}},
        "artifacts": {"D": str(strat.D), "flavor": strat.flavor, "coeffs": coeffs},
    }
    _emit(report, ["pass"], canonical, output, t0)


@main.command()
@click.argument("descriptor")
@opt_precision
@click.option("--strict", is_flag=True, help="raise instead of flagging precision-limited kernels")
@opt_canonical
@opt_out
def cohomology(descriptor, precision, strict, canonical, output):
    """Smith-reduce the complex and print ranks and torsion divisors."""
    t0 = time.monotonic()
    try:
        doc = _apply_overrides(_read_doc(descriptor), precision, None, None)
        h = higgs_from_json(doc)
        rep = build_higgs_complex(h)
    except (ParseError, ValidationFailure) as exc:
        _fail_report("cohomology", exc, canonical)
    checks = {}
    ver = verify_complex(rep)
    checks["complex"] = (
        {"status": "pass"}
        if ver["ok"]
        else {"status": "fail", "detail": f"degrees {ver['failures']}"}
    )
    table = {}
    if ver["ok"]:
        try:
            groups = cohomology_all(rep, strict=strict)
        except (InsufficientPrecision, ValidationFailure) as exc:
            checks["cohomology"] = {"status": "fail", "detail": f"{type(exc).__name__}: {exc}"}
        else:
            limited = False
            for deg, g in enumerate(groups):
                limited = limited or g["precision_limited"]
                table[f"H{deg}"] = {
                    "free_rank": str(g["free_rank"]),
                    "torsion": [str(v) for v in g["torsion"]],
                    "precision_limited": g["precision_limited"],
                }
            checks["cohomology"] = {"status": "undecided" if limited else "pass"}
    statuses = [c["status"] for c in checks.values()]
    report = {
        "command": "cohomology",
        "config_digest": _digest(h.cfg),
        "checks": checks,
        "artifacts": {"table": table},
    }
    _emit(report, statuses, canonical, output, t0)


@main.command()
@click.argument("descriptor")
@opt_precision
@opt_pd
@opt_t
@click.option("--samples", type=int, default=8, help="number of random group pairs")
@click.option("--seed", type=int, default=0, help="seed for the group-element sampler")
@opt_canonical
@opt_out
def cocycle(descriptor, precision, pd_cutoff, t_order, samples, seed, canonical, output):
    """Expand the group cochain and test the cocycle law on random pairs."""
    t0 = time.monotonic()
    try:
        if samples < 1:
            raise ParseError(f"--samples must be at least 1, got {samples}")
        doc = _apply_overrides(_read_doc(descriptor), precision, pd_cutoff, t_order)
        h = higgs_from_json(doc)
        strat = stratification_from_higgs(h)
        T = h.cfg.cutoffs.T
        ident = GroupElt(h.cfg, (0,) * h.d, 0, 1)
        u_ident = cocycle_matrix(strat, ident, T=T)
    except (ParseError, ValidationFailure, HorizonTooSmall) as exc:
        _fail_report("cocycle", exc, canonical)
    rng = random.Random(seed)
    geometric = h.flavor == "rel-geom"
    pairs = []
    ok_all = True
    for _ in range(samples):
        s = sample_group(h.cfg, rng, h.d, geometric=geometric)
        u = sample_group(h.cfg, rng, h.d, geometric=geometric)
        res = verify_cocycle_law(strat, s, u, T=T)
        ok_all = ok_all and res["ok"]
        pairs.append({"s": s.to_json(), "u": u.to_json(), "ok": res["ok"]})
    checks = {"cocycle_law": {"status": "pass" if ok_all else "fail"}}
    report = {
        "command": "cocycle",
        "config_digest": _digest(h.cfg),
        "checks": checks,
        "artifacts": {
            "t_order": str(T),
            "identity_matrix": series_mat_to_json(u_ident),
            "pairs": pairs,
        },
    }
    _emit(report, [checks["cocycle_law"]["status"]], canonical, output, t0)


@main.command()
@click.argument("descriptor")
@opt_precision
@click.option("--horizon", type=int, default=None, help="product truncation; default precision - 1")
@opt_canonical
@opt_out
def factorize(descriptor, precision, horizon, canonical, output):
    """Split Witt units into Teichmuller times one-unit factors."""
    t0 = time.monotonic()
    try:
        if horizon is not None and horizon < 0:
            raise ParseError(f"--horizon must be at least 0, got {horizon}")
        doc = _apply_overrides(_read_doc(descriptor), precision, None, None)
        cfg = config_from_json(doc["config"])
        raw = doc.get("units")
        if raw is None:
            raw = [doc["unit"]]
        if not isinstance(raw, list):
            raise ParseError("units must be a list")
        units = [_unit_digits(item, cfg.f) for item in raw]
    except ParseError as exc:
        _fail_report("factorize", exc, canonical)
    except KeyError:
        _fail_report("factorize", ParseError("descriptor has no unit field"), canonical)
    M = cfg.N - 1 if horizon is None else horizon
    results = []
    ok_all = True
    for item, w in zip(raw, units):
        try:
            a, cert = teichmuller_factorize(WittElem(cfg, w, cfg.N), M)
        except (NotAUnit, HorizonTooSmall) as exc:
            ok_all = False
            results.append({"unit": item, "status": "fail", "detail": str(exc)})
            continue
        one = DeltaRingView(cfg).one(cert.verified_prec)
        results.append(
            {
                "unit": item,
                "status": "pass",
                "residue": _w_to_json(a),
                "factors": [_w_to_json(f.w) for f in cert.factors() if not (f - one).is_zero()],
                "verified_prec": str(cert.verified_prec),
            }
        )
    checks = {"factorize": {"status": "pass" if ok_all else "fail"}}
    report = {
        "command": "factorize",
        "config_digest": _digest(cfg),
        "checks": checks,
        "artifacts": {"horizon": str(M), "results": results},
    }
    _emit(report, [checks["factorize"]["status"]], canonical, output, t0)


if __name__ == "__main__":
    main()
