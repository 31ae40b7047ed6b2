"""Command-line front end.

Each subcommand reads a JSON descriptor, runs its pipeline and prints a
report.  Exit codes: 0 when every check passes, 1 on any failure, 2 when the
only non-passing checks are undecided (for example a convergence certificate
that ran out of its search budget); with --strict, undecided exits 1.  A
descriptor that cannot be read, or is rejected before the first check (a bad
config block, scalar record or matrix, flavor, twist, operator size or rank),
gives a report whose only check is ``parse``, with status fail, and exit 1.
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
from .deltaring import WittElem, _one, teichmuller_factorize
from .errors import HorizonTooSmall, InsufficientPrecision, NotAUnit, ParseError, ValidationFailure
from .galois import GroupElt
from .higgs import check_cocycle_strat, stratification_from_higgs, validate_higgs
from .samples import sample_group
from .sen import cocycle_matrix, verify_cocycle_law
from .serialize import _w_from_json, _w_to_json, config_from_json, dumps, higgs_from_json
from .serialize import mat_to_json, series_mat_to_json


def _load(path, precision, pd_cutoff, t_order):
    """The descriptor at path and its BaseConfig, with the command-line overrides written in."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"not a JSON descriptor: {exc}")
    if not isinstance(doc, dict):
        raise ParseError(f"not a JSON descriptor: expected an object, got {type(doc).__name__}")
    cfgd = doc.get("config")
    if cfgd is None:
        raise ParseError("descriptor has no config block")
    # a block, or a cutoffs entry, that is no JSON object is config_from_json's to reject
    if isinstance(cfgd, dict) and isinstance(cfgd.setdefault("cutoffs", {}), dict):
        cuts = cfgd["cutoffs"]
        for block, key, value in ((cfgd, "N", precision), (cuts, "D", pd_cutoff), (cuts, "T", t_order)):
            if value is not None:
                block[key] = str(value)
    return doc, config_from_json(cfgd)


def _echo(text):
    # an explicit file: click caches the stream it picks for a bare echo, and
    # that cache keeps every replaced sys.stdout alive when lab runs in-process
    click.echo(text, file=sys.stdout)


def _run(compute, descriptor, precision, canonical, output, pd_cutoff=None, t_order=None, **opts):
    """Print the report of compute(doc, cfg, **opts) -> (checks, artifacts or None), also
    to output when given, and exit; an error that compute raises before its first check
    gives the parse report."""
    t0 = time.monotonic()
    try:
        doc, cfg = _load(descriptor, precision, pd_cutoff, t_order)
        checks, artifacts = compute(doc, cfg, **opts)
    except (ParseError, ValidationFailure, HorizonTooSmall) as exc:
        checks = {"parse": {"status": "fail", "detail": str(exc)}}
        report = {"command": compute.__name__, "checks": checks}
    else:
        digest = hashlib.sha256(dumps(cfg.to_json(), canonical=True).encode()).hexdigest()[:12]
        report = {"command": compute.__name__, "config_digest": digest, "checks": checks}
        if artifacts is not None:
            report["artifacts"] = artifacts
        if not canonical:
            report["timing_ms"] = int((time.monotonic() - t0) * 1000)
    text = dumps(report, canonical=canonical)
    _echo(text)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    statuses = {c["status"] for c in checks.values()}
    if "fail" in statuses or (opts.get("strict") and "undecided" in statuses):
        sys.exit(1)
    sys.exit(2 if "undecided" in statuses else 0)


@click.group()
def main():
    """Exact p-adic laboratory for nilpotent Higgs modules."""


opt_precision = click.option("--precision", type=int, default=None, help="override absolute precision")
opt_pd = click.option("--pd-cutoff", type=int, default=None, help="override the divided-power degree cap")
opt_t = click.option("--t-order", type=int, default=None, help="override the t-series order")
opt_canonical = click.option("--canonical", is_flag=True, help="byte-stable output: sorted keys, no timing")
opt_out = click.option("-o", "--output", default=None, help="also write the report to this path")


def _command(*options):
    """Register compute as the subcommand of its name, run by _run, with DESCRIPTOR,
    --precision, these options, --canonical and -o."""

    def register(compute):
        def callback(**params):
            _run(compute, **params)

        params = (click.argument("descriptor"), opt_precision, *options, opt_canonical, opt_out)
        for param in reversed(params):
            callback = param(callback)
        return main.command(compute.__name__, help=compute.__doc__)(callback)

    return register


def _verdict(ok, detail):
    return {"status": "pass"} if ok else {"status": "fail", "detail": detail}


def _complex_check(rep):
    ver = verify_complex(rep)
    return _verdict(ver["ok"], f"degrees {ver['failures']}")


@_command(
    opt_pd, opt_t, click.option("--strict", is_flag=True, help="treat precision-limited results as failures")
)
def check(doc, cfg, strict):
    """Validate axioms, the frozen cocycle identity, and the complex."""
    # --strict acts on the exit code alone, in _run
    h = higgs_from_json(doc, cfg)
    try:
        res = validate_higgs(h)
    except ValidationFailure as exc:
        return {"validate": _verdict(False, f"{type(exc).__name__}: {exc}")}, None
    pending = [c.subject for c in res["certificates"] if not c.ok]
    checks = {"validate": {"status": "pass"} if res["ok"] else {"status": "undecided", "detail": pending}}
    try:
        coc = check_cocycle_strat(stratification_from_higgs(h))
        checks["cocycle"] = _verdict(coc["ok"], str(coc["witness"]))
        checks["complex"] = _complex_check(build_higgs_complex(h))
    except ValidationFailure as exc:
        checks["synthesis"] = _verdict(False, f"{type(exc).__name__}: {exc}")
    return checks, None


@_command(opt_pd)
def stratify(doc, cfg):
    """Synthesize the stratification coefficients and print them."""
    strat = stratification_from_higgs(higgs_from_json(doc, cfg))
    keys = sorted(strat.indices())
    coeffs = {f"{n}:" + ",".join(map(str, i)): mat_to_json(strat.matrix(n, i)) for n, i in keys}
    return {"stratify": {"status": "pass"}}, {"D": str(strat.D), "flavor": strat.flavor, "coeffs": coeffs}


@_command(click.option("--strict", is_flag=True, help="raise instead of flagging precision-limited kernels"))
def cohomology(doc, cfg, strict):
    """Smith-reduce the complex and print ranks and torsion divisors."""
    rep = build_higgs_complex(higgs_from_json(doc, cfg))
    checks = {"complex": _complex_check(rep)}
    table = {}
    if checks["complex"]["status"] == "pass":
        try:
            groups = cohomology_all(rep, strict=strict)
        except (InsufficientPrecision, ValidationFailure) as exc:
            checks["cohomology"] = _verdict(False, f"{type(exc).__name__}: {exc}")
        else:
            for deg, g in enumerate(groups):
                table[f"H{deg}"] = {
                    "free_rank": str(g["free_rank"]),
                    "torsion": [str(v) for v in g["torsion"]],
                    "precision_limited": g["precision_limited"],
                }
            limited = any(g["precision_limited"] for g in groups)
            checks["cohomology"] = {"status": "undecided" if limited else "pass"}
    return checks, {"table": table}


@_command(
    opt_pd,
    opt_t,
    click.option("--samples", type=int, default=8, help="number of random group pairs"),
    click.option("--seed", type=int, default=0, help="seed for the group-element sampler"),
)
def cocycle(doc, cfg, samples, seed):
    """Expand the group cochain and test the cocycle law on random pairs."""
    if samples < 1:
        raise ParseError(f"--samples must be at least 1, got {samples}")
    h = higgs_from_json(doc, cfg)
    strat = stratification_from_higgs(h)
    T = cfg.cutoffs.T
    u_ident = cocycle_matrix(strat, GroupElt(cfg, (0,) * h.d, 0, 1), T=T)
    rng = random.Random(seed)
    pairs = []
    for _ in range(samples):
        s, u = (sample_group(cfg, rng, h.d, geometric=h.flavor == "rel-geom") for _ in range(2))
        pairs.append({"s": s.to_json(), "u": u.to_json(), "ok": verify_cocycle_law(strat, s, u, T=T)["ok"]})
    checks = {"cocycle_law": {"status": "pass" if all(p["ok"] for p in pairs) else "fail"}}
    return checks, {"t_order": str(T), "identity_matrix": series_mat_to_json(u_ident, strat.rank), "pairs": pairs}


def _unit_digits(item, f):
    """A Witt vector of a factorize descriptor: one integer for f = 1, a list of f for f > 1."""
    if f == 1 and isinstance(item, list):
        raise ParseError(f"unit {item!r}: expected one integer, the base has f = 1")
    if f > 1 and (not isinstance(item, list) or len(item) != f):
        raise ParseError(f"unit {item!r}: expected a list of {f} integers")
    try:
        return _w_from_json(item)
    except ValueError as exc:
        raise ParseError(f"unit {item!r}: {exc}")


@_command(click.option("--horizon", type=int, default=None, help="product truncation; default precision - 1"))
def factorize(doc, cfg, horizon):
    """Split Witt units into Teichmuller times one-unit factors."""
    if horizon is not None and horizon < 0:
        raise ParseError(f"--horizon must be at least 0, got {horizon}")
    raw = doc.get("units")
    if raw is None and "unit" not in doc:
        raise ParseError("descriptor has no unit field")
    raw = [doc["unit"]] if raw is None else raw
    if not isinstance(raw, list):
        raise ParseError("units must be a list")
    units = [_unit_digits(item, cfg.f) for item in raw]
    M = cfg.N - 1 if horizon is None else horizon
    results = []
    for item, w in zip(raw, units):
        try:
            a, cert = teichmuller_factorize(WittElem(cfg, w, cfg.N), M)
        except (NotAUnit, HorizonTooSmall) as exc:
            results.append({"unit": item, "status": "fail", "detail": str(exc)})
            continue
        one = _one(cfg, cert.verified_prec)
        factors = [_w_to_json(f.w) for f in cert.factors() if not (f - one).is_zero()]
        results.append({"unit": item, "status": "pass", "residue": _w_to_json(a), "factors": factors})
        results[-1]["verified_prec"] = str(cert.verified_prec)
    passed = all(r["status"] == "pass" for r in results)
    return {"factorize": {"status": "pass" if passed else "fail"}}, {"horizon": str(M), "results": results}


if __name__ == "__main__":
    main()
