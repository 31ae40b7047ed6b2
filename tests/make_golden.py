"""Regenerate the golden outputs that ``test_golden.py`` compares byte for byte.

    PYTHONPATH=src python tests/make_golden.py

Writes, under ``tests/golden/``:

* ``inputs/*.json``: twelve generated module descriptors (point and chart
  bases; e = 1, 2; f = 1, 2; all three flavors; both twists) and one
  ``factorize`` file of units and non-units per base;
* ``<descriptor>.<command>.json``: the stdout of ``lab <command> --canonical``
  on each input, and ``manifest.json``, the argument list and exit code of
  every case (or the exception, should a command crash instead of reporting);
* ``scalars.json``: ``k_to_json`` of every result of seeded chains of scalar
  operations on four bases, together with its valuation and zero test, or
  the exception the operation raised.

Only the public API is used, so the same script records the outputs of any
version of the package.  Regenerate only for an intended change of output,
and review the diff.
"""

import json
import random
import sys
from pathlib import Path

from click.testing import CliRunner

from htlab import ChartRing, dumps, higgs_to_json, make_base_config, sample_higgs
from htlab.cli import main
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
    return docs


def lab_cases(names):
    """(case name, input name, argument list); inputs are passed by file name."""
    cases = []
    for name in names:
        commands = [("factorize",)] if name.endswith("-units") else LAB_COMMANDS
        for cmd in commands:
            cases.append((f"{name}.{cmd[0]}", name, list(cmd)))
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


def _record(cfg, rng):
    """A random scalar record: shifted, short, zero-at-precision or generic."""
    p = cfg.p
    prec = rng.choice((cfg.N, cfg.N, cfg.N, rng.randrange(0, cfg.N + 3)))
    shift = rng.choice((0, 0, 1, rng.randrange(0, cfg.N + 3)))
    kind = rng.choice((0, 1, 2, 2, 3, 3, 3, 3, 3, 3))
    coeffs = []
    for _ in range(cfg.e):
        w = [str(_coord(rng, p, prec, kind)) for _ in range(cfg.f)]
        coeffs.append(w if cfg.f > 1 else w[0])
    return {"coeffs": coeffs, "prec": str(prec), "shift": str(shift)}


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
        pool = [k_from_json(cfg, _record(cfg, rng)) for _ in range(12)]
        steps = [{"op": "from_json", "result": _describe(x)} for x in pool]
        for _ in range(SCALAR_OPS):
            if rng.random() < 0.35:
                pool.append(k_from_json(cfg, _record(cfg, rng)))
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
    return len(manifest)


if __name__ == "__main__":
    n = write_all()
    print(f"wrote {n} lab cases and scalars.json under {GOLDEN}", file=sys.stderr)
