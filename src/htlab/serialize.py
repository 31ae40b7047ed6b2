"""JSON descriptors for base fields, scalars, and module data.

Integers travel as decimal strings so files stay exact at any magnitude;
int_from_json also reads a JSON integer, but never a float or a boolean.
"integral" is a JSON boolean, true when absent.
A module descriptor carries its own base configuration, so a file is a
complete, self-describing problem instance:

    {"config": {...}, "base": {"mode": ...}, "flavor": ..., "twist": ...,
     "rank": "2", "integral": true, "theta": [matrix, ...], "phi": matrix}

Matrices are row-major; each entry is a single coefficient record over a
point base and a list of monomial terms over a chart base.  Each term's
exponents must have the chart's length and no negative entry at a position
up to r, whatever its coefficient, and a monomial may be written once.  A
record needs prec >= 1; a negative "shift" is multiplied out and the claim
is capped at N, so {"coeffs": ["7"], "prec": "8", "shift": "-1"} reads as
35 at prec 8.  A "rank", when given, must match the operators.  Canonical
dumps sort keys and drop whitespace, which keeps reports byte-stable for a
fixed input and flag set.
"""

import json

from .base import BaseConfig, KElem, int_from_json
from .chart import ChartElem, ChartRing
from .errors import BadIndex, NotEisenstein, NotPrime, ParseError
from .higgs import HiggsData
from .linalg import Mat


def _w_to_json(w):
    if isinstance(w, tuple):
        return [str(x) for x in w]
    return str(w)


def _w_from_json(v):
    if isinstance(v, list):
        return tuple(int_from_json(x) for x in v)
    return int_from_json(v)


def k_to_json(x):
    return {
        "coeffs": [_w_to_json(c) for c in x.coeffs()],
        "prec": str(x.prec),
        "shift": str(x.shift),
    }


def k_from_json(cfg, d):
    try:
        coeffs = tuple(_w_from_json(c) for c in d["coeffs"])
        prec = int_from_json(d["prec"])
        shift = int_from_json(d.get("shift", "0"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad scalar record: {exc}")
    if prec < 1:
        raise ParseError(f"bad scalar record: prec {prec} leaves no digits")
    if len(coeffs) != cfg.e:
        raise ParseError("scalar width does not match the base field degree")
    width = cfg.f if cfg.f > 1 else None
    if any((len(c) if isinstance(c, tuple) else None) != width for c in coeffs):
        raise ParseError("scalar coefficient width does not match the residue degree")
    return cfg.k_from_coeffs(coeffs, prec, shift)


def scalar_to_json(x):
    if isinstance(x, KElem):
        return k_to_json(x)
    return {
        "terms": [
            {"exps": [str(e) for e in exps], "coeff": k_to_json(c)}
            for exps, c in sorted(x.coeffs.items())
        ]
    }


def scalar_from_json(base, d):
    if base.is_point:
        return k_from_json(base.cfg, d)
    if "terms" not in d:
        # allow a bare coefficient over a chart base
        return base.from_k(k_from_json(base.cfg, d))
    coeffs = {}
    for term in d["terms"]:
        exps = tuple(int_from_json(e) for e in term["exps"])
        if exps in coeffs:
            raise ParseError(f"monomial {list(exps)} written twice")
        coeffs[exps] = k_from_json(base.cfg, term["coeff"])
    try:
        return ChartElem(base, coeffs)
    except BadIndex as exc:
        raise ParseError(f"bad chart term: {exc}")


def series_to_json(x):
    """A {t-degree: coefficient} t-series as {power: coefficient}, ascending powers."""
    return {str(k): scalar_to_json(c) for k, c in sorted(x.items())}


def series_mat_to_json(cells, r):
    """An r x r matrix of t-series, given as its r^2 cells in row-major order, as rows."""
    return [[series_to_json(a) for a in cells[i * r : (i + 1) * r]] for i in range(r)]


def mat_to_json(m):
    return [[scalar_to_json(a) for a in row] for row in m.rows]


def mat_from_json(base, rows):
    if not rows:
        raise ParseError("empty matrix")
    return Mat(base, [[scalar_from_json(base, a) for a in row] for row in rows])


def higgs_to_json(h):
    doc = {
        "config": h.cfg.to_json(),
        "base": h.base.to_json(),
        "flavor": h.flavor,
        "twist": h.twist,
        "rank": str(h.rank),
        "integral": h.integral,
        "theta": [mat_to_json(t) for t in h.theta],
    }
    if h.phi is not None:
        doc["phi"] = mat_to_json(h.phi)
    return doc


def config_from_json(d):
    """The BaseConfig of a config block; a block it rejects is a ParseError."""
    if not isinstance(d, dict):
        raise ParseError("bad config block: not a JSON object")
    cut = d.get("cutoffs", {})
    if not isinstance(cut, dict):
        raise ParseError("bad config block: cutoffs is not a JSON object")
    try:
        return BaseConfig.from_json(d)
    except (KeyError, TypeError, ValueError, NotPrime, NotEisenstein) as exc:
        raise ParseError(f"bad config block: {type(exc).__name__}: {exc}")


def higgs_from_json(doc, cfg=None):
    try:
        if cfg is None:
            cfg = config_from_json(doc["config"])
        base = ChartRing.from_json(cfg, doc.get("base", {"mode": "point"}))
        flavor = doc["flavor"]
        theta = [mat_from_json(base, t) for t in doc["theta"]]
        phi = mat_from_json(base, doc["phi"]) if doc.get("phi") is not None else None
        integral = doc.get("integral", True)
        if type(integral) is not bool:
            raise ParseError(f"integral {integral!r} is not true or false")
        h = HiggsData(base, flavor, theta, phi, integral=integral, twist=doc.get("twist", "log"))
        rank = doc.get("rank")
        if rank is not None and int_from_json(rank) != h.rank:
            raise ParseError(f"rank {rank} does not match the {h.rank}x{h.rank} operators")
        return h
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, BadIndex) as exc:
        raise ParseError(f"bad module descriptor: {exc}")


def dumps(doc, canonical=False):
    if canonical:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return json.dumps(doc, indent=2)


def load_higgs(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not a JSON descriptor: {exc}")
    return higgs_from_json(doc)


def dump_higgs(h, path, canonical=False):
    with open(path, "w") as fh:
        fh.write(dumps(higgs_to_json(h), canonical=canonical))
        fh.write("\n")
