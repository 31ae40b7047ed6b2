"""The four benchmark workloads and the oracle that checks each of their ops.

Every workload is built by ``SETUPS[name](seed, workdir, kept)`` from
generated inputs only, and is a list of ops that the harness runs as a
closed loop with one client; ``kept`` records the draws that a repeated
set-up reuses (see ``draw_module``).  An op returns ``(status, detail)``
with status ``pass``, ``limited`` (a result flagged ``precision_limited`` or undecided) or
``wrong`` (the oracle rejected the answer); an exception raised by htlab is
caught by the harness and counted as a failed op.

The ops are laid out in blocks.  One block holds every input shape of the
workload exactly once, in a fixed order, so any run that completes a few
blocks sees the same mix whatever the seed is; the seed only changes the
entries.  Each list is sized so that a timed run reaches all of it; the
harness runs the rest untimed if the time runs out first, so every op is
checked.  htlab is imported inside the setup functions, so that a set-up
repeated after the harness re-imports htlab uses the fresh modules.
"""

import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

N = 8  # absolute precision of every base
T_LAW = 6  # t-order of the group-law check

# (name, p, lower coefficients of E, f)
P5 = ("p5", 5, (-5,), 1)
P3 = ("p3", 3, (-3,), 1)
P2 = ("p2", 2, (-2,), 1)
P2E2 = ("p2e2", 2, (-2, 0), 1)
P3E2 = ("p3e2", 3, (-3, 0), 1)
P3F2 = ("p3f2", 3, (-3,), 2)


@dataclass
class Op:
    label: str
    run: Callable[[], tuple]


@dataclass
class Workload:
    ops: list
    block: int  # ops in one block; also the op count of the traced run
    warmup: int  # untimed ops run before the timed phase
    files: dict = field(default_factory=dict)  # path -> text the ops read

    def write_files(self):
        """Write the input files; kept out of the timed set-up, since file-system
        latency is not htlab's work and varies far more than the set-up itself."""
        for path, text in self.files.items():
            with open(path, "w") as fh:
                fh.write(text)


# Failures present at the baseline: cause -> (label pattern, detail pattern,
# baseline rate).  A failed op whose label and detail match is attributed to
# the cause; any other failure makes the run incorrect.  The rate is the
# cause's failures per op whose label matches, over the baseline result sets.
# A run with far more failures of a cause than its rate predicts (see
# ``known_allowance``) is incorrect too, so that a known defect cannot spread
# unseen.
KNOWN_DEFECTS = {
    "chart-cohomology-crash": (
        r"^lab:cohomology:.*/chart/",
        r"^AttributeError: 'ChartElem' object has no attribute 'num'",
        1.0,
    ),
    "image-escapes-kernel": (r"^(coh|lab:cohomology):", r"image escapes the kernel", 0.0013),
    "chart-cocycle-law": (r"^lab:cocycle:.*/chart/", r"^wrong: cocycle_law fail", 0.015),
}


def known_cause(label, detail):
    for cause, (label_re, detail_re, _) in KNOWN_DEFECTS.items():
        if re.search(label_re, label) and re.search(detail_re, detail):
            return cause
    return None


def known_allowance(rate, exposed):
    """The most failures of a known cause a run may have among ``exposed``
    ops that its label pattern matches: the mean at the baseline rate, plus
    four Poisson deviations, plus four."""
    mean = rate * exposed
    return mean + 4 * math.sqrt(mean) + 4


def causes_over_allowance(causes, label_counts):
    """The known causes in ``causes`` (cause -> failures) above their allowance,
    given how many times each op label ran."""
    over = []
    for cause, (label_re, _, rate) in KNOWN_DEFECTS.items():
        if cause in causes:
            exposed = sum(n for label, n in label_counts.items() if re.search(label_re, label))
            if causes[cause] > known_allowance(rate, exposed):
                over.append(cause)
    return over


def _point_base(spec):
    from htlab import ChartRing, make_base_config

    _, p, E, f = spec
    return ChartRing(make_base_config(p, list(E), f=f, precision=N), "point")


def _label(prefix, spec, h):
    return f"{prefix}:{spec[0]}/{h.base.mode}/{h.flavor}/r{h.rank}/d{h.d}/{h.twist}"


def nilpotent_depth(h):
    """Longest path in the support graph of the thetas, counted in vertices.

    The cost of a descent or a complex grows with this depth far more than
    with the entries, so the large modules are drawn per (rank, depth) cell.
    """
    edges = {}
    for th in h.theta:
        for a, row in enumerate(th.rows):
            for b, x in enumerate(row):
                if not x.is_zero():
                    edges.setdefault(a, set()).add(b)
    memo = {}

    def longest(v):
        if v not in memo:
            memo[v] = 1 + max((longest(b) for b in edges.get(v, ())), default=0)
        return memo[v]

    return max(longest(v) for v in range(h.rank))


def draw_module(spec, base, rng, flavor, rank, d, twist, depth, kept):
    """A seeded sample module of the given shape whose theta depth is ``depth``.

    The cell takes one seed from ``rng``, and draw k of the cell samples with
    its own generator seeded from the cell seed and k.  The first set-up of a
    run searches for the first draw of the right depth and records k in
    ``kept``; a repeated set-up samples only that draw, so the timed set-up
    holds no rejection loop.  The cell is chosen by coverage; the draw never
    looks at how htlab answers on the module.
    """
    from htlab import sample_higgs

    cell = rng.randrange(10**9)
    key = (spec[0], flavor, rank, d, twist, depth, cell)
    draws = [kept[key]] if key in kept else range(500)
    for k in draws:
        h = sample_higgs(base, random.Random(cell * 1000 + k), flavor, rank=rank, d=d, twist=twist)
        if key in kept or nilpotent_depth(h) == depth:
            kept[key] = k
            return h
    raise RuntimeError(f"no rank-{rank} module of depth {depth} in 500 draws")


# ---------------------------------------------------------------------------
# corpus-grouplaw
# ---------------------------------------------------------------------------

GROUPLAW_BASES = (P5, P3, P2E2)
GROUPLAW_CORPORA = 6  # corpus seeds per run
GROUPLAW_PAIRS = 6  # sampled group pairs per module


def _certify_op(label, h, D=None, pairs=()):
    """Stratify at D, check pd descent, then the group law on each sampled pair."""
    from htlab.higgs import check_cocycle_strat, stratification_from_higgs
    from htlab.sen import verify_cocycle_law

    def run():
        strat = stratification_from_higgs(h, D=D)
        desc = check_cocycle_strat(strat)
        if not desc["ok"]:
            return "wrong", f"descent residual at {desc['witness']}"
        for s, u in pairs:
            law = verify_cocycle_law(strat, s, u, T=T_LAW)
            if not law["ok"]:
                return "wrong", f"group law residual at {law['witness']}"
        return "pass", None

    return Op(label, run)


def setup_corpus_grouplaw(seed, workdir, kept):
    from htlab import corpus, sample_group

    rng = random.Random(seed)
    bases = [(spec, _point_base(spec)) for spec in GROUPLAW_BASES]
    ops = []
    for _ in range(GROUPLAW_CORPORA):
        cseed = rng.randrange(10**6)
        mods = [(spec, corpus(base, cseed)) for spec, base in bases]
        for i in range(len(mods[0][1])):
            for spec, hs in mods:
                h = hs[i]
                geo = h.flavor == "rel-geom"
                pairs = [
                    (sample_group(h.cfg, rng, h.d, geo), sample_group(h.cfg, rng, h.d, geo))
                    for _ in range(GROUPLAW_PAIRS)
                ]
                ops.append(_certify_op(_label("law", spec, h), h, pairs=pairs))
    return Workload(ops, len(ops) // GROUPLAW_CORPORA, warmup=len(bases))


# ---------------------------------------------------------------------------
# large-descent
# ---------------------------------------------------------------------------

# (rank, pd cutoff D, theta depth) per base, each run with both twists.  The
# cells of the two bases interleave in cost, so that the latencies of a block
# spread over one range instead of two clusters with the median between them.
DESCENT_CELLS = (
    (P2E2, ((4, 6, 2), (5, 8, 2), (4, 8, 2), (6, 8, 2), (5, 6, 3), (4, 6, 3))),
    (P3F2, ((4, 6, 2), (6, 6, 2), (4, 8, 2), (5, 6, 2), (4, 6, 3), (5, 7, 2))),
)
DESCENT_BLOCKS = 5


def setup_large_descent(seed, workdir, kept):
    rng = random.Random(seed)
    bases = [(spec, _point_base(spec), cells) for spec, cells in DESCENT_CELLS]
    ops = []
    for _ in range(DESCENT_BLOCKS):
        for k in range(len(DESCENT_CELLS[0][1])):
            for twist in ("log", "smooth"):
                for spec, base, cells in bases:
                    rank, D, depth = cells[k]
                    h = draw_module(spec, base, rng, "abs-geom", rank, 3, twist, depth, kept)
                    ops.append(_certify_op(f"{_label('descent', spec, h)}/D{D}", h, D=D))
    return Workload(ops, len(ops) // DESCENT_BLOCKS, warmup=len(bases))


# ---------------------------------------------------------------------------
# cohomology-sweep
# ---------------------------------------------------------------------------

COHOMOLOGY_BASES = (P2, P3, P2E2, P3E2, P5, P3F2)
COHOMOLOGY_BLOCKS = 9
# corpus seeds per block: the share of precision-limited results varies
# between corpus seeds, so a run needs a few dozen for a steady certified_rate
COHOMOLOGY_CORPORA = 2
# the tail: one large module per base and block, cycling through these cells.
# The cost of one module varies by a third or more within a cell, so the
# cells are kept cheap enough for a run to hold about a hundred of them.
COHOMOLOGY_TAIL = (
    ("abs-geom", 4, "log", 2),
    ("rel-geom", 5, "log", 3),
    ("abs-geom", 4, "log", 3),
    ("rel-geom", 6, "log", 2),
    ("rel-geom", 5, "smooth", 2),
    ("abs-geom", 4, "smooth", 3),
)


def check_cohomology(groups, ranks):
    """The cohomology oracle: a certified result has Euler characteristic
    sum (-1)^n free_rank(H^n) = sum (-1)^n rank_n."""
    if any(g["precision_limited"] for g in groups):
        return "limited", None
    lhs = sum((-1) ** n * g["free_rank"] for n, g in enumerate(groups))
    rhs = sum((-1) ** n * r for n, r in enumerate(ranks))
    if lhs != rhs:
        return "wrong", f"Euler characteristic {lhs} != {rhs}"
    return "pass", None


def _cohomology_op(label, h):
    from htlab.cohomology import build_higgs_complex, cohomology_all, verify_complex

    def run():
        rep = build_higgs_complex(h)
        ver = verify_complex(rep)
        if not ver["ok"]:
            return "wrong", f"d∘d != 0 in degrees {ver['failures']}"
        return check_cohomology(cohomology_all(rep), rep.ranks)

    return Op(label, run)


def setup_cohomology_sweep(seed, workdir, kept):
    from htlab import corpus

    rng = random.Random(seed)
    bases = [(spec, _point_base(spec)) for spec in COHOMOLOGY_BASES]
    ops = []
    for b in range(COHOMOLOGY_BLOCKS):
        for _ in range(COHOMOLOGY_CORPORA):
            cseed = rng.randrange(10**6)
            mods = [(spec, corpus(base, cseed)) for spec, base in bases]
            for i in range(len(mods[0][1])):
                for spec, hs in mods:
                    ops.append(_cohomology_op(_label("coh", spec, hs[i]), hs[i]))
        for k, (spec, base) in enumerate(bases):
            flavor, rank, twist, depth = COHOMOLOGY_TAIL[(b + k) % len(COHOMOLOGY_TAIL)]
            h = draw_module(spec, base, rng, flavor, rank, 3, twist, depth, kept)
            ops.append(_cohomology_op(_label("coh", spec, h), h))
    return Workload(ops, len(ops) // COHOMOLOGY_BLOCKS, warmup=len(bases))


# ---------------------------------------------------------------------------
# lab-descriptors
# ---------------------------------------------------------------------------

LAB_BASES = (P5, P2E2, P3F2)  # e=1 f=1, e=2 f=1, e=1 f=2
LAB_MODES = (("point", 0, 0), ("chart", 1, 1))  # (mode, chart d, chart r)
LAB_SHAPES = (
    ("abs-geom", 2, 1, "log"),
    ("abs-arith", 2, 0, "smooth"),
    ("rel-geom", 2, 1, "log"),
    ("abs-geom", 3, 2, "smooth"),
)
LAB_COMMANDS = ("check", "stratify", "cohomology", "cocycle")
LAB_BLOCKS = 9
LAB_UNITS = 6  # units and non-units in each factorize file


def check_lab_report(command, exit_code, stdout, units=None):
    """The lab oracle: a JSON report, exit code 0/1/2, and no false fail."""
    if exit_code not in (0, 1, 2):
        return "wrong", f"exit code {exit_code}"
    try:
        doc = json.loads(stdout)
        statuses = {k: v["status"] for k, v in doc["checks"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return "wrong", f"no JSON report: {exc}"
    if command in ("check", "cocycle"):
        failed = sorted(k for k, s in statuses.items() if s == "fail")
        if failed:
            return "wrong", f"{','.join(failed)} fail"
    if command == "factorize":
        got = [r["status"] == "pass" for r in doc["artifacts"]["results"]]
        if got != units:
            return "wrong", f"unit verdicts {got} != {units}"
    return ("limited", None) if exit_code == 2 else ("pass", None)


def _lab_op(label, runner, main, args, units=None):
    def run():
        res = runner.invoke(main, args)
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            raise res.exception
        return check_lab_report(args[0], res.exit_code, res.stdout, units)

    return Op(label, run)


def _unit_item(cfg, rng, unit):
    """A Witt vector for a factorize file: a unit, or a multiple of p."""
    p = cfg.p
    if unit:
        digits = [rng.randrange(p**N) for _ in range(cfg.f)]
        if digits[0] % p == 0:
            digits[0] += 1
    else:
        digits = [p * rng.randrange(p ** (N - 1)) for _ in range(cfg.f)]
    return digits if cfg.f > 1 else digits[0]


def setup_lab_descriptors(seed, workdir, kept):
    from click.testing import CliRunner

    from htlab import ChartRing, dumps, higgs_to_json, sample_higgs
    from htlab.cli import main

    rng = random.Random(seed)
    runner = CliRunner()
    ops = []
    files = {}
    for _ in range(LAB_BLOCKS):
        for spec in LAB_BASES:
            cfg = _point_base(spec).cfg
            for mode, cd, cr in LAB_MODES:
                base = ChartRing(cfg, mode, d=cd, r=cr)
                for flavor, rank, d, twist in LAB_SHAPES:
                    h = sample_higgs(base, rng, flavor, rank=rank, d=d, twist=twist)
                    path = os.path.join(workdir, f"m{len(ops)}.json")
                    files[path] = dumps(higgs_to_json(h)) + "\n"
                    for cmd in LAB_COMMANDS:
                        label = _label(f"lab:{cmd}", spec, h)
                        ops.append(_lab_op(label, runner, main, [cmd, path, "--canonical"]))
            verdicts = [k % 3 != 2 for k in range(LAB_UNITS)]
            items = [_unit_item(cfg, rng, v) for v in verdicts]
            path = os.path.join(workdir, f"u{len(ops)}.json")
            files[path] = json.dumps({"config": cfg.to_json(), "units": items})
            args = ["factorize", path, "--canonical"]
            ops.append(_lab_op(f"lab:factorize:{spec[0]}", runner, main, args, verdicts))
    return Workload(ops, len(ops) // LAB_BLOCKS, warmup=len(LAB_BASES), files=files)


SETUPS = {
    "corpus-grouplaw": setup_corpus_grouplaw,
    "large-descent": setup_large_descent,
    "cohomology-sweep": setup_cohomology_sweep,
    "lab-descriptors": setup_lab_descriptors,
}
