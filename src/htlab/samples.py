"""Seeded example modules for tests, benchmarks, and the command line.

The generator puts a weight on every basis vector and allows theta entries
only where the weight climbs by exactly one; phi is the braiding unit times
(c0 - weight) on the diagonal plus a nilpotent tail along the thetas.  That
shape satisfies the commutation, braiding, and nilpotence axioms by
construction while leaving the entries random, and the diagonal keeps every
phi-sequence certificate convergent.  When the weights spread over more than
two levels the thetas are scalar multiples of one shared pattern, which is
what commutation requires along a chain.
"""

import random

from .galois import GroupElt
from .higgs import HiggsData, twist_unit
from .linalg import Mat


def _rand_scalar(base, rng, lo=-30, hi=30, unit=False):
    c = rng.randrange(lo, hi)
    if unit and c % base.cfg.p == 0:
        c += 1
    if base.mode == "chart" and base.d > 0 and rng.random() < 0.4:
        i = rng.randrange(1, base.d + 1)
        power = -1 if i > base.r and rng.random() < 0.3 else 1
        return base.var(i, power).smul(c)
    return base.from_int(c)


def sample_higgs(base, rng, flavor="abs-geom", rank=2, d=1, twist="log"):
    """One random module of the requested shape; axioms hold by construction."""
    cfg = base.cfg
    if flavor == "abs-arith":
        d = 0
    weights = sorted((rng.randrange(rank) for _ in range(rank)), reverse=True)
    slots = [
        (a, b)
        for a in range(rank)
        for b in range(rank)
        if weights[a] == weights[b] + 1
    ]
    chain = max(weights) - min(weights) > 1 if rank else False
    thetas = []
    if d and slots:
        if chain:
            pattern = Mat.zero(base, rank)
            for (a, b) in slots:
                pattern.rows[a][b] = _rand_scalar(base, rng)
            for _ in range(d):
                thetas.append(pattern.mul_scalar(base.from_int(rng.randrange(1, 12))))
        else:
            for _ in range(d):
                th = Mat.zero(base, rank)
                for (a, b) in slots:
                    if rng.random() < 0.8:
                        th.rows[a][b] = _rand_scalar(base, rng)
                thetas.append(th)
    elif d:
        thetas = [Mat.zero(base, rank) for _ in range(d)]
    if flavor == "rel-geom":
        return HiggsData(base, flavor, thetas, None, twist=twist)
    braid = twist_unit(cfg, twist)
    c0 = rng.randrange(0, 8)
    phi = Mat.zero(base, rank)
    for a in range(rank):
        phi.rows[a][a] = base.from_k(braid.smul(c0 - weights[a]))
    for th in thetas:
        cj = rng.randrange(-4, 5)
        if cj:
            phi = phi + th.mul_scalar(base.from_k(braid.smul(cj)))
    return HiggsData(base, flavor, thetas, phi, twist=twist)


def sample_group(cfg, rng, d, geometric=False):
    """A random group element; geometric restricts to c = 0, chi = 1."""
    p = cfg.p
    n = tuple(rng.randrange(p**4) for _ in range(d))
    if geometric:
        return GroupElt(cfg, n, 0, 1)
    return GroupElt(cfg, n, rng.randrange(p**4), 1 + p * rng.randrange(p**3))


def default_specs(max_rank=3, max_d=2):
    """(flavor, rank, d, twist) tuples covering the supported shapes."""
    out = []
    for rank in range(1, max_rank + 1):
        for twist in ("log", "smooth"):
            out.append(("abs-arith", rank, 0, twist))
        for d in range(1, max_d + 1):
            for twist in ("log", "smooth"):
                out.append(("abs-geom", rank, d, twist))
            out.append(("rel-geom", rank, d, "log"))
    return out


def corpus(base, seed, specs=None):
    """Deterministic list of sample modules for a base ring."""
    if specs is None:
        specs = default_specs()
    rng = random.Random(seed)
    return [
        sample_higgs(base, rng, flavor=f, rank=r, d=d, twist=t) for (f, r, d, t) in specs
    ]
