"""Summarise one result set, or compare two, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl [CHANGE.jsonl]

Result sets are the JSON-lines files that ``perfbench/sweep.py`` (or
``run.py --out``) writes.  For each workload and each metric the median and
quartiles of every side are printed.  With one set, the spread (quartile
distance over median) is checked against the metric's bound.  With two, each
end-to-end metric gets a verdict by the rule of the choosing-metrics guide:

- ``improved``: the change wins at least 9/10 of the runs paired by seed, and
  the medians differ by more than the parent's quartile distance;
- ``no worse``: the change's median is no worse than the parent's by more
  than the bound, and both spreads are within the bound;
- ``regressed``: the change's median is worse by more than the bound;
- ``unresolved``: anything else, such as a spread wider than the bound.

Per-layer counts are compared for exact equality; per-layer times have no
bound and are only summarised.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def values(recs, name):
    return [r["metrics"][name]["value"] for r in recs]


def by_seed(recs, name):
    out = {}
    for r in recs:
        out.setdefault(r["seed"], r["metrics"][name]["value"])
    return out


def verdict(metric, recs_a, recs_b):
    """Verdict for an end-to-end metric between two lists of run records."""
    name = metric["name"]
    sign = 1 if metric["better"] == "higher" else -1
    bound = metric["bound"]
    va, vb = values(recs_a, name), values(recs_b, name)
    q1a, ma, q3a = quartiles(va)
    _, mb, _ = quartiles(vb)
    a, b = by_seed(recs_a, name), by_seed(recs_b, name)
    seeds = sorted(set(a) & set(b))
    pairs = [(a[s], b[s]) for s in seeds] if seeds else list(zip(va, vb))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mb - ma) > q3a - q1a:
        return "improved"
    if sign * (mb - ma) < -bound * abs(ma):
        return "regressed"
    if max(spread(va), spread(vb)) > bound:
        if all(sign * (y - x) > 0 for x in va for y in vb):
            return "improved"
        return "unresolved"
    return "no worse"


def fmt(x):
    return f"{x:.6g}"


def report(sets):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    counts = {m["name"] for m in bench["per_layer"] if m["unit"] == "count"}
    keys = sorted(set().union(*sets))
    ok = True
    for workload, trace in keys:
        sides = [s.get((workload, trace), []) for s in sets]
        if not all(sides):
            print(f"\n{workload} trace={trace}: missing from one side")
            continue
        n = " vs ".join(str(len(s)) for s in sides)
        print(f"\n{workload} trace={trace} ({n} runs)")
        names = list(sides[0][0]["metrics"])
        for name in names:
            cols = []
            for recs in sides:
                q1, med, q3 = quartiles(values(recs, name))
                cols.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]")
            unit = sides[0][0]["metrics"][name]["unit"]
            line = f"  {name:28s} {unit:6s} " + "  |  ".join(cols)
            if name in e2e and len(sides) == 1:
                sp = spread(values(sides[0], name))
                steady = sp <= e2e[name]["bound"]
                line += f"  spread {sp:.3f} / bound {e2e[name]['bound']}" + ("" if steady else "  TOO WIDE")
                ok = ok and steady
            elif name in e2e:
                line += "  " + verdict(e2e[name], *sides)
            elif name in counts and len(sides) == 1:
                repeats = _repeats(sides[0], name)
                line += "  repeats" if repeats else "  VARIES AT ONE SEED"
                ok = ok and repeats
            elif name in counts:
                a, b = (by_seed(recs, name) for recs in sides)
                common = set(a) & set(b)
                same = all(a[s] == b[s] for s in common)
                line += "  no common seed" if not common else "  equal" if same else "  differs"
            print(line)
        print("  correct: " + " | ".join(f"{all(r['correct'] for r in recs)}" for recs in sides)
              + "   failed/attempted: " + " | ".join(
                  f"{sum(r['failed'] for r in recs)}/{sum(r['attempted'] for r in recs)}" for recs in sides))
    return ok


def _repeats(recs, name):
    seen = {}
    for r in recs:
        seen.setdefault(r["seed"], set()).add(r["metrics"][name]["value"])
    return all(len(v) == 1 for v in seen.values())


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    ok = report([load(p) for p in sys.argv[1:]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
