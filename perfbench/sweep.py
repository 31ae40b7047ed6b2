"""Run the benchmark over several seeds and workloads into one result set.

    python3 perfbench/sweep.py --out results.jsonl [--workloads a,b] [--seeds 0-9] [--trace 0|1]

Each run is a fresh ``perfbench/run.py`` process, one after the other, with
the run length fixed in BENCHMARK.json.  The full record of every run is
appended to ``--out``; read it with ``perfbench/compare.py``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,7,11")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    out = str(Path(args.out).resolve())
    for name in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace), "--out", out,
            ]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            last = res.stdout.strip().splitlines()[-1:] or [""]
            print(f"{name} seed {seed}: exit {res.returncode} {last[0][:160]}", flush=True)
            if res.returncode != 0:
                print(res.stderr, file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
