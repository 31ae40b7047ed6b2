"""Run one htlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout; htlab is imported from its ``src``
directory and from nowhere else.  The next-to-last line of standard output
is the full record (``{"record": ...}``: failures by cause, sample counts,
environment stamp); ``--out`` also appends that record to a JSON-lines file.
The last line is the summary ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics.  Exits 2 without a summary when the checkout has no
htlab sources.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    sys.path.insert(0, str(HERE))
    from workloads import SETUPS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this JSON-lines file")
    return ap.parse_args(argv)


def main():
    args = parse_args(sys.argv[1:])
    if not (ROOT / "src" / "htlab" / "__init__.py").is_file():
        print(f"no htlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # pinned so that the traced call counts repeat exactly
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    record = harness.run(args.workload, args.seed, args.seconds, args.trace, ROOT)
    print(json.dumps({"record": record}))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
