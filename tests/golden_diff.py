"""Sort the changes between two versions of a golden JSON file.

    python tests/golden_diff.py tests/golden/containers.json [REV]

compares the file in the working tree with its version at the git revision
REV (HEAD when omitted).  Every scalar record ({coeffs, prec, shift}, the
stored form p^-shift * sum_i c_i pi^i of htlab.serialize) that changed in
place is sorted into one of four classes:

* "gains digits and agrees": the new record claims more absolute digits
  A = prec - shift, and the two agree at the lesser A;
* "loses digits and agrees": it claims fewer, and they agree there;
* "same claim": one A, and they agree at it (a stored form that differs
  only where neither claims a digit);
* "disagrees": the two differ at the lesser A.

Agreement is read coordinate by coordinate on the basis pi^i g^j: each pair
of coordinates, aligned at the larger shift S, is congruent mod p^(A + S);
a record with no digit (A < 1) agrees with anything.  p is the number after
the leading "p" of the record's top-level key (containers.json, scalars.json,
snf.json and witt.json hold one part per base, named as "p2e2" or
"p3f2e1") or, failing that, of the file name.  Every other change (a key
added or removed, a string, a number or a list length that differs, a
scalar record whose coefficients change shape) is listed as structural.

The script prints the count of each class, then one line per change with
its class and its path in the document.  It reads the file and git only,
and imports nothing from htlab.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

CLASSES = ("gains digits and agrees", "loses digits and agrees", "same claim", "disagrees", "structural")


def _is_record(x):
    return isinstance(x, dict) and x.keys() == {"coeffs", "prec", "shift"}


def _coordinates(coeffs):
    """The coordinates of a record on pi^i g^j, or None if not ints or lists of ints."""
    out = []
    for c in coeffs:
        for x in c if isinstance(c, list) else [c]:
            if not isinstance(x, str):
                return None
            out.append(int(x))
    return out


def _shape(coeffs):
    return [len(c) if isinstance(c, list) else None for c in coeffs]


def classify_record(old, new, p):
    """The class of a changed scalar record, "structural" if the coefficients change shape."""
    if not isinstance(old["coeffs"], list) or not isinstance(new["coeffs"], list):
        return "structural"
    a_old, a_new = _coordinates(old["coeffs"]), _coordinates(new["coeffs"])
    if a_old is None or a_new is None or _shape(old["coeffs"]) != _shape(new["coeffs"]):
        return "structural"
    s_old, s_new = int(old["shift"]), int(new["shift"])
    A_old, A_new = int(old["prec"]) - s_old, int(new["prec"]) - s_new
    A = min(A_old, A_new)
    if A >= 1:
        S = max(s_old, s_new)
        M = p ** (A + S)
        if any((y * p ** (S - s_new) - x * p ** (S - s_old)) % M for x, y in zip(a_old, a_new)):
            return "disagrees"
    if A_new > A_old:
        return "gains digits and agrees"
    if A_new < A_old:
        return "loses digits and agrees"
    return "same claim"


def _prime(name):
    m = re.match(r"p(\d+)", name)
    return int(m.group(1)) if m else None


def classify(old, new, name=""):
    """{class: [path, ...]} of every change from the document old to new.

    name is the file name, which gives p where the top-level key does not.
    A path is the list of keys and indices from the root, written with /.
    """
    out = {c: [] for c in CLASSES}
    default = _prime(Path(name).name)

    def walk(x, y, path, p):
        where = "/" + "/".join(map(str, path))
        if _is_record(x) and _is_record(y):
            if x != y:
                if p is None:
                    raise ValueError(f"{where}: no prime in the key or the file name {name!r}")
                out[classify_record(x, y, p)].append(where)
        elif isinstance(x, dict) and isinstance(y, dict) and not _is_record(x) and not _is_record(y):
            if x.keys() != y.keys():
                out["structural"].append(where)
            for k in x.keys() & y.keys():
                walk(x[k], y[k], path + [k], p if path else _prime(k) or default)
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for i, (a, b) in enumerate(zip(x, y)):
                walk(a, b, path + [i], p)
        elif x != y:
            out["structural"].append(where)

    walk(old, new, [], default)
    for paths in out.values():
        paths.sort()
    return out


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    path = Path(argv[1])
    rev = argv[2] if len(argv) == 3 else "HEAD"
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, check=True)
    rel = path.resolve().relative_to(Path(top.stdout.strip()))
    old = json.loads(subprocess.run(["git", "show", f"{rev}:{rel.as_posix()}"], capture_output=True, text=True, check=True).stdout)
    new = json.loads(path.read_text())
    found = classify(old, new, path.name)
    print(f"{path} against {rev}:")
    for c in CLASSES:
        print(f"  {len(found[c]):6d}  {c}")
    for c in CLASSES:
        for where in found[c]:
            print(f"{c}: {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
