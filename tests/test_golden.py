"""Byte-for-byte comparison against the recorded golden outputs.

The files under ``tests/golden/`` come from ``tests/make_golden.py``; a
failure here means a visible output changed.  If the change is intended,
regenerate them with that script and review the diff; ``tests/golden_diff.py``
sorts each changed scalar by whether it gains or loses digits and agrees.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from golden_diff import classify
from make_golden import GOLDEN, container_cases, run_case, scalar_chains, snf_cases, witt_cases

from htlab import make_base_config
from htlab.serialize import k_from_json, k_to_json

MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["case"] for e in MANIFEST])
def test_lab_canonical_output_unchanged(entry):
    path = GOLDEN / "inputs" / f"{entry['input']}.json"
    stdout, code, exc = run_case(CliRunner(), entry["args"], path)
    assert exc == entry["exception"]
    assert code == entry["exit_code"]
    _assert_same_text(stdout, f"{entry['case']}.json")


def test_no_lab_command_crashes():
    assert all(e["exception"] is None for e in MANIFEST)


MISSING = "<absent>"


def json_changes(old, new, path="$"):
    """(path, old value, new value) for each leaf where two JSON documents differ.

    Paths read like ``$.p5.pd[31].faces[0].truncated``.  A key or list item
    present on one side only is reported once, with MISSING on the other.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            sub = f"{path}.{k}"
            if k not in new:
                yield sub, old[k], MISSING
            elif k not in old:
                yield sub, MISSING, new[k]
            else:
                yield from json_changes(old[k], new[k], sub)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            sub = f"{path}[{i}]"
            if i >= len(new):
                yield sub, old[i], MISSING
            elif i >= len(old):
                yield sub, MISSING, new[i]
            else:
                yield from json_changes(old[i], new[i], sub)
    elif old != new or type(old) is not type(new):
        yield path, old, new


def _short(value, width=120):
    text = json.dumps(value) if value is not MISSING else value
    return text if len(text) <= width else text[: width - 3] + "..."


def _assert_same_text(got, name, shown=20):
    # a short report: pytest's own diff of two large strings takes minutes
    __tracebackhide__ = True
    want = Path(GOLDEN / name).read_text()
    if got == want:
        return
    try:
        changes = list(json_changes(json.loads(want), json.loads(got)))
    except json.JSONDecodeError:
        changes = []
    if changes:
        lines = [f"  {p}: {_short(a)} -> {_short(b)}" for p, a, b in changes[:shown]]
        more = f"\n  ... and {len(changes) - shown} more" if len(changes) > shown else ""
        pytest.fail(f"{name}: {len(changes)} changed JSON paths (golden -> now)\n" + "\n".join(lines) + more)
    # same JSON, different text: a formatting or key-order change
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(at - 80, 0)
    pytest.fail(f"{name} differs at char {at}: got {got[lo : at + 80]!r}, want {want[lo : at + 80]!r}")


def test_json_changes_names_each_changed_path():
    old = {"a": [1, {"t": False}, 3], "b": "x", "gone": 1}
    new = {"a": [1, {"t": True}], "b": "x", "added": [2]}
    assert list(json_changes(old, new)) == [
        ("$.a[1].t", False, True),
        ("$.a[2]", 3, MISSING),
        ("$.added", MISSING, [2]),
        ("$.gone", 1, MISSING),
    ]
    # 1 and 1.0, or 0 and false, print differently, so they differ here too
    assert list(json_changes([1, 0], [1.0, False])) == [("$[0]", 1, 1.0), ("$[1]", 0, False)]


def test_scalar_chains_unchanged():
    _assert_same_text(json.dumps(scalar_chains(), indent=1, sort_keys=True) + "\n", "scalars.json")


def test_container_kernels_unchanged():
    _assert_same_text(json.dumps(container_cases(), sort_keys=True) + "\n", "containers.json")


def test_smith_reduction_unchanged():
    _assert_same_text(json.dumps(snf_cases(), sort_keys=True) + "\n", "snf.json")


def test_witt_vectors_unchanged():
    _assert_same_text(json.dumps(witt_cases(), sort_keys=True) + "\n", "witt.json")


# the bases of the golden files, by the name of a top-level key or the file
# name up to its first "-"
GOLDEN_BASES = {"p5": (5, [-5], 1), "p2e2": (2, [-2, 0], 1), "p3e2": (3, [-3, 0], 1), "p3f2": (3, [-3], 2), "p3": (3, [-3], 1)}


def _scalar_records(doc):
    """Every {"coeffs", "prec", "shift"} record of a JSON document."""
    if isinstance(doc, dict):
        if doc.keys() == {"coeffs", "prec", "shift"}:
            yield doc
            return
        for v in doc.values():
            yield from _scalar_records(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _scalar_records(v)


def test_every_golden_scalar_reads_back():
    """k_from_json reads each scalar htlab wrote, no-digit zeros included,
    and gives back the same record, which claims at most N digits."""
    cfgs = {name: make_base_config(p, E, f=f) for name, (p, E, f) in GOLDEN_BASES.items()}
    seen = 0
    for path in sorted(GOLDEN.rglob("*.json")):
        doc = json.loads(path.read_text())
        parts = doc.items() if path.name in ("scalars.json", "containers.json", "snf.json") else [(path.name, doc)]
        for name, part in parts:
            for rec in _scalar_records(part):
                cfg = cfgs[name.split("-")[0]]
                assert int(rec["prec"]) - int(rec["shift"]) <= cfg.N, (path.name, name, rec)
                assert k_to_json(k_from_json(cfg, rec)) == rec, (path.name, name, rec)
                seen += 1
    assert seen > 20000


def _rec(u, prec, shift=0):
    return {"coeffs": [str(u)], "prec": str(prec), "shift": str(shift)}


def test_golden_diff_sorts_each_kind_of_change():
    """One synthetic record per class at p = 5, read off the top-level key,
    and one at p = 3, read off the file name; shifts are aligned before the
    coordinates are compared."""
    old = {
        "p5": {
            "gains": _rec(3, 2),            # 3 mod 5^2 becomes 53 mod 5^8
            "loses": _rec(1, 8, 1),         # 1/5 at A = 7 becomes 5/25 at A = 6
            "same": _rec(7, 1),             # 7 and 2 agree mod 5
            "differs": _rec(3, 8),
            "kept": _rec(4, 8),
            "gone": [_rec(1, 8)],
        },
        "checks": {"a": _rec(4, 2), "status": "pass"},
    }
    new = {
        "p5": {
            "gains": _rec(53, 8),
            "loses": _rec(5, 8, 2),
            "same": _rec(2, 1),
            "differs": _rec(4, 8),
            "kept": _rec(4, 8),
            "gone": [],
            "added": 1,
        },
        "checks": {"a": _rec(1, 1), "status": "fail"},
    }
    got = classify(old, new, "p3-synthetic.json")
    assert got == {
        "gains digits and agrees": ["/p5/gains"],
        # 4 and 1 agree mod 3, not mod 5: p comes from the file name here
        "loses digits and agrees": ["/checks/a", "/p5/loses"],
        "same claim": ["/p5/same"],
        "disagrees": ["/p5/differs"],
        "structural": ["/checks/status", "/p5", "/p5/gone"],
    }
