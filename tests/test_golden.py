"""Byte-for-byte comparison against the recorded golden outputs.

The files under ``tests/golden/`` come from ``tests/make_golden.py``; a
failure here means a visible output changed.  If the change is intended,
regenerate them with that script and review the diff.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from make_golden import GOLDEN, container_cases, run_case, scalar_chains, snf_cases, witt_cases

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
