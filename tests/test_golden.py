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
    assert stdout == (GOLDEN / f"{entry['case']}.json").read_text()


def test_no_lab_command_crashes():
    assert all(e["exception"] is None for e in MANIFEST)


def _assert_same_text(got, name):
    # a short report: pytest's own diff of two large strings takes minutes
    want = Path(GOLDEN / name).read_text()
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(at - 80, 0)
        pytest.fail(f"{name} differs at char {at}: got {got[lo : at + 80]!r}, want {want[lo : at + 80]!r}")


def test_scalar_chains_unchanged():
    _assert_same_text(json.dumps(scalar_chains(), indent=1, sort_keys=True) + "\n", "scalars.json")


def test_container_kernels_unchanged():
    _assert_same_text(json.dumps(container_cases(), sort_keys=True) + "\n", "containers.json")


def test_smith_reduction_unchanged():
    _assert_same_text(json.dumps(snf_cases(), sort_keys=True) + "\n", "snf.json")


def test_witt_vectors_unchanged():
    _assert_same_text(json.dumps(witt_cases(), sort_keys=True) + "\n", "witt.json")
