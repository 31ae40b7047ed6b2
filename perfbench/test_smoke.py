"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is reported with its unit,
that a wrong answer (built here, never in src/) is counted as a failed op,
and that the benchmark refuses to run where there are no htlab sources.
"""

import cProfile
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_declared_metrics_match_the_harness():
    assert _units("end_to_end") == harness.END_TO_END
    assert _units("per_layer") == harness.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.SETUPS)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", list(workloads.SETUPS))
def test_timed_run_reports_every_end_to_end_metric(name):
    res = _run("--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", "0")
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert got == harness.END_TO_END
    assert all(v["value"] > 0 for v in summary["metrics"].values())


def test_layer_metrics_cover_every_per_layer_name(tmp_path):
    wl = workloads.setup_lab_descriptors(0, str(tmp_path), {})
    wl.write_files()
    prof = cProfile.Profile()
    prof.enable()
    for i, op in enumerate(wl.ops[:9]):
        harness.Tally().add(op, i)
    prof.disable()
    got = harness.layer_metrics(prof.getstats())
    assert set(got) == set(harness.PER_LAYER)
    assert got["cli.calls"] > 0 and got["serialize.parse_s"] > 0


def _good_and_wrong_ops():
    """A real cohomology op, and the same op with its answer doctored."""
    from htlab import ChartRing, build_higgs_complex, cohomology_all, make_base_config, sample_higgs

    base = ChartRing(make_base_config(5, [-5], precision=8), "point")
    h = sample_higgs(base, random.Random(2), "rel-geom", rank=2, d=1)
    rep = build_higgs_complex(h)

    def good():
        return workloads.check_cohomology(cohomology_all(rep), rep.ranks)

    def wrong():
        groups = cohomology_all(rep)
        groups[0] = dict(groups[0], free_rank=groups[0]["free_rank"] + 1)
        return workloads.check_cohomology(groups, rep.ranks)

    return workloads.Op("coh:p5/good", good), workloads.Op("coh:p5/wrong", wrong)


def test_wrong_answer_counts_in_fail_rate():
    good, wrong = _good_and_wrong_ops()
    assert good.run() == ("pass", None)
    wl = workloads.Workload([good, wrong], block=2, warmup=0)
    tally, lat, busy = harness.timed_phase(wl, 0.2, [])
    assert len(lat) >= 2 and tally.executions == len(lat)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.causes == {"unexplained": 1}
    assert not tally.correct
    values = harness.end_to_end(tally, lat, busy, [0.1])
    assert values["ok_rate"] == 0.5


def test_every_op_is_checked_once_whatever_the_time():
    calls = []

    def op(k):
        return workloads.Op(f"toy:{k}", lambda: calls.append(k) or ("pass", None))

    wl = workloads.Workload([op(k) for k in range(5)], block=5, warmup=1)
    tally, lat, busy = harness.timed_phase(wl, 0.0, [])
    assert lat == []  # no time: every op runs in the untimed remainder
    assert sorted(set(calls)) == [0, 1, 2, 3, 4]
    assert (tally.attempted, tally.executions) == (5, 6)


def test_op_whose_answer_changes_between_executions_is_unstable():
    answers = iter([("pass", None), ("limited", None)])
    op = workloads.Op("toy:flaky", lambda: next(answers))
    tally = harness.Tally()
    tally.add(op, 0)
    tally.add(op, 0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.unstable == ["toy:flaky: pass then limited"]
    assert not tally.correct


def test_exception_counts_as_failed_op_without_aborting():
    def boom():
        raise ZeroDivisionError("planted")

    tally = harness.Tally()
    tally.add(workloads.Op("toy:boom", boom), 0)
    tally.add(_good_and_wrong_ops()[0], 1)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.unexplained == ["toy:boom: ZeroDivisionError: planted"]


def test_lab_oracle_rejects_a_false_fail_and_a_missing_report():
    report = json.dumps({"checks": {"cocycle_law": {"status": "fail"}}})
    assert workloads.check_lab_report("cocycle", 1, report)[0] == "wrong"
    assert workloads.check_lab_report("stratify", 1, "Traceback ...")[0] == "wrong"
    assert workloads.check_lab_report("cohomology", 3, "{}")[0] == "wrong"
    ok = json.dumps({"checks": {"cohomology": {"status": "undecided"}}})
    assert workloads.check_lab_report("cohomology", 2, ok) == ("limited", None)


def test_known_defects_are_attributed_only_to_their_signature():
    crash = "AttributeError: 'ChartElem' object has no attribute 'num'"
    assert workloads.known_cause("lab:cohomology:p5/chart/abs-geom/r2/d1/log", crash)
    assert workloads.known_cause("lab:cohomology:p5/point/abs-geom/r2/d1/log", crash) is None
    assert workloads.known_cause("lab:cocycle:p5/point/abs-geom/r2/d1/log", "wrong: cocycle_law fail") is None


def test_known_defect_far_above_its_baseline_rate_is_incorrect():
    def crash():
        raise AttributeError("'ChartElem' object has no attribute 'num'")

    def wrong_law():
        return "wrong", "cocycle_law fail"

    def passes():
        return "pass", None

    def tally(failing, total):
        t = harness.Tally()
        for k in range(total):
            label = f"lab:cocycle:p5/chart/abs-geom/r2/d1/log/{k}"
            t.add(workloads.Op(label, wrong_law if k < failing else passes), k)
        return t

    at_baseline = tally(3, 150)
    assert at_baseline.causes == {"chart-cocycle-law": 3} and at_baseline.correct
    ten_times = tally(30, 150)
    assert ten_times.over_allowance == ["chart-cocycle-law"] and not ten_times.correct
    # a cause that fails on every op it matches stays within its allowance
    every = harness.Tally()
    for k in range(50):
        every.add(workloads.Op(f"lab:cohomology:p5/chart/abs-geom/r2/d1/log/{k}", crash), k)
    assert every.causes == {"chart-cohomology-crash": 50} and every.correct


def test_refuses_to_run_without_htlab_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "corpus-grouplaw", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert res.returncode != 0
    assert res.stdout == ""
