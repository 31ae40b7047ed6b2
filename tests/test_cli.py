import json
import random
import time
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from htlab import base, deltaring
from htlab.chart import ChartRing
from htlab.cli import main
from htlab.deltaring import teichmuller
from htlab.higgs import HiggsData
from htlab.linalg import Mat
from htlab.samples import sample_higgs
from htlab.serialize import dump_higgs, higgs_to_json


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def point(cfg_u5):
    return ChartRing(cfg_u5, "point")


def _write(tmp_path, name, h):
    path = tmp_path / name
    dump_higgs(h, str(path))
    return str(path)


def _diag(base, entries):
    n = len(entries)
    m = Mat.zero(base, n)
    for i, c in enumerate(entries):
        m.rows[i][i] = base.from_int(c)
    return m


def test_check_passes_on_valid_module(runner, point, tmp_path):
    h = sample_higgs(point, random.Random(1), "abs-geom", rank=2, d=1)
    path = _write(tmp_path, "ok.json", h)
    res = runner.invoke(main, ["check", path])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert all(c["status"] == "pass" for c in doc["checks"].values())


def test_check_fails_on_broken_braiding(runner, point, tmp_path):
    th = Mat(point, [[point.from_int(0), point.from_int(1)], [point.from_int(0), point.from_int(0)]])
    h = HiggsData(point, "abs-geom", [th], _diag(point, [0, 7]))
    path = _write(tmp_path, "bad.json", h)
    res = runner.invoke(main, ["check", path])
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["checks"]["validate"]["status"] == "fail"
    assert "BraidFailure" in doc["checks"]["validate"]["detail"]


def test_check_undecided_on_unit_theta(runner, point, tmp_path):
    th = Mat(point, [[point.from_int(1)]])
    h = HiggsData(point, "rel-geom", [th], None)
    path = _write(tmp_path, "und.json", h)
    res = runner.invoke(main, ["check", path])
    assert res.exit_code == 2
    doc = json.loads(res.output)
    assert doc["checks"]["validate"]["status"] == "undecided"
    res2 = runner.invoke(main, ["check", path, "--strict"])
    assert res2.exit_code == 1


def test_check_parse_failure(runner, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("...")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 1
    assert json.loads(res.output)["checks"]["parse"]["status"] == "fail"


def test_cohomology_two_term_diagonal(runner, point, tmp_path):
    h = HiggsData(point, "abs-arith", [], _diag(point, [0, 5]))
    path = _write(tmp_path, "diag.json", h)
    res = runner.invoke(main, ["cohomology", path])
    assert res.exit_code == 0, res.output
    table = json.loads(res.output)["artifacts"]["table"]
    assert table["H0"] == {"free_rank": "1", "torsion": [], "precision_limited": False}
    assert table["H1"] == {"free_rank": "1", "torsion": ["1"], "precision_limited": False}


def test_stratify_artifact_keys(runner, point, tmp_path):
    h = sample_higgs(point, random.Random(3), "abs-geom", rank=2, d=1)
    path = _write(tmp_path, "s.json", h)
    res = runner.invoke(main, ["stratify", path, "--pd-cutoff", "3"])
    assert res.exit_code == 0, res.output
    art = json.loads(res.output)["artifacts"]
    assert art["D"] == "3"
    keys = set(art["coeffs"])
    assert "0:0" in keys and "3:0" in keys and "0:3" in keys
    assert "4:0" not in keys
    ident = art["coeffs"]["0:0"]
    assert ident[0][0]["coeffs"] == ["1"] and ident[0][1]["coeffs"] == ["0"]


def test_cocycle_identity_artifact(runner, point, tmp_path):
    h = sample_higgs(point, random.Random(4), "abs-geom", rank=2, d=1)
    path = _write(tmp_path, "c.json", h)
    res = runner.invoke(main, ["cocycle", path, "--samples", "4", "--seed", "2"])
    assert res.exit_code == 0, res.output
    art = json.loads(res.output)["artifacts"]
    ident = art["identity_matrix"]
    assert list(ident[0][0]) == ["0"] and ident[0][0]["0"]["coeffs"] == ["1"]
    assert list(ident[0][1]) == []
    assert len(art["pairs"]) == 4
    assert all(p["ok"] for p in art["pairs"])


def test_cocycle_relative_uses_geometric_elements(runner, point, tmp_path):
    h = sample_higgs(point, random.Random(5), "rel-geom", rank=2, d=2)
    path = _write(tmp_path, "rel.json", h)
    res = runner.invoke(main, ["cocycle", path, "--samples", "3"])
    assert res.exit_code == 0, res.output
    for pair in json.loads(res.output)["artifacts"]["pairs"]:
        assert pair["s"]["c"] == "0"


def test_factorize_teichmuller_unit_empty_factors(runner, cfg_u5, tmp_path):
    t = teichmuller(cfg_u5, 2)
    doc = {"config": cfg_u5.to_json(), "unit": str(t.w)}
    path = tmp_path / "u.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["factorize", str(path)])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)["artifacts"]["results"][0]
    assert out["factors"] == []
    assert out["residue"] == "2"


def test_factorize_rejects_non_unit(runner, cfg_u5, tmp_path):
    doc = {"config": cfg_u5.to_json(), "units": ["10", "3"]}
    path = tmp_path / "u.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["factorize", str(path)])
    assert res.exit_code == 1
    results = json.loads(res.output)["artifacts"]["results"]
    assert results[0]["status"] == "fail"
    assert results[1]["status"] == "pass"


def test_canonical_reports_are_byte_stable(runner, point, tmp_path):
    h = sample_higgs(point, random.Random(6), "abs-geom", rank=2, d=1)
    path = _write(tmp_path, "d.json", h)
    outs = set()
    for _ in range(2):
        res = runner.invoke(main, ["cocycle", path, "--canonical", "--samples", "2", "--seed", "9"])
        assert res.exit_code == 0
        outs.add(res.output)
    assert len(outs) == 1
    assert "timing_ms" not in outs.pop()


def test_output_file_written(runner, point, tmp_path):
    h = sample_higgs(point, random.Random(7), "abs-arith", rank=1, d=0)
    path = _write(tmp_path, "m.json", h)
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["cohomology", path, "--canonical", "-o", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["command"] == "cohomology"


def test_cohomology_on_chart_base_reports_fail(runner, cfg_u5, tmp_path):
    chart = ChartRing(cfg_u5, "chart", d=1, r=1)
    h = sample_higgs(chart, random.Random(8), "abs-geom", rank=2, d=1)
    path = _write(tmp_path, "chart.json", h)
    res = runner.invoke(main, ["cohomology", path, "--canonical"])
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["checks"]["complex"]["status"] == "pass"
    assert doc["checks"]["cohomology"]["status"] == "fail"
    assert "point base" in doc["checks"]["cohomology"]["detail"]


def _factorize_report(runner, cfg, units, tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"config": cfg.to_json(), "units": units}))
    res = runner.invoke(main, ["factorize", str(path), "--canonical"])
    assert res.exception is None or isinstance(res.exception, SystemExit)
    return res.exit_code, json.loads(res.output)


def test_factorize_rejects_wrong_width(runner, cfg_u5, tmp_path):
    code, doc = _factorize_report(runner, cfg_u5, ["3", [1, 2]], tmp_path)
    assert code == 1
    assert doc["checks"]["parse"]["status"] == "fail"
    assert "expected one integer" in doc["checks"]["parse"]["detail"]


def test_factorize_rejects_non_integer(runner, cfg_u5, tmp_path):
    code, doc = _factorize_report(runner, cfg_u5, ["abc"], tmp_path)
    assert code == 1
    assert doc["checks"]["parse"]["status"] == "fail"
    assert "not an integer" in doc["checks"]["parse"]["detail"]


def test_factorize_rejects_nested_value(runner, cfg_f2, tmp_path):
    code, doc = _factorize_report(runner, cfg_f2, [["1", "2"], [[1], [2]]], tmp_path)
    assert code == 1
    assert doc["checks"]["parse"]["status"] == "fail"
    assert "not an integer" in doc["checks"]["parse"]["detail"]


def test_in_process_runs_release_their_streams(runner, point, tmp_path):
    import gc
    import io

    def wrappers():
        gc.collect()
        return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())

    h = sample_higgs(point, random.Random(9), "abs-arith", rank=1, d=0)
    path = _write(tmp_path, "r.json", h)
    runner.invoke(main, ["check", path, "--canonical"])
    before = wrappers()
    for _ in range(3):
        res = runner.invoke(main, ["check", path, "--canonical"])
        assert res.exit_code == 0
    assert wrappers() == before


LAB_COMMANDS = ("check", "stratify", "cohomology", "cocycle", "factorize")
GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _parse_fail_detail(runner, command, path, *args):
    res = runner.invoke(main, [command, str(path), *args, "--canonical"])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["command"] == command
    assert doc["checks"]["parse"]["status"] == "fail"
    return doc["checks"]["parse"]["detail"]


def _descriptor_with_config(tmp_path, point, **config):
    """A module descriptor that also lists units, so every command can read it."""
    h = sample_higgs(point, random.Random(3), "abs-geom", rank=2, d=1)
    doc = higgs_to_json(h)
    doc["units"] = ["3"]
    doc["config"].update(config)
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command", LAB_COMMANDS)
def test_non_object_descriptor_reports_parse_fail(runner, tmp_path, command):
    for text in ("[1]", '"x"', "3"):
        path = tmp_path / "desc.json"
        path.write_text(text)
        assert "expected an object" in _parse_fail_detail(runner, command, path)


@pytest.mark.parametrize("command", LAB_COMMANDS)
def test_config_with_non_prime_p_reports_parse_fail(runner, point, tmp_path, command):
    path = _descriptor_with_config(tmp_path, point, p="4")
    assert "NotPrime" in _parse_fail_detail(runner, command, path)


@pytest.mark.parametrize("command", LAB_COMMANDS)
def test_config_with_non_eisenstein_e_reports_parse_fail(runner, point, tmp_path, command):
    path = _descriptor_with_config(tmp_path, point, E_coeffs=["-25"])
    assert "NotEisenstein" in _parse_fail_detail(runner, command, path)


@pytest.mark.parametrize(
    "config, detail",
    [
        ({"p": "1000000007", "f": "2", "E_coeffs": ["-1000000007"]}, "f > 1 needs p^f <= 10^6"),
        ({"p": "1000000000000000003"}, "NotEisenstein"),
        ({"p": "3317044064679887385961981"}, "out of the range of the primality test"),
    ],
    ids=["p=10^9+7,f=2", "p=10^18+3", "p=psi_13"],
)
def test_a_huge_p_is_a_parse_fail_at_once(runner, tmp_path, config, detail):
    """A golden input with a huge p written into its config: the modulus
    search is bounded and the primality test is Miller-Rabin, so lab check
    gives the parse report within a second."""
    doc = json.loads((GOLDEN_INPUTS / "p5-point-abs-geom-d1-log.json").read_text())
    doc["config"].update(config)
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert detail in _parse_fail_detail(runner, "check", path)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("field", ["N", "e*f", "D", "T", "Dy", "n_max"])
def test_a_config_past_a_limit_is_a_parse_fail(runner, tmp_path, field):
    """A golden input with one config field one past its limit: lab check
    gives the parse report, naming the field and the limit."""
    top = {"N": base.MAX_N, "e*f": base.MAX_EF, **base.MAX_CUTOFFS}[field]
    doc = json.loads((GOLDEN_INPUTS / "p5-point-abs-geom-d1-log.json").read_text())
    if field == "N":
        doc["config"]["N"] = str(top + 1)
    elif field == "e*f":
        doc["config"]["E_coeffs"] = ["-5"] + ["0"] * top
    else:
        doc["config"]["cutoffs"][field] = str(top + 1)
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(doc))
    name = {"N": "precision N", "e*f": "degree e * f"}.get(field, f"cutoff {field}")
    assert f"{name} = {top + 1} is above its limit {top}" in _parse_fail_detail(runner, "check", path)


@pytest.mark.parametrize("horizon", ["-1", "-2", "-7"])
def test_factorize_rejects_negative_horizon(runner, tmp_path, horizon):
    path = GOLDEN_INPUTS / "p5-units.json"
    assert "--horizon" in _parse_fail_detail(runner, "factorize", path, "--horizon", horizon)


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_cocycle_rejects_samples_below_one(runner, point, tmp_path, samples):
    h = sample_higgs(point, random.Random(4), "abs-geom", rank=2, d=1)
    path = _write(tmp_path, "c.json", h)
    assert "--samples" in _parse_fail_detail(runner, "cocycle", path, "--samples", samples)


def test_factorize_builds_each_factor_once(runner, monkeypatch):
    # phi is applied once to the unit and once per factor: 4 units pass, horizon N - 1 = 7
    calls = []
    real = deltaring.frobenius
    monkeypatch.setattr(deltaring, "frobenius", lambda x, k=1: calls.append(k) or real(x, k))
    res = runner.invoke(main, ["factorize", str(GOLDEN_INPUTS / "p3f2-units.json"), "--canonical"])
    results = json.loads(res.output)["artifacts"]["results"]
    assert [r["status"] for r in results].count("pass") == 4
    assert len(calls) == 4 * (1 + 7)


def test_factorize_horizon_past_the_precision_builds_nothing_more(runner):
    # factors from i = N on are 1 at the precision the certificate verifies
    path = str(GOLDEN_INPUTS / "p5-units.json")

    def report(horizon):
        t0 = time.perf_counter()
        res = runner.invoke(main, ["factorize", path, "--canonical", "--horizon", str(horizon)])
        return json.loads(res.output), time.perf_counter() - t0

    short, _ = report(7)
    long, seconds = report(1000)
    assert short["artifacts"].pop("horizon") == "7"
    assert long["artifacts"].pop("horizon") == "1000"
    assert long == short
    assert seconds < 0.5


def test_factorize_at_a_huge_horizon_builds_no_padding(runner):
    # the factors from i = N on are left out rather than listed as ones, so
    # a horizon of 10^6 costs what N - 1 does
    path = str(GOLDEN_INPUTS / "p5-units.json")
    t0 = time.perf_counter()
    res = runner.invoke(main, ["factorize", path, "--canonical", "--horizon", str(10**6)])
    seconds = time.perf_counter() - t0
    short = runner.invoke(main, ["factorize", path, "--canonical", "--horizon", "7"])
    huge, want = json.loads(res.output), json.loads(short.output)
    assert huge["artifacts"].pop("horizon") == str(10**6)
    assert want["artifacts"].pop("horizon") == "7"
    assert (res.exit_code, huge) == (short.exit_code, want)
    assert seconds < 0.5


@pytest.mark.parametrize("command", ["check", "stratify", "cocycle", "cohomology"])
def test_a_negative_shift_reports_as_its_shift_zero_spelling(runner, tmp_path, command):
    # phi[0][1] = 35, as 35 at N = 8 digits, as 5^1 * 7 (shift -1, so 9
    # digits) and as 35 at 9 and at 12 digits: each claim is capped at N
    doc = json.loads((GOLDEN_INPUTS / "p5-point-abs-arith-d0-smooth.json").read_text())
    reports = []
    spellings = [("35", "8", "0"), ("7", "8", "-1"), ("35", "9", "0"), ("35", "12", "0")]
    for coeff, prec, shift in spellings:
        rec = {"coeffs": [coeff], "prec": prec, "shift": shift}
        doc["phi"][0][1] = rec
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, [command, str(path), "--canonical"])
        reports.append((res.exit_code, res.output))
    assert reports[1:] == reports[:-1]
    assert reports[0][0] == 0, reports[0][1]


def test_check_on_a_ramified_base_builds_no_witt_config(runner, monkeypatch):
    # the only kernels compiled are those of the descriptor's own config (e = 2, n = 2)
    calls = []
    real = base._kernels
    monkeypatch.setattr(base, "_kernels", lambda n, table: calls.append(n) or real(n, table))
    res = runner.invoke(main, ["check", str(GOLDEN_INPUTS / "p2e2-point-rel-geom-d1-log.json"), "--canonical"])
    assert res.exit_code in (0, 2), res.output
    assert calls == [2]


def _on_chart(exps):
    """An edit that moves the descriptor onto a chart with one Laurent variable and
    writes phi[0][0] as a single term with these exponents."""

    def edit(doc):
        doc["base"] = {"mode": "chart", "d": "1", "r": "0"}
        doc["phi"][0][0] = {"terms": [{"exps": exps, "coeff": doc["phi"][0][0]}]}

    return edit


def _repeat_first_term(doc):
    terms = doc["phi"][0][0]["terms"]
    terms.append(dict(terms[0]))


def _zero_first_term(doc):
    doc["phi"][0][0]["terms"][0]["coeff"] = {"coeffs": ["0"], "prec": "8", "shift": "0"}


# one edit each to a valid module descriptor; all are rejected before the first check
MALFORMED = {
    "ragged-theta-row": lambda doc: doc["theta"][0][0].pop(),
    "theta-not-square": lambda doc: doc["theta"][0].append(doc["theta"][0][0]),
    "phi-wrong-size": lambda doc: doc.update(phi=[[doc["phi"][0][0]]]),
    "unknown-flavor": lambda doc: doc.update(flavor="abs-nope"),
    "unknown-twist": lambda doc: doc.update(twist="nope"),
    "scalar-prec-0": lambda doc: doc["phi"][0][0].update(prec="0"),
    "scalar-prec-negative": lambda doc: doc["theta"][0][1][1].update(prec="-2"),
    "rank-disagrees": lambda doc: doc.update(rank="3"),
    # integer fields take an int or a decimal string, never a float or a bool
    "scalar-coeff-float": lambda doc: doc["phi"][0][0].update(coeffs=[30.7]),
    "scalar-coeff-bool": lambda doc: doc["theta"][0][0][1].update(coeffs=[True]),
    "scalar-prec-float": lambda doc: doc["phi"][1][1].update(prec=8.0),
    "scalar-shift-bool": lambda doc: doc["phi"][0][1].update(shift=False),
    "chart-exps-float": _on_chart(["0", 1.5]),
    "rank-float": lambda doc: doc.update(rank=2.0),
    "config-N-float": lambda doc: doc["config"].update(N=8.7),
    "config-p-float": lambda doc: doc["config"].update(p=5.0),
    "config-cutoff-bool": lambda doc: doc["config"]["cutoffs"].update(T=True),
    "chart-d-float": lambda doc: (_on_chart(["0", "0"])(doc), doc["base"].update(d=1.9)),
    # a chart term is checked whatever its coefficient, and written once
    "chart-monomial-repeated": lambda doc: (_on_chart(["0", "1"])(doc), _repeat_first_term(doc)),
    "chart-zero-term-exps-long": lambda doc: (_on_chart(["0", "0", "0"])(doc), _zero_first_term(doc)),
    "chart-zero-term-exps-negative": lambda doc: (_on_chart(["-1", "0"])(doc), _zero_first_term(doc)),
    "chart-r-bool": lambda doc: (_on_chart(["0", "0"])(doc), doc["base"].update(r=True)),
    # integral takes a JSON boolean, and nothing that only looks like one
    "integral-string": lambda doc: doc.update(integral="false"),
    "integral-int": lambda doc: doc.update(integral=1),
    "integral-null": lambda doc: doc.update(integral=None),
}


def test_integer_fields_read_ints_and_decimal_strings(runner, tmp_path):
    # the controls of the float and bool edits above: the same fields, well typed
    doc = json.loads((GOLDEN_INPUTS / "p5-point-abs-geom-d1-log.json").read_text())
    want = runner.invoke(main, ["stratify", str(GOLDEN_INPUTS / "p5-point-abs-geom-d1-log.json"), "--canonical"])
    doc["phi"][0][0].update(coeffs=[30], prec=8, shift="+0")
    doc["config"].update(N=8, p="5")
    doc["config"]["cutoffs"].update(D=5)
    doc.update(rank=2)
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["stratify", str(path), "--canonical"])
    assert res.exit_code == want.exit_code == 0
    assert res.output == want.output
    _on_chart(["0", "0"])(doc)
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["stratify", str(path), "--canonical"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("command", ("check", "stratify", "cohomology", "cocycle"))
@pytest.mark.parametrize("mutation", sorted(MALFORMED))
def test_malformed_module_descriptor_reports_parse_fail(runner, tmp_path, mutation, command):
    doc = json.loads((GOLDEN_INPUTS / "p5-point-abs-geom-d1-log.json").read_text())
    MALFORMED[mutation](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    _parse_fail_detail(runner, command, path)


@pytest.mark.parametrize("command", ("check", "stratify", "cohomology", "cocycle"))
def test_a_repeated_chart_monomial_is_a_parse_fail(runner, tmp_path, command):
    # a copy of theta's one term, which would otherwise overwrite it
    doc = json.loads((GOLDEN_INPUTS / "p5-chart-rel-geom-d1-log.json").read_text())
    terms = doc["theta"][0][0][1]["terms"]
    assert len(terms) == 1
    terms.append(dict(terms[0]))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    res = runner.invoke(main, [command, str(path), "--canonical", "-o", str(out)])
    assert res.exit_code == 1, res.output
    checks = json.loads(out.read_text())["checks"]
    assert list(checks) == ["parse"] and checks["parse"]["status"] == "fail"


@pytest.mark.parametrize("command", LAB_COMMANDS)
def test_output_file_holds_the_parse_report(runner, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text("[1]")
    out = tmp_path / "report.json"
    res = runner.invoke(main, [command, str(path), "--canonical", "-o", str(out)])
    assert res.exit_code == 1
    assert out.read_text() == res.output
    assert json.loads(out.read_text())["checks"]["parse"]["status"] == "fail"


OPTION_SURFACE = {
    "check": [
        ("--precision", None),
        ("--pd-cutoff", None),
        ("--t-order", None),
        ("--strict", False),
        ("--canonical", False),
        ("-o/--output", None),
    ],
    "stratify": [("--precision", None), ("--pd-cutoff", None), ("--canonical", False), ("-o/--output", None)],
    "cohomology": [("--precision", None), ("--strict", False), ("--canonical", False), ("-o/--output", None)],
    "cocycle": [
        ("--precision", None),
        ("--pd-cutoff", None),
        ("--t-order", None),
        ("--samples", 8),
        ("--seed", 0),
        ("--canonical", False),
        ("-o/--output", None),
    ],
    "factorize": [("--precision", None), ("--horizon", None), ("--canonical", False), ("-o/--output", None)],
}


def test_each_command_keeps_its_option_surface():
    arguments = {
        name: [p.name for p in cmd.params if isinstance(p, click.Argument)]
        for name, cmd in main.commands.items()
    }
    options = {
        name: [("/".join(p.opts), p.default) for p in cmd.params if isinstance(p, click.Option)]
        for name, cmd in main.commands.items()
    }
    assert arguments == {name: ["descriptor"] for name in LAB_COMMANDS}
    assert options == OPTION_SURFACE
