import dataclasses
import json
import sys

import pytest

import scucnr.model
from scucnr.caseio import write_case
from scucnr.cli import main
from scucnr.fixtures import corridor4, corridor4_high, triangle3
from scucnr.model import validate_case


@pytest.fixture
def tri3_file(tmp_path):
    path = tmp_path / "tri3.json"
    write_case(triangle3(), path)
    return path


@pytest.fixture
def hi_file(tmp_path):
    path = tmp_path / "corridor4_hi.json"
    write_case(corridor4_high(), path)
    return path


def test_solve_converged_writes_reports(tri3_file, tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["solve", "--case", str(tri3_file), "--method", "ad_scuc",
                 "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "schedule.csv").exists()
    assert (out / "timings.json").exists()
    assert "status=converged" in capsys.readouterr().out


def test_solve_infeasible_exits_2(hi_file, tmp_path, capsys):
    code = main(["solve", "--case", str(hi_file), "--method", "td_scuc",
                 "--out", str(tmp_path / "r")])
    assert code == 2
    assert "no feasible schedule" in capsys.readouterr().err


def test_solve_with_switching_succeeds_where_plain_fails(hi_file, tmp_path):
    out = tmp_path / "cnr"
    code = main(["solve", "--case", str(hi_file), "--method", "td_scuc_cnr",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["switches"] == [{"contingency": 3, "period": 2, "branch": 2}]


def test_cbce_size_is_the_switch_budget(hi_file, tmp_path):
    # --cbce-size reaches the switch search: 5 ranked lines hold the rescue,
    # 0 turns switching off, and no enumeration flag is left
    out = tmp_path / "five"
    code = main(["solve", "--case", str(hi_file), "--method", "td_scuc_cnr",
                 "--out", str(out), "--cbce-size", "5"])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["switches"] == [{"contingency": 3, "period": 2, "branch": 2}]
    assert main(["solve", "--case", str(hi_file), "--method", "td_scuc_cnr",
                 "--out", str(tmp_path / "none"), "--cbce-size", "0"]) == 2
    assert main(["solve", "--case", str(hi_file), "--method", "td_scuc_cnr",
                 "--out", str(tmp_path / "enum"), "--enumerate"]) == 1


def test_unswitchable_network_exits_2(tmp_path):
    # external corridor rated below the load: no switch plan can save the
    # direct-line outage, so even the switching method proves infeasibility
    case_file = tmp_path / "dead.json"
    write_case(corridor4((80.0, 130.0), external_emergency=80.0), case_file)
    code = main(["solve", "--case", str(case_file), "--method", "td_scuc_cnr",
                 "--out", str(tmp_path / "r")])
    assert code == 2


def test_iteration_cap_exits_3(hi_file, tmp_path, capsys):
    code = main(["solve", "--case", str(hi_file), "--method", "td_scuc",
                 "--max-iter", "1", "--out", str(tmp_path / "r")])
    assert code == 3
    assert "without converging" in capsys.readouterr().err


def test_verify_clean_run(tri3_file, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["solve", "--case", str(tri3_file), "--method", "ad_scuc",
                 "--out", str(out)]) == 0
    code = main(["verify", "--case", str(tri3_file),
                 "--result", str(out / "report.json")])
    assert code == 0
    assert "secure" in capsys.readouterr().out


def test_each_command_validates_its_case_once(tri3_file, tmp_path, monkeypatch):
    # parse_case checks types only; solve and verify_schedule validate
    validate, calls = scucnr.model.validate_case, []

    def counted(case):
        calls.append(case)
        return validate(case)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "scucnr" and getattr(module, "validate_case", None) is validate:
            monkeypatch.setattr(module, "validate_case", counted)
    out = tmp_path / "runs"
    assert main(["solve", "--case", str(tri3_file), "--method", "ad_scuc",
                 "--out", str(out)]) == 0
    assert len(calls) == 1
    assert main(["verify", "--case", str(tri3_file),
                 "--result", str(out / "report.json")]) == 0
    assert len(calls) == 2


def test_verify_tampered_schedule_exits_3(tmp_path, capsys):
    from scucnr.fixtures import triangle3_tight
    case_file = tmp_path / "tight.json"
    write_case(triangle3_tight(), case_file)
    out = tmp_path / "runs"
    assert main(["solve", "--case", str(case_file), "--method", "td_scuc",
                 "--out", str(out)]) == 0
    report_path = out / "report.json"
    doc = json.loads(report_path.read_text())
    gpos = doc["solution"]["generator_ids"].index(2)
    gpos1 = doc["solution"]["generator_ids"].index(1)
    moved = doc["solution"]["p"][gpos][0]
    doc["solution"]["p"][gpos][0] = 0.0
    doc["solution"]["p"][gpos1][0] += moved
    report_path.write_text(json.dumps(doc))
    code = main(["verify", "--case", str(case_file), "--result", str(report_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "contingency 1" in err and "period 1" in err


def _idle_dispatch(doc):
    doc["solution"]["u"] = [[1] * len(row) for row in doc["solution"]["u"]]
    doc["solution"]["p"] = [[0.0] * len(row) for row in doc["solution"]["p"]]
    return doc


def _negative_output(doc):
    doc["solution"]["p"][0][0] = -1.0
    return doc


@pytest.mark.parametrize("tamper", [_idle_dispatch, _negative_output],
                         ids=["idle_dispatch", "negative_output"])
def test_verify_flags_a_schedule_that_breaks_the_base_case(tamper, tri3_file, tmp_path,
                                                           capsys):
    # every outage stays survivable, so only the base-case rows catch these
    out = tmp_path / "runs"
    assert main(["solve", "--case", str(tri3_file), "--method", "ad_scuc",
                 "--out", str(out)]) == 0
    report_path = out / "report.json"
    report_path.write_text(json.dumps(tamper(json.loads(report_path.read_text()))))
    capsys.readouterr()
    code = main(["verify", "--case", str(tri3_file), "--result", str(report_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert "violation: base case:" in captured.err and "in period 1" in captured.err
    assert "secure" not in captured.out


def test_verify_rejects_report_without_method(tri3_file, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["solve", "--case", str(tri3_file), "--method", "ad_scuc_cnr",
                 "--out", str(out)]) == 0
    report_path = out / "report.json"
    doc = json.loads(report_path.read_text())
    del doc["method"]
    report_path.write_text(json.dumps(doc))
    code = main(["verify", "--case", str(tri3_file), "--result", str(report_path)])
    assert code == 1
    assert "no known method" in capsys.readouterr().err


@pytest.mark.parametrize("iterations", [None, "x"])
def test_verify_ignores_the_iterations_field(iterations, hi_file, tmp_path, capsys):
    # the audit needs only the method and the schedule
    out = tmp_path / "runs"
    assert main(["solve", "--case", str(hi_file), "--method", "ad_scuc_cnr",
                 "--out", str(out)]) == 0
    report_path = out / "report.json"
    doc = json.loads(report_path.read_text())
    doc["iterations"] = iterations
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--case", str(hi_file), "--result", str(report_path)])
    assert code == 0
    assert "secure" in capsys.readouterr().out


def test_usage_errors_exit_1(tri3_file, capsys):
    assert main(["solve", "--case", str(tri3_file)]) == 1          # missing --method
    assert main(["solve", "--case", str(tri3_file), "--method", "bogus"]) == 1
    assert main(["solve", "--nonsense"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag, value, message", [
    ("--workers", "0", "workers"),
    ("--cbce-size", "-1", "cbce_size"),
    ("--max-iter", "0", "max_iterations"),
    ("--milp-gap", "-1", "milp_gap"),
])
def test_out_of_range_options_exit_1(flag, value, message, tri3_file, tmp_path, capsys):
    code = main(["solve", "--case", str(tri3_file), "--method", "ad_scuc",
                 "--out", str(tmp_path / "r"), flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert not (tmp_path / "r").exists()


def test_slack_threshold_is_not_an_option(hi_file, tmp_path, capsys):
    # a capped td_scuc run leaves the unsurvivable pair (3, 2) in its
    # schedule; a looser slack threshold could once call that schedule secure
    out = tmp_path / "r"
    assert main(["solve", "--case", str(hi_file), "--method", "td_scuc",
                 "--max-iter", "1", "--out", str(out)]) == 3
    files = {p: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    verify = ["verify", "--case", str(hi_file), "--result", str(out / "report.json")]
    assert main(verify) == 3
    assert "contingency 3 period 2" in capsys.readouterr().err
    assert main(verify + ["--slack-tol", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --slack-tol 1" in captured.err
    assert {p: p.read_bytes() for p in out.iterdir()} == files


def test_missing_case_file_exits_1(tmp_path, capsys):
    code = main(["solve", "--case", str(tmp_path / "ghost.json"),
                 "--method", "ad_scuc"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_help_lists_flags_with_defaults(capsys):
    assert main(["solve", "--help"]) == 0
    text = capsys.readouterr().out
    for flag in ("--case", "--method", "--out", "--cbce-size",
                 "--max-iter", "--milp-gap", "--workers"):
        assert flag in text
    assert "--enumerate" not in text
    assert "--slack-tol" not in text
    assert "50" in text      # max-iter default
    assert "20" in text      # cbce-size default


def test_gen_fixture_roundtrip(tmp_path, capsys):
    target = tmp_path / "gen" / "case7.json"
    code = main(["gen-fixture", "--seed", "7", "--out", str(target)])
    assert code == 0
    assert target.exists()
    again = tmp_path / "case7b.json"
    assert main(["gen-fixture", "--seed", "7", "--out", str(again)]) == 0
    assert target.read_bytes() == again.read_bytes()
    other = tmp_path / "case8.json"
    assert main(["gen-fixture", "--seed", "8", "--out", str(other)]) == 0
    assert other.read_bytes() != target.read_bytes()
    code = main(["solve", "--case", str(target), "--method", "ad_scuc",
                 "--out", str(tmp_path / "r")])
    assert code in (0, 2, 3)  # generated cases are valid input regardless


def test_same_args_same_outputs(hi_file, tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"rep{i}"
        code = main(["solve", "--case", str(hi_file), "--method", "ad_scuc_cnr",
                     "--out", str(out)])
        assert code == 0
        outs.append(((out / "report.json").read_bytes(),
                     (out / "schedule.csv").read_bytes()))
    assert outs[0] == outs[1]


def _solved_report(case_file, tmp_path):
    out = tmp_path / "runs"
    assert main(["solve", "--case", str(case_file), "--method", "td_scuc",
                 "--out", str(out)]) == 0
    return out / "report.json"


def _truncated_p(doc):
    doc["solution"]["p"] = [row[:1] for row in doc["solution"]["p"]]
    return doc


def _ragged_p(doc):
    doc["solution"]["p"][1] = doc["solution"]["p"][1][:1]
    return doc


def _wide_u(doc):
    doc["solution"]["u"] = [[1] * 5 for _ in range(3)]
    return doc


def _fractional_u(doc):
    doc["solution"]["u"][1][0] = 0.5
    return doc


def _nan_p(doc):
    doc["solution"]["p"][0][0] = float("nan")
    return doc


@pytest.mark.parametrize("tamper, message", [
    (lambda doc: [doc], "must be a JSON object"),
    (_truncated_p, "solution.p has shape (2, 1), expected (2, 2)"),
    (_ragged_p, "solution.p is missing or not a rectangular array"),
    (_wide_u, "solution.u has shape (3, 5), expected (2, 2)"),
    (_fractional_u, "solution.u[1][0]"),
    (_nan_p, "solution.p[0][0] is nan, expected a finite number"),
], ids=["array", "truncated_p", "ragged_p", "wide_u", "fractional_u", "nan_p"])
def test_verify_rejects_report_that_does_not_fit_case(tamper, message, tmp_path, capsys):
    case_file = tmp_path / "tri3_T2.json"
    write_case(triangle3((80.0, 60.0)), case_file)
    report_path = _solved_report(case_file, tmp_path)
    report_path.write_text(json.dumps(tamper(json.loads(report_path.read_text()))))
    capsys.readouterr()
    code = main(["verify", "--case", str(case_file), "--result", str(report_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert message in captured.err and f"error: {report_path}: " in captured.err
    assert "secure" not in captured.out


def test_verify_rejects_report_from_another_case(tri3_file, hi_file, tmp_path, capsys):
    report_path = _solved_report(tri3_file, tmp_path)
    capsys.readouterr()
    code = main(["verify", "--case", str(hi_file), "--result", str(report_path)])
    assert code == 1
    assert (f"error: {report_path}: solution.generator_ids [1, 2] do not match the "
            "case's [1, 2, 3]") in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, name", [
    ("--buses", "0", "n_buses"),
    ("--buses", "1", "n_buses"),
    ("--buses", "2", "n_buses"),
    ("--buses", "-3", "n_buses"),
    ("--generators", "0", "n_generators"),
    ("--horizon", "0", "horizon"),
])
def test_gen_fixture_rejects_sizes_it_cannot_build(flag, value, name, tmp_path, capsys):
    target = tmp_path / "case.json"
    code = main(["gen-fixture", "--seed", "7", "--out", str(target), flag, value])
    assert code == 1
    assert name in capsys.readouterr().err
    assert not target.exists()


def test_gen_fixture_smallest_sizes_are_kept(tmp_path, capsys):
    target = tmp_path / "small.json"
    assert main(["gen-fixture", "--seed", "7", "--out", str(target), "--buses", "3",
                 "--generators", "1", "--horizon", "1"]) == 0
    doc = json.loads(target.read_text())
    assert (len(doc["buses"]), len(doc["generators"]), doc["horizon"]) == (3, 1, 1)


def test_zero_susceptance_parallel_twin_exits_1(tmp_path, capsys):
    # a twin at zero susceptance closes a cycle in the graph but can carry no
    # flow; the case is rejected before any solve, with the branch named
    base = triangle3()
    twin = dataclasses.replace(base.branches[0], id=9, susceptance=0.0)
    case = dataclasses.replace(base, branches=base.branches + (twin,))
    assert [(v.kind, v.entity) for v in validate_case(case)] == [("susceptance", "branch 9")]
    path = tmp_path / "twin.json"
    write_case(case, path)
    out = tmp_path / "r"
    assert main(["solve", "--case", str(path), "--method", "td_scuc", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "branch 9" in err and "susceptance" in err
    assert "Traceback" not in err
    assert not out.exists()
