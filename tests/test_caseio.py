import json

import pytest

from oracles import operating_cost
from scucnr.caseio import (CaseFormatError, CaseIOError, CaseValidationError,
                           case_from_dict, case_to_dict, load_solution,
                           parse_case, write_case, write_report)
from scucnr.cli import main
from scucnr.orchestrator import SolveOptions, solve


def test_parse_triangle_fixture_file(tri3, tmp_path):
    path = tmp_path / "tri3.json"
    write_case(tri3, path)
    parsed = parse_case(path)
    assert len(parsed.buses) == 3
    assert len(parsed.branches) == 3
    assert len(parsed.generators) == 2
    assert parsed == tri3


def test_roundtrip_is_idempotent(tri3, c4_high, star, tmp_path):
    for i, case in enumerate((tri3, c4_high, star)):
        p1 = tmp_path / f"case{i}_a.json"
        p2 = tmp_path / f"case{i}_b.json"
        write_case(case, p1)
        once = parse_case(p1)
        write_case(once, p2)
        assert parse_case(p2) == once == case
        assert p1.read_bytes() == p2.read_bytes()


def test_generator_on_unknown_bus_is_named(tri3, tmp_path):
    doc = case_to_dict(tri3)
    doc["generators"][0]["bus"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CaseValidationError) as err:
        parse_case(path)
    msg = str(err.value)
    assert "generator 1" in msg and "99" in msg


def test_short_demand_profile_is_named(tri3, tmp_path):
    doc = case_to_dict(tri3)
    doc["horizon"] = 2
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CaseValidationError) as err:
        parse_case(path)
    assert "bus 1" in str(err.value)
    assert "expected horizon 2" in str(err.value)


def _nan_demand(doc):
    doc["buses"][1]["demand"][0] = float("nan")
    return "bus 2", "demand[1]"


def _nan_emergency_rating(doc):
    doc["branches"][0]["rate_emergency"] = float("nan")
    return "branch 1", "rate_emergency"


def _inf_ratings(doc):
    doc["branches"][2]["rate_long_term"] = float("inf")
    doc["branches"][2]["rate_emergency"] = float("inf")
    return "branch 3", "rate_long_term"


@pytest.mark.parametrize("corrupt", [_nan_demand, _nan_emergency_rating, _inf_ratings])
def test_non_finite_numbers_are_named(corrupt, tri3, tmp_path, capsys):
    doc = case_to_dict(tri3)
    entity, field = corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))   # json writes NaN / Infinity literals
    with pytest.raises(CaseValidationError) as err:
        parse_case(path)
    assert f"{entity}: {field} must be a finite number" in str(err.value)
    assert main(["solve", "--case", str(path), "--method", "ad_scuc",
                 "--out", str(tmp_path / "r")]) == 1
    assert field in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"base_mva": 100,\n  "horizon": }')
    with pytest.raises(CaseFormatError) as err:
        parse_case(path)
    assert "line 2" in str(err.value)


def test_unknown_and_missing_fields_rejected(tri3):
    doc = case_to_dict(tri3)
    doc["buses"][0]["voltage"] = 1.0
    with pytest.raises(CaseFormatError, match="voltage"):
        case_from_dict(doc)
    doc = case_to_dict(tri3)
    del doc["branches"][0]["susceptance"]
    with pytest.raises(CaseFormatError, match="susceptance"):
        case_from_dict(doc)


def test_missing_file(tmp_path):
    with pytest.raises(CaseIOError):
        parse_case(tmp_path / "nope.json")


def test_report_files_for_converged_run(tri3, tmp_path):
    res = solve(tri3, SolveOptions(method="ad_scuc"))
    paths = write_report(res.report, res.schedule, tmp_path / "run")
    doc = json.loads(paths["report"].read_text())
    assert doc["iterations"] >= 1
    assert doc["converged"] is True
    assert doc["method"] == "ad_scuc"
    lines = paths["schedule"].read_text().strip().splitlines()
    assert len(lines) == 1 + 2  # header plus one row per generator
    assert lines[0] == "generator,t1"
    timings = json.loads(paths["timings"].read_text())
    assert timings["total"] > 0
    # per-master seconds and nodes, one entry per master, written as lists
    assert len(timings["master_s"]) == len(timings["master_nodes"]) == doc["iterations"]


def test_report_lists_switch_triples(c4_high, tmp_path):
    res = solve(c4_high, SolveOptions(method="td_scuc_cnr"))
    paths = write_report(res.report, res.schedule, tmp_path / "run")
    doc = json.loads(paths["report"].read_text())
    assert doc["switches"] == [{"contingency": 3, "period": 2, "branch": 2}]
    by_pair = {(s["contingency"], s["period"]): s["status"] for s in doc["subproblems"]}
    assert by_pair[(3, 2)] == "feasible_via_switch"


def test_identical_runs_write_identical_bytes(c4_high, tmp_path):
    blobs = []
    for i in range(2):
        res = solve(c4_high, SolveOptions(method="ad_scuc_cnr"))
        paths = write_report(res.report, res.schedule, tmp_path / f"run{i}")
        blobs.append((paths["report"].read_bytes(), paths["schedule"].read_bytes()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]


def test_reported_objective_recomputes_from_emitted_schedule(tri3_tight, tmp_path):
    res = solve(tri3_tight, SolveOptions(method="td_scuc"))
    paths = write_report(res.report, res.schedule, tmp_path / "run")
    doc, schedule = load_solution(paths["report"])
    recomputed = operating_cost(tri3_tight, schedule.u, schedule.v, schedule.p,
                                schedule.generator_ids)
    assert abs(recomputed - doc["objective"]) <= 1e-6
    # the CSV mirrors the commitment/dispatch cells
    lines = paths["schedule"].read_text().strip().splitlines()[1:]
    for line in lines:
        gid, *cells = line.split(",")
        gi = schedule.generator_ids.index(int(gid))
        for t, cell in enumerate(cells):
            u_str, p_str = cell.split(":")
            assert int(u_str) == schedule.u[gi, t]
            assert float(p_str) == pytest.approx(schedule.p[gi, t], abs=5e-7)


def test_unwritable_path_raises(tri3, tmp_path):
    res = solve(tri3, SolveOptions(method="ad_scuc"))
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    with pytest.raises(CaseIOError):
        write_report(res.report, res.schedule, blocker / "nested")


def test_load_solution_requires_solution_block(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"method": "td_scuc", "solution": None}))
    with pytest.raises(CaseFormatError):
        load_solution(path)


def _set(section, field, value):
    def corrupt(doc):
        target = doc if section is None else doc[section][0]
        target[field] = value
        return f"{section}[0].{field}" if section else f"case.{field}"
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _set("buses", "id", "a"),
    _set("branches", "rate_emergency", None),
    _set("generators", "id", 1.7),
    _set(None, "horizon", 2.9),
    _set("branches", "reconfigurable", "false"),
    _set("generators", "bus", True),
    _set("buses", "reference", 1),
], ids=["string_id", "null_rating", "fractional_id", "fractional_horizon",
        "string_flag", "bool_bus", "numeric_flag"])
def test_wrong_json_types_are_named_not_coerced(corrupt, tmp_path, capsys):
    from scucnr.fixtures import random_case
    doc = case_to_dict(random_case(5, n_buses=6, n_generators=3, horizon=2))
    location = corrupt(doc)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CaseFormatError) as err:
        parse_case(path)
    assert location in str(err.value)
    assert main(["solve", "--case", str(path), "--method", "td_scuc",
                 "--out", str(tmp_path / "r")]) == 1
    assert location in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_integral_floats_are_accepted_as_ids(tri3):
    doc = case_to_dict(tri3)
    doc["horizon"] = 1.0
    doc["branches"][0]["id"] = 1.0
    assert case_from_dict(doc) == tri3
