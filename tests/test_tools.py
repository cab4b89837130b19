import dataclasses
import importlib.util
import json
from pathlib import Path

from scucnr import SolveOptions, SolverError
from scucnr.fixtures import triangle3


def load_ladder():
    path = Path(__file__).resolve().parents[1] / "tools" / "report_ladder.py"
    spec = importlib.util.spec_from_file_location("report_ladder", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_records_a_failing_run_and_carries_on(tmp_path, monkeypatch):
    ladder = load_ladder()
    case = triangle3()
    runs = [("broken", case, SolveOptions(method="td_scuc")),
            ("fine", case, SolveOptions(method="td_scuc"))]
    monkeypatch.setattr(ladder, "ladder", lambda: iter(runs))
    solve = ladder.solve

    def flaky(case, options):
        if not flaky.called:
            flaky.called = True
            raise SolverError("master solve ended with status limit")
        return solve(case, options)

    flaky.called = False
    monkeypatch.setattr(ladder, "solve", flaky)
    assert ladder.run(tmp_path) == 2
    broken = json.loads((tmp_path / "broken" / "td_scuc" / "verify.json").read_text())
    assert broken == {"verdict": "error", "message": "master solve ended with status limit"}
    assert not (tmp_path / "broken" / "td_scuc" / "report.json").exists()
    fine = json.loads((tmp_path / "fine" / "td_scuc" / "verify.json").read_text())
    assert fine["verdict"] == "secure"
    assert (tmp_path / "fine" / "td_scuc" / "report.json").exists()


def write_run(root, report, verify):
    run = root / "case" / "td_scuc"
    run.mkdir(parents=True)
    (run / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    (run / "schedule.csv").write_text("generator,t1\n1,1:80.000000\n")
    (run / "verify.json").write_text(json.dumps(verify, indent=2, sort_keys=True) + "\n")


def synthetic_report(p=80.0, objective=1000.0, iterations=2, nr_pcfc_solved=0):
    return {
        "status": "converged", "converged": True, "iterations": iterations,
        "cuts_total": 1, "objective": objective, "switches": [], "unresolved": [],
        "iteration_log": [{"iteration": 1, "muc_objective": objective, "candidates": 1,
                           "screened_out": 0, "pcfc_solved": 1, "pcfc_infeasible": 0,
                           "nr_pcfc_solved": nr_pcfc_solved, "switches_found": 0,
                           "cuts_added": 0}],
        "subproblems": [{"contingency": 2, "period": 1, "status": "feasible",
                         "slack": 0.0, "switch": None}],
        "solution": {"u": [[1]], "v": [[1]], "p": [[p]], "r": [[20.0]],
                     "flow": [[p / 3]], "theta": [[0.0]], "objective": objective},
    }


def test_compare_accepts_float_noise_and_rejects_a_changed_decision(tmp_path, capsys):
    ladder = load_ladder()
    verify = {"verdict": "secure", "pairs_checked": 1, "violations": []}
    write_run(tmp_path / "parent", synthetic_report(), verify)
    write_run(tmp_path / "noise", synthetic_report(p=80.0 + 1e-12, objective=1000.0 + 1e-9),
              verify)
    write_run(tmp_path / "decided", synthetic_report(iterations=3), verify)
    write_run(tmp_path / "counted", synthetic_report(nr_pcfc_solved=1), verify)

    assert ladder.main(["--compare", str(tmp_path / "parent"), str(tmp_path / "noise")]) == 0
    out = capsys.readouterr().out
    assert "case/td_scuc: bytes differ in report.json" in out
    assert "p 9.95e-13, r 0, flow 3.3e-13" in out
    assert "1 runs compared, 0 decide differently" in out

    assert ladder.main(["--compare", str(tmp_path / "parent"), str(tmp_path / "decided")]) == 1
    out = capsys.readouterr().out
    assert "case/td_scuc: decisions differ" in out
    assert "1 runs compared, 1 decide differently" in out

    assert ladder.main(["--compare", str(tmp_path / "parent"), str(tmp_path / "counted")]) == 1
    out = capsys.readouterr().out
    assert "case/td_scuc: decisions differ" in out


def test_ladder_records_and_compares_a_broken_base_case(tmp_path, capsys, monkeypatch):
    ladder = load_ladder()
    runs = [("case", triangle3(), SolveOptions(method="td_scuc"))]
    monkeypatch.setattr(ladder, "ladder", lambda: iter(runs))
    verify = ladder.verify_solution
    broken = {"parent": "row 3 of 'muc' in period 1 is broken by 1",
              "change": "row 5 of 'muc' in period 1 is broken by 2"}
    for side, reason in broken.items():
        monkeypatch.setattr(ladder, "verify_solution", lambda case, result, reason=reason:
                            dataclasses.replace(verify(case, result), base_case=reason))
        ladder.run(tmp_path / side)
        written = json.loads((tmp_path / side / "case" / "td_scuc" / "verify.json").read_text())
        assert written["verdict"] == "insecure" and written["base_case"] == reason
    capsys.readouterr()

    # the two ladders differ only in why the base case is broken
    assert ladder.main(["--compare", str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    out = capsys.readouterr().out
    assert "case/td_scuc: decisions differ" in out
    assert "bytes differ in verify.json" in out
