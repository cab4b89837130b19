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
