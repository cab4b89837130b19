"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import tracing
from tracing import Span

sc = run.load_program()


def span(name, start, end, parent=None, thread=0, **attrs):
    return Span(name, parent, thread, start, end, attrs)


def test_union_length_merges_overlaps_and_skips_empty():
    assert tracing.union_length([(1, 4), (3, 6), (8, 9), (5, 5)]) == 6
    assert tracing.union_length([]) == 0


def test_self_time_subtracts_union_of_children_on_any_thread():
    root = span("orchestrator.solve", 0, 10)
    a = span("subproblems.solve_pcfc", 1, 4, root)
    grand = span("backend.solve_lp", 2, 3, a)
    b = span("subproblems.solve_pcfc", 3, 6, root, thread=1)
    c = span("backend.solve_milp", 8, 9, root)
    selfs = tracing.self_times([root, a, grand, b, c])
    assert selfs[id(root)] == 4          # children cover [1, 6] and [8, 9]
    assert selfs[id(a)] == 2
    assert selfs[id(grand)] == 1
    assert selfs[id(b)] == 3
    assert selfs[id(c)] == 1
    # the overlap of a and b ([3, 4]) is the excess over the root's wall time
    assert sum(selfs.values()) - root.duration == 1


def _serial_solve():
    root = span("orchestrator.solve", 0.0, 10.0, method="td_scuc", iterations=2, cuts=1)
    spans = [root,
             span("network.build_sensitivities", 0.0, 0.5, root),
             span("formulations.build_muc", 0.5, 1.0, root, rows=100),
             span("backend.solve_milp", 1.0, 3.0, root)]
    spans.append(span("backend.milp", 1.5, 2.5, spans[-1], nodes=3, gap=1e-5))
    pcfc = span("subproblems.solve_pcfc", 3.0, 5.0, root, infeasible=1)
    lp = span("backend.solve_lp", 3.5, 4.5, pcfc)
    spans += [pcfc, lp, span("backend.linprog", 3.75, 4.25, lp, iters=7),
              span("formulations.assemble_feasibility_cut", 5.0, 5.5, root),
              span("formulations.build_muc", 5.5, 6.0, root, rows=101),
              span("backend.solve_milp", 6.0, 8.0, root)]
    pcfc2 = span("subproblems.solve_pcfc", 8.0, 9.0, root, infeasible=0)
    spans += [pcfc2, span("backend.solve_lp", 8.2, 8.8, pcfc2)]
    return spans


def test_layer_metrics_on_a_serial_tree_add_up_to_solve_time():
    b = tracing.breakdown(_serial_solve(), solve_s=10.25)
    m = tracing.layer_metrics(b)
    assert m["backend.milp_solves"] == 2 and m["backend.milp_s"] == 4.0
    assert m["backend.milp_engine_s"] == 1.0 and m["backend.milp_nodes"] == 3
    assert m["backend.lp_solves"] == 2 and m["backend.lp_s"] == pytest.approx(1.6)
    assert m["backend.linprog_s"] == 0.5
    assert m["backend.lp_adapter_s"] == pytest.approx(1.1)
    assert m["backend.lp_simplex_iters"] == 7
    assert m["formulations.master_rows"] == 201 and m["formulations.cuts"] == 1
    assert m["formulations.self_s"] == pytest.approx(1.5)   # two builds and a cut
    assert m["subproblems.pcfc_solves"] == 2 and m["subproblems.pcfc_s"] == 3.0
    assert m["subproblems.pcfc_self_s"] == pytest.approx(1.4)
    assert m["subproblems.pcfc_infeasible_rate"] == 0.5
    # layers that did not run read 0; a ratio over an empty base is left out
    assert m["subproblems.screen_calls"] == 0 and m["subproblems.screen_hits"] == 0
    assert "solve:screen_hit_rate" not in b
    assert m["formulations.extensive_rows"] == 0
    assert m["audit.lp_solves"] == 0 and m["audit.lp_s"] == 0
    assert m["orchestrator.iterations"] == 2 and m["orchestrator.cuts_total"] == 1
    assert b["solve:orchestrator.solve_s.td_scuc"] == 10.0
    assert m["orchestrator.self_s"] == pytest.approx(1.0)   # children cover [0, 9]
    assert m["trace.remainder_s"] == pytest.approx(0.25)
    # two iterations of one slave each: busy 2 s in a 2 s window, 1 s in 1 s
    assert b["solve:pcfc_concurrency"] == 1.0
    acc = tracing.accounting(b)
    assert acc["self_sum_s"] + acc["remainder_s"] == pytest.approx(10.25)
    assert acc["parallel_excess_s"] == pytest.approx(0.0)
    assert set(m) == {name for name, _, _, _ in tracing.LAYER_METRICS}


def test_lp_path_metrics_sum_solve_and_audit():
    spans = _serial_solve()
    audit = span("orchestrator.verify_solution", 20.0, 24.0)
    pcfc = span("subproblems.solve_pcfc", 20.0, 23.0, audit, infeasible=1)
    spans += [audit, pcfc, span("backend.solve_lp", 21.0, 22.0, pcfc)]
    m = tracing.layer_metrics(tracing.breakdown(spans, solve_s=10.25))
    assert m["backend.lp_solves"] == 3 and m["backend.lp_s"] == pytest.approx(2.6)
    assert m["audit.lp_solves"] == 1 and m["audit.lp_s"] == 1.0
    assert m["subproblems.pcfc_solves"] == 3
    assert m["subproblems.pcfc_infeasible_rate"] == pytest.approx(2 / 3)
    assert m["orchestrator.self_s"] == pytest.approx(1.0)   # the audit is not solve time


def test_concurrency_and_screen_hit_rate_with_overlapping_workers():
    root = span("orchestrator.solve", 0.0, 6.0, method="ad_scuc_cnr", iterations=1, cuts=0)
    spans = [root, span("backend.solve_milp", 0.0, 1.0, root),
             span("subproblems.run_csps", 1.0, 2.0, root, pairs=10, critical=4)]
    for i, (lo, hi) in enumerate([(2.0, 4.0), (2.0, 3.0), (3.0, 5.0), (4.0, 5.0)]):
        spans.append(span("subproblems.solve_pcfc", lo, hi, root, thread=i % 2,
                          infeasible=int(i == 0)))
    b = tracing.breakdown(spans, solve_s=6.0)
    m = tracing.layer_metrics(b)
    assert b["solve:pcfc_concurrency"] == pytest.approx(6.0 / 3.0)
    assert b["solve:screen_hit_rate"] == 0.25 and m["subproblems.screen_hits"] == 1
    assert m["subproblems.screen_pairs"] == 10
    assert tracing.accounting(b)["parallel_excess_s"] == pytest.approx(3.0)


def test_worker_thread_spans_are_adopted_by_the_waiting_call():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("subproblems.solve_pcfc", lambda x: x)

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(n)))

    root = tracer.wrap("orchestrator.verify_solution", fan_out)
    assert root(6) == list(range(6))
    spans = tracer.take()
    top = [s for s in spans if s.parent is None]
    assert [s.name for s in top] == ["orchestrator.verify_solution"]
    leaves = [s for s in spans if s.name == "subproblems.solve_pcfc"]
    assert len(leaves) == 6 and all(s.parent is top[0] for s in leaves)
    assert all(s.thread != threading.get_ident() for s in leaves)


def test_install_wraps_every_binding_and_restores():
    original = sc.subproblems.solve_pcfc
    with tracing.Installed(tracing.Tracer()) as installed:
        assert installed.missing == []
        assert sc.orchestrator.solve_pcfc is not original
        assert sc.subproblems.solve_pcfc is sc.orchestrator.solve_pcfc
        assert sc.solve_pcfc is sc.orchestrator.solve_pcfc
    assert sc.orchestrator.solve_pcfc is original and sc.solve_pcfc is original


def test_missing_wrapped_name_makes_its_metrics_absent(monkeypatch):
    monkeypatch.delattr(sc.backend, "linprog")
    with tracing.Installed(tracing.Tracer()) as installed:
        pass
    assert installed.missing == ["backend.linprog"]
    absent = tracing.absent_metrics(installed.missing)
    assert {"backend.linprog_s", "backend.lp_adapter_s", "backend.lp_simplex_iters"} == set(absent)


def test_traced_pass_counts_and_spans(tmp_path):
    case_path = tmp_path / "case.json"
    sc.write_case(sc.fixtures.corridor4_low(), case_path)
    checker = run.Checker([{"method": "td_scuc_cnr", "status": "converged"}], 1e-4, pinned=False)
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        times = run.run_pass(sc, case_path, checker, tmp_path / "out")
    m = tracing.layer_metrics(tracing.breakdown(tracer.take(), times["raw_solve_s"]))
    assert checker.failed == 0 and checker.attempted == 2
    assert m["backend.lp_solves"] == m["subproblems.pcfc_solves"] + m["subproblems.nr_pcfc_solves"]
    assert m["model.validate_calls"] == 2      # parse_case and solve each validate
    assert m["trace.remainder_s"] >= 0


def test_wrong_pinned_objective_counts_as_a_failure_not_a_crash(tmp_path):
    case_path = tmp_path / "case.json"
    sc.write_case(sc.fixtures.corridor4_low(), case_path)
    solves = [{"method": "td_scuc", "status": "converged", "objective": 1.0},
              {"method": "ad_scuc", "status": "infeasible", "objective": 1.0}]
    checker = run.Checker(solves, 1e-4, pinned=True)
    run.run_pass(sc, case_path, checker, tmp_path / "out")
    assert checker.attempted == 4
    assert checker.failed == 2                 # both solves; both audits pass
    assert "objective" in checker.breaches[0]
    assert "status converged, pinned infeasible" in checker.breaches[1]


def test_report_bytes_must_repeat_across_passes(tmp_path):
    case_path = tmp_path / "case.json"
    sc.write_case(sc.fixtures.corridor4_low(), case_path)
    checker = run.Checker([{"method": "ad_scuc", "status": "converged"}], 1e-4, pinned=False)
    checker.first_reports["ad_scuc"] = b"not the report"
    run.run_pass(sc, case_path, checker, tmp_path / "out")
    assert checker.failed == 1 and "differs from the first pass" in checker.breaches[0]


def test_pass_times_are_scaled_by_the_probes_around_each_operation(tmp_path, monkeypatch):
    case_path = tmp_path / "case.json"
    sc.write_case(sc.fixtures.corridor4_low(), case_path)
    speeds = iter([1.0, 3.0, 1.0, 3.0, 1.0])      # machine slows and recovers
    monkeypatch.setattr(run.probe, "probe", lambda: next(speeds) * run.probe.REF_S)
    solves = [{"method": "td_scuc", "status": "converged"},
              {"method": "ad_scuc", "status": "converged"}]
    times = run.run_pass(sc, case_path, run.Checker(solves, 1e-4, pinned=False),
                         tmp_path / "out")
    # every operation sits between a probe of 1x and one of 3x: scaled by 1/2
    for name in ("solve_s", "solve_cpu_s", "verify_s"):
        assert times[name] == pytest.approx(times[f"raw_{name}"] / 2)
    assert times["probe_s"] == pytest.approx(1.8 * run.probe.REF_S)


def test_relabel_poses_the_same_problem():
    case = sc.fixtures.random_case(3, 8, 3, 2)
    seeded = run.relabel(case, 11)
    assert [b.id for b in seeded.buses] != [b.id for b in case.buses]
    for ids in ([b.id for b in seeded.buses], [k.id for k in seeded.branches],
                [g.id for g in seeded.generators]):
        assert ids == sorted(set(ids))
    opts = sc.SolveOptions(method="td_scuc_cnr")
    a, b = sc.solve(case, opts), sc.solve(seeded, opts)
    assert a.status == b.status and a.iterations == b.iterations
    assert a.schedule.objective == b.schedule.objective
    assert run.relabel(case, 11) == seeded


def test_summary_reports_the_percentile_with_ten_samples_beyond():
    s = run.summary([float(i) for i in range(20)])
    assert s["n"] == 20 and s["median"] == 9.5 and s["min"] == 0.0
    assert s["high"] == {"percentile": 50.0, "value": 9.0}
    assert run.summary([1.0, 2.0])["high"] is None


def test_combine_takes_medians_and_checks_that_counts_repeat():
    passes = [{"solve:backend.solve_lp.calls": 3, "solve:backend.solve_lp.s": 1.0,
               "solve:backend.milp.nodes": 5},
              {"solve:backend.solve_lp.calls": 3, "solve:backend.solve_lp.s": 3.0,
               "solve:backend.milp.nodes": 6, "solve:pcfc_concurrency": 1.5}]
    out, differ = tracing.combine(passes)
    assert out["solve:backend.solve_lp.calls"] == 3
    assert out["solve:backend.solve_lp.s"] == 2.0
    assert out["solve:backend.milp.nodes"] == 5 and differ == ["solve:backend.milp.nodes"]
    assert out["solve:pcfc_concurrency"] == 0.75    # missing from a pass: 0 there


def test_benchmark_file_lists_the_workloads_and_layer_metrics():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    spec = run.load_spec()
    assert {w["name"] for w in bench["workloads"]} == set(spec["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [m[:3] for m in tracing.LAYER_METRICS]
