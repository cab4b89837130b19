import dataclasses
from collections import Counter

import numpy as np
import pytest

import scucnr.orchestrator
import scucnr.subproblems
from conftest import assert_dropped_pairs_survivable, fixture_family, recorded_screens
from scucnr.backend import SolveResult, SolverError, _hc, solve_milp
from scucnr.caseio import CaseFormatError
from scucnr.fixtures import (corridor4_high, corridor4_low, corridor4_stranded, random_case,
                             triangle3)
from scucnr.formulations import build_muc, extract_solution
from scucnr.network import build_sensitivities
from scucnr.orchestrator import (METHODS, SolveOptions, _examine, solve, verify_schedule,
                                 verify_solution)
from scucnr.subproblems import SLACK_TOLERANCE, OutageRows, solve_pcfc, switch_candidates


def muc_objective(case):
    res = solve_milp(build_muc(case, build_sensitivities(case))[0], gap=1e-9)
    assert res.status == "optimal"
    return res.objective


@pytest.mark.parametrize("method", ["extensive_scuc", "td_scuc"])
def test_both_drivers_share_the_master_step(method, c4_low, monkeypatch):
    # a limit with no incumbent ends either driver with the same error
    monkeypatch.setattr(scucnr.orchestrator, "solve_milp",
                        lambda lp, **_: SolveResult(status="limit", objective=None))
    with pytest.raises(SolverError, match=f"^{method} master solve ended with status limit$"):
        solve(c4_low, SolveOptions(method=method))


def rel_close(a, b, tol=1e-4):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_slack_free_case_converges_immediately(tri3):
    relaxed = dataclasses.replace(
        tri3, branches=tuple(dataclasses.replace(k, rate_emergency=k.rate_emergency * 50)
                             for k in tri3.branches))
    for method in ("td_scuc", "ad_scuc", "td_scuc_cnr", "ad_scuc_cnr"):
        res = solve(relaxed, SolveOptions(method=method))
        assert res.converged
        assert res.iterations == 1
        assert res.cuts == ()
        assert res.schedule.objective == pytest.approx(muc_objective(relaxed), rel=1e-9)


def test_decomposed_methods_match_extensive_oracle():
    for name, case in fixture_family().items():
        ext = solve(case, SolveOptions(method="extensive_scuc", milp_gap=1e-8))
        td = solve(case, SolveOptions(method="td_scuc", milp_gap=1e-8))
        ad = solve(case, SolveOptions(method="ad_scuc", milp_gap=1e-8))
        assert ext.converged and td.converged and ad.converged, name
        assert rel_close(td.schedule.objective, ext.schedule.objective), name
        assert rel_close(ad.schedule.objective, ext.schedule.objective), name


def test_high_load_needs_switching(c4_high):
    plain = solve(c4_high, SolveOptions(method="td_scuc"))
    assert plain.status == "infeasible"
    assert not plain.converged

    for method in ("td_scuc_cnr", "ad_scuc_cnr"):
        res = solve(c4_high, SolveOptions(method=method))
        assert res.converged
        assert res.switches == {(3, 2): 2}  # exactly one recorded switch
        # registry re-validates
        for (c, t), j in res.switches.items():
            check = solve_pcfc(OutageRows(c4_high, build_sensitivities(c4_high), c),
                               res.schedule, t, j)
            assert check.status == "feasible_via_switch"
            assert check.slack <= 1e-6

    ext = solve(c4_high, SolveOptions(method="extensive_scuc_cnr"))
    assert ext.converged
    assert rel_close(ext.schedule.objective,
                     solve(c4_high, SolveOptions(method="td_scuc_cnr")).schedule.objective)


@pytest.mark.parametrize("build", [
    corridor4_low, corridor4_high, corridor4_stranded,
    lambda: random_case(21), lambda: random_case(27),
], ids=["corridor4_low", "corridor4_high", "corridor4_stranded", "random_21", "random_27"])
def test_extensive_switches_are_the_switch_search_switches(build):
    # the extensive CNR model and the switch search share one definition of
    # a corrective switch, so every opened line passes the search's filter
    # and its LP; a switch is listed exactly where the pair fails without one
    case = build()
    sens = build_sensitivities(case)
    res = solve(case, SolveOptions(method="extensive_scuc_cnr"))
    assert res.converged
    failing = {(c, t) for t in case.periods for c in sens.contingencies
               if solve_pcfc(OutageRows(case, sens, c), res.schedule, t).status == "infeasible"}
    assert set(res.switches) == failing
    for (c, t), j in res.switches.items():
        assert case.branch(j).reconfigurable
        assert j in sens.non_radial
        assert not sens.islands((c, j))
        out = solve_pcfc(OutageRows(case, sens, c), res.schedule, t, j)
        assert out.status == "feasible_via_switch", (c, t, j, out.slack)


def test_switching_strictly_cheaper_at_low_load(c4_low):
    scuc = solve(c4_low, SolveOptions(method="ad_scuc"))
    cnr = solve(c4_low, SolveOptions(method="ad_scuc_cnr"))
    assert scuc.converged and cnr.converged
    assert cnr.schedule.objective < scuc.schedule.objective - 1e-6
    # the saving is exactly the avoided no-load + start-up of the local unit
    assert (scuc.schedule.objective - cnr.schedule.objective
            == pytest.approx(300.0 + 500.0, abs=1e-4))


def test_cnr_never_costs_more(tri3, tri3_tight, c4_low):
    for case in (tri3, tri3_tight, c4_low):
        for td_like, cnr_like in (("td_scuc", "td_scuc_cnr"), ("ad_scuc", "ad_scuc_cnr")):
            a = solve(case, SolveOptions(method=td_like))
            b = solve(case, SolveOptions(method=cnr_like))
            assert a.converged and b.converged
            assert b.schedule.objective <= a.schedule.objective \
                + 1e-4 * max(1.0, abs(a.schedule.objective))


def test_heuristic_cnr_is_bounded_by_extensive_models(tri3_tight, c4_low, c4_high):
    for case in (tri3_tight, c4_low, c4_high):
        td_cnr = solve(case, SolveOptions(method="td_scuc_cnr"))
        ext_cnr = solve(case, SolveOptions(method="extensive_scuc_cnr"))
        ext = solve(case, SolveOptions(method="extensive_scuc"))
        assert td_cnr.converged and ext_cnr.converged
        obj = td_cnr.schedule.objective
        assert ext_cnr.schedule.objective - 1e-4 * abs(obj) <= obj
        if ext.converged:
            assert obj <= ext.schedule.objective + 1e-4 * abs(obj)


def test_master_objective_monotone_and_final_iteration_clean(tri3_tight, c4_low):
    for case in (tri3_tight, c4_low):
        res = solve(case, SolveOptions(method="td_scuc"))
        assert res.converged
        objs = [s.muc_objective for s in res.report.iteration_log]
        assert all(objs[i + 1] >= objs[i] - 1e-7 * max(1.0, abs(objs[i]))
                   for i in range(len(objs) - 1))
        assert res.report.iteration_log[-1].cuts_added == 0
        assert res.report.iterations >= 1


def test_no_duplicate_cuts(tri3_tight, c4_low, c4_stranded):
    for case in (tri3_tight, c4_low, c4_stranded):
        res = solve(case, SolveOptions(method="td_scuc_cnr"))
        cuts = res.cuts
        for i in range(len(cuts)):
            for j in range(i + 1, len(cuts)):
                assert not cuts[i].same_coefficients(cuts[j])


def test_stranded_corridor_records_unresolved_then_predispatch(c4_stranded):
    res = solve(c4_stranded, SolveOptions(method="td_scuc_cnr"))
    # iteration 1 finds no rescuing switch for the direct-line outage and
    # cuts; iteration 2 pre-dispatches the local unit and survives
    assert res.converged
    assert res.iterations == 2
    assert res.report.iteration_log[0].cuts_added == 1
    assert res.schedule.u[[g.id for g in c4_stranded.generators].index(2), 1] == 1


def test_stranded_corridor_keeps_its_objective_and_switch(c4_stranded):
    # a cut read off the duals of a warm-started LP instead of a fresh solve
    # moves this run to another schedule
    res = solve(c4_stranded, SolveOptions(method="td_scuc_cnr"))
    assert res.schedule.objective == pytest.approx(5140.0, rel=1e-9)
    assert res.switches == {(3, 2): 2}


def test_audits_pass_for_converged_runs(tri3, tri3_tight, c4_low, c4_high, c4_stranded):
    for case, method in [
        (tri3, "ad_scuc"), (tri3_tight, "ad_scuc"), (tri3_tight, "td_scuc"),
        (c4_low, "ad_scuc_cnr"), (c4_high, "ad_scuc_cnr"), (c4_high, "td_scuc_cnr"),
        (tri3_tight, "extensive_scuc"), (c4_low, "extensive_scuc"),
        (c4_low, "extensive_scuc_cnr"), (c4_high, "extensive_scuc_cnr"),
        (c4_stranded, "extensive_scuc_cnr"),
    ]:
        res = solve(case, SolveOptions(method=method))
        assert res.converged
        audit = verify_solution(case, res)
        assert audit.secure, (method, audit.violations)
        from scucnr.network import classify_radial
        _, non_radial = classify_radial(case)
        assert audit.pairs_checked == len(non_radial) * case.horizon


def test_audit_catches_tampered_schedule(tri3_tight):
    res = solve(tri3_tight, SolveOptions(method="td_scuc"))
    assert res.converged
    sched = res.schedule
    # drain the bus-3 unit back to zero: the 1-2 outage becomes unsurvivable
    p = np.array(sched.p)
    gpos = {g: i for i, g in enumerate(sched.generator_ids)}
    p[gpos[1], 0] += p[gpos[2], 0]
    p[gpos[2], 0] = 0.0
    tampered = dataclasses.replace(res, schedule=dataclasses.replace(sched, p=p))
    audit = verify_solution(tri3_tight, tampered)
    assert not audit.secure
    assert (1, 1) in {(c, t) for c, t, _ in audit.violations}


def test_audit_uses_full_enumeration_for_switching_methods(c4_high):
    # the audit certifies a switching run by searching the whole ranked list,
    # whatever budget the run had, and a plain one without switching
    res = solve(c4_high, SolveOptions(method="td_scuc_cnr"))
    assert res.converged
    audit = verify_solution(c4_high, res)
    assert audit.secure

    plain_view = dataclasses.replace(res, method="td_scuc")
    plain_audit = verify_solution(c4_high, plain_view)
    assert not plain_audit.secure  # without switching the plan is insecure
    assert (3, 2) in {(c, t) for c, t, _ in plain_audit.violations}


def test_audit_flags_a_schedule_that_serves_no_load(tri3):
    res = solve(tri3, SolveOptions(method="ad_scuc"))
    idle = dataclasses.replace(res.schedule, u=np.ones_like(res.schedule.u),
                               p=np.zeros_like(res.schedule.p))
    audit = verify_solution(tri3, dataclasses.replace(res, schedule=idle))
    assert not audit.secure
    # every outage is survivable by redispatch; the base case is not
    assert audit.base_case is not None and "in period 1" in audit.base_case
    assert audit.violations == ()
    assert verify_solution(tri3, res).base_case is None


def test_loop_screen_drops_only_survivable_pairs(c4_high, tri3_tight):
    # every pair the screen drops in any iteration, decided with no switch
    # and on as many threads as the run used, is feasible
    for case in (c4_high, tri3_tight):
        for workers in (1, 2):
            with recorded_screens() as screens:
                res = solve(case, SolveOptions(method="ad_scuc_cnr", workers=workers))
            assert res.converged
            assert len(screens) == len(res.report.iteration_log)
            assert assert_dropped_pairs_survivable(screens, workers) == sum(
                stats.screened_out for stats in res.report.iteration_log) > 0


def test_serial_phase_timings_fit_inside_the_total(c4_high):
    # each pair times its own LP and switch search, so serially the phases
    # are disjoint slices of the run's wall time
    timings = solve(c4_high, SolveOptions(method="td_scuc_cnr")).report.timings
    phases = ("master", "screening", "pcfc", "nr_pcfc")
    assert sum(timings[k] for k in phases) <= timings["total"]
    assert timings["pcfc"] > 0 and timings["nr_pcfc"] > 0


@pytest.mark.parametrize("method,max_iterations",
                         [(m, SolveOptions.max_iterations) for m in METHODS] + [("td_scuc", 2)])
def test_timings_list_each_masters_seconds_and_nodes_in_solve_order(c4_high, method,
                                                                   max_iterations):
    res = solve(c4_high, SolveOptions(method=method, max_iterations=max_iterations))
    timings = res.report.timings
    # one master per iteration, also the last one of an infeasible or cut-short run
    masters = 1 if method.startswith("extensive") else res.iterations
    assert len(timings["master_s"]) == len(timings["master_nodes"]) == masters
    assert sum(timings["master_s"]) == pytest.approx(timings["master"])
    assert all(type(n) is int and n >= 0 for n in timings["master_nodes"])


def test_worker_pool_matches_serial(c4_high, tri3_tight):
    for case in (c4_high, tri3_tight):
        serial = solve(case, SolveOptions(method="ad_scuc_cnr", workers=1))
        parallel = solve(case, SolveOptions(method="ad_scuc_cnr", workers=4))
        assert serial.status == parallel.status
        assert serial.switches == parallel.switches
        assert serial.schedule.objective == pytest.approx(
            parallel.schedule.objective, abs=1e-9)
        assert len(serial.cuts) == len(parallel.cuts)
        assert serial.report.iteration_log == parallel.report.iteration_log
        assert serial.report.subproblems == parallel.report.subproblems


@pytest.mark.parametrize("method", ["ad_scuc_cnr", "td_scuc_cnr"])
def test_worker_pool_matches_serial_at_40_buses(method):
    case = random_case(9, 40, 12, 8)
    serial, parallel = (solve(case, SolveOptions(method=method, workers=workers))
                        for workers in (1, 2))
    assert serial.report.subproblems == parallel.report.subproblems
    assert serial.report.iteration_log == parallel.report.iteration_log
    assert serial.cuts == parallel.cuts


def first_master_schedule(case, sens):
    lp, _ = build_muc(case, sens)
    return extract_solution(case, sens, lp, solve_milp(lp))


def test_warm_chain_matches_cold_solves():
    case = random_case(9, 40, 12, 8)
    sens = build_sensitivities(case)
    muc = first_master_schedule(case, sens)
    pairs = [(c, t) for t in case.periods for c in sens.contingencies]
    warm, _ = _examine(case, sens, muc, pairs, 0, workers=1, cut=True)
    cold = [solve_pcfc(OutageRows(case, sens, c), muc, t) for c, t in pairs]
    assert len(warm) == 440
    assert warm == cold
    assert sum(out.cut is not None for out in warm) == 13


@pytest.mark.parametrize("build, rescued", [
    (corridor4_high, 1), (lambda: random_case(9, 40, 12, 8), 6),
], ids=["corridor4_high", "random_9_40_12_8"])
def test_warm_switch_searches_match_cold_ones(build, rescued):
    case = build()
    sens = build_sensitivities(case)
    muc = first_master_schedule(case, sens)
    pairs = [(c, t) for t in case.periods for c in sens.contingencies]
    warm, counters = _examine(case, sens, muc, pairs, None, workers=1, cut=True)
    tried = 0
    for out, (c, t) in zip(warm, pairs, strict=True):
        assert (out.contingency, out.period) == (c, t)
        rows = OutageRows(case, sens, c)
        cold = solve_pcfc(rows, muc, t)
        if cold.status == "feasible":
            assert out == cold
            continue
        # a cold walk of every candidate in id order: the verdict does not
        # depend on the order, and the warm search picks the first rescue
        # in ranked order
        rescues = {j for j in sorted(switch_candidates(rows))
                   if solve_pcfc(rows, muc, t, j).status == "feasible_via_switch"}
        ranked = list(switch_candidates(rows))
        if not rescues:
            assert out == cold
            tried += len(ranked)
        else:
            first = next(j for j in ranked if j in rescues)
            assert (out.status, out.switch, out.cut) == ("feasible_via_switch", first, None)
            assert out.slack <= SLACK_TOLERANCE
            tried += ranked.index(first) + 1
    assert sum(out.status == "feasible_via_switch" for out in warm) == rescued
    assert counters["nr_pcfc_solved"] == tried > 0


def _watch_pcfc(monkeypatch, seen):
    """Wrap ``solve_pcfc`` where the loop and the switch search call it;
    each call goes to ``seen(kind, rows, t, switch, out)``, ``kind`` being
    ``"switch"`` with a switch, else ``"cold"`` with no engine, else
    ``"pair"``."""
    pcfc = scucnr.subproblems.solve_pcfc

    def watched(rows, muc, t, switch=None, engine=None):
        out = pcfc(rows, muc, t, switch, engine)
        kind = "switch" if switch is not None else "cold" if engine is None else "pair"
        seen(kind, rows, t, switch, out)
        return out

    monkeypatch.setattr(scucnr.orchestrator, "solve_pcfc", watched)
    monkeypatch.setattr(scucnr.subproblems, "solve_pcfc", watched)


def test_audit_builds_one_engine_per_contingency(monkeypatch):
    # one engine per contingency with a pair its schedule's own dispatch
    # does not certify, plus one per cold solve; the audit takes none
    case = random_case(9, 40, 12, 8)
    sens = build_sensitivities(case)
    result = solve(case, SolveOptions(method="ad_scuc_cnr"))
    first = first_master_schedule(case, sens)
    new_engine = _hc._Highs
    counts, uncertified = Counter(), set()

    def counted_engine():
        counts["engines"] += 1
        return new_engine()

    def seen(kind, rows, t, switch, out):
        if kind == "pair":
            uncertified.add(rows.outage)
            counts["infeasible"] += out.status == "infeasible"
        counts[kind] += 1

    monkeypatch.setattr(_hc, "_Highs", counted_engine)
    _watch_pcfc(monkeypatch, seen)
    # the converged schedule, then the first master's, whose 13 unsurvivable
    # pairs take a switch search on the task's engine and no cold solve
    for audit in (lambda: verify_solution(case, result),
                  lambda: verify_schedule(case, "ad_scuc_cnr", first)):
        counts.clear()
        uncertified.clear()
        assert audit().pairs_checked == 440
        assert counts["cold"] == 0
        assert 0 < counts["engines"] == len(uncertified) < len(sens.contingencies)
    assert counts["infeasible"] == 13 and counts["switch"] > 0


def test_a_solve_and_its_audit_build_one_outage_row_block_per_contingency_task(monkeypatch):
    # a switch LP reuses its outage's rows, so no pair (c, j) builds its own
    case = random_case(9, 40, 12, 8)
    examine, init = scucnr.orchestrator._examine, scucnr.subproblems.OutageRows.__init__
    counts = Counter()

    def counted_examine(case, sens, muc, pairs, *args, **kwargs):
        counts["tasks"] += len({c for c, _ in pairs})
        return examine(case, sens, muc, pairs, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["rows"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(scucnr.orchestrator, "_examine", counted_examine)
    monkeypatch.setattr(scucnr.subproblems.OutageRows, "__init__", counted_init)
    result = solve(case, SolveOptions(method="ad_scuc_cnr"))
    assert sum(stats.nr_pcfc_solved for stats in result.report.iteration_log) == 201
    assert counts["rows"] == counts["tasks"] > 0
    counts.clear()
    assert verify_solution(case, result).pairs_checked == 440
    assert counts["rows"] == counts["tasks"] == len(build_sensitivities(case).contingencies)


def test_box_bound_leaves_a_third_of_the_switch_lps(monkeypatch):
    # the first master's 13 searches decide 201 candidates; the box bound
    # proves 134 of them hopeless, and the rescues, cuts and objective are
    # those of one switch LP per candidate
    case = random_case(9, 40, 12, 8)
    calls, rescues = Counter(), {}

    def seen(kind, rows, t, switch, out):
        calls[kind] += 1
        if out.status == "feasible_via_switch":
            rescues[rows.outage, t] = switch

    _watch_pcfc(monkeypatch, seen)
    result = solve(case, SolveOptions(method="ad_scuc_cnr"))
    first = result.report.iteration_log[0]
    assert (calls["switch"], calls["cold"]) == (67, 8)
    assert (first.nr_pcfc_solved, first.switches_found, first.cuts_added) == (201, 5, 8)
    assert rescues == {(11, 4): 4, (24, 3): 21, (39, 3): 47, (39, 4): 47, (59, 4): 48}
    assert (result.status, len(result.cuts), result.switches) == ("converged", 8, {})
    assert result.schedule.objective == pytest.approx(66482.7548, rel=1e-9)


def _count_cold_lps(monkeypatch):
    """Count the engine-less ``solve_lp`` calls of ``subproblems`` by LP name."""
    solve_lp, cold = scucnr.subproblems.solve_lp, Counter()

    def counted(lp, engine=None):
        cold[lp.name] += engine is None
        return solve_lp(lp, engine)

    monkeypatch.setattr(scucnr.subproblems, "solve_lp", counted)
    return cold


@pytest.mark.parametrize("build, rescued, left", [
    (corridor4_high, 1, 0), (lambda: random_case(9, 40, 12, 8), 6, 7),
], ids=["corridor4_high", "random_9_40_12_8"])
def test_cold_cut_lp_runs_only_for_pairs_no_switch_rescues(build, rescued, left, monkeypatch):
    case = build()
    sens = build_sensitivities(case)
    muc = first_master_schedule(case, sens)
    pairs = [(c, t) for t in case.periods for c in sens.contingencies]
    cold = _count_cold_lps(monkeypatch)
    outcomes, _ = _examine(case, sens, muc, pairs, None, workers=1, cut=True)
    statuses = Counter(out.status for out in outcomes)
    ended = [f"pcfc[{o.contingency},{o.period}]" for o in outcomes if o.status == "infeasible"]
    assert (statuses["feasible_via_switch"], len(ended)) == (rescued, left)
    # one engine-less solve per pair left infeasible, none for a rescued pair
    assert +cold == Counter(ended)
    assert all(o.cut is not None for o in outcomes if o.status == "infeasible")


def test_only_the_decomposed_loop_solves_pairs_cold_for_cuts(monkeypatch):
    # the extensive switch filter and the audit read verdicts only, so no
    # pair LP of theirs runs cold; the slack is 0 or 1, so the warm verdict
    # is the cold one
    cold = _count_cold_lps(monkeypatch)
    res = solve(corridor4_high(), SolveOptions(method="extensive_scuc_cnr"))
    assert list(res.switches) == [(3, 2)] and +cold == Counter()

    case = random_case(9, 40, 12, 8)
    first = first_master_schedule(case, build_sensitivities(case))
    for method, violations in (("ad_scuc", 13), ("ad_scuc_cnr", 7)):
        report = verify_schedule(case, method, first)
        assert len(report.violations) == violations
        assert all(slack == pytest.approx(1.0, abs=1e-9) for *_, slack in report.violations)
        assert +cold == Counter(), method

    # the loop still solves each pair it cuts cold, once, for its cut
    res = solve(corridor4_stranded(), SolveOptions(method="td_scuc_cnr"))
    assert len(res.cuts) == sum(cold.values()) == 1


def test_the_loop_solves_one_lp_per_examined_pair(monkeypatch):
    # the dispatch certificate is for verdict-only examinations: the loop's
    # own examination takes every pair's LP, so the unscreened methods count
    # one per pair, as the paper's TD does
    solve_master = scucnr.orchestrator._solve_master
    per_master = []

    def counted_master(*args, **kwargs):
        per_master.append(0)
        return solve_master(*args, **kwargs)

    def seen(kind, *_):
        per_master[-1] += kind == "pair"

    monkeypatch.setattr(scucnr.orchestrator, "_solve_master", counted_master)
    _watch_pcfc(monkeypatch, seen)
    res = solve(random_case(101, 24, 8, 4), SolveOptions(method="td_scuc"))
    assert res.converged and per_master == [112, 112]
    assert [s.pcfc_solved for s in res.report.iteration_log] == [112, 112]


@pytest.mark.parametrize("build, workers", [
    (corridor4_high, 1), (lambda: random_case(9, 40, 12, 8), 2),
], ids=["corridor4_high", "random_9_40_12_8"])
def test_iteration_counts_are_read_off_the_pair_outcomes(build, workers):
    res = solve(build(), SolveOptions(method="ad_scuc_cnr", workers=workers))
    stats = res.report.iteration_log[-1]
    statuses = Counter(o.status for o in res.report.subproblems)
    assert stats.candidates == len(res.report.subproblems)
    assert stats.screened_out == statuses["screened_out"]
    assert stats.pcfc_solved == stats.candidates - statuses["screened_out"]
    assert stats.pcfc_infeasible == statuses["feasible_via_switch"] + statuses["infeasible"]
    assert stats.switches_found == statuses["feasible_via_switch"] == len(res.switches)
    assert stats.cuts_added == statuses["infeasible"]
    assert stats.nr_pcfc_solved >= stats.switches_found


def test_repeat_runs_are_identical(c4_high):
    a = solve(c4_high, SolveOptions(method="ad_scuc_cnr"))
    b = solve(c4_high, SolveOptions(method="ad_scuc_cnr"))
    assert a.schedule.objective == b.schedule.objective
    assert np.array_equal(a.schedule.u, b.schedule.u)
    assert np.array_equal(a.schedule.p, b.schedule.p)
    assert a.switches == b.switches


def test_iteration_limit_reported(c4_high):
    res = solve(c4_high, SolveOptions(method="td_scuc", max_iterations=1))
    assert res.status == "iteration_limit"
    assert not res.converged
    assert res.iterations == 1
    assert res.unresolved  # the direct-line outage is still open
    assert res.report.status == "iteration_limit"
    # the audit decides pairs through the loop's routine, so at the loop's
    # last schedule it finds exactly the pairs the loop left open
    audit = verify_solution(c4_high, res)
    assert sorted((c, t) for c, t, _ in audit.violations) == list(res.unresolved)


def test_a_budget_of_every_branch_tries_every_line(c4_high):
    # a budget of 0 turns switching off; one as long as the branch list
    # takes the whole ranking, every reconfigurable line
    off = solve(c4_high, SolveOptions(method="td_scuc_cnr", cbce_size=0))
    assert off.status == "infeasible"
    res = solve(c4_high, SolveOptions(method="td_scuc_cnr", cbce_size=len(c4_high.branches)))
    assert res.status == "converged"
    assert res.switches == {(3, 2): 2}
    assert verify_solution(c4_high, res).secure


def test_invalid_options_rejected():
    with pytest.raises(ValueError):
        SolveOptions(method="nonsense")
    with pytest.raises(ValueError):
        SolveOptions(max_iterations=0)
    with pytest.raises(ValueError):
        SolveOptions(cbce_size=-1)
    with pytest.raises(ValueError):
        SolveOptions(workers=0)
    # counts are ints: a float or a bool names its field instead of failing
    # later inside solve (or, for workers, being taken as it is)
    for field, good in (("max_iterations", 3), ("cbce_size", 0), ("workers", 2)):
        for bad in (1.5, 2.0, True, False, "2"):
            with pytest.raises(ValueError, match=field):
                SolveOptions(**{field: bad})
        assert getattr(SolveOptions(**{field: good}), field) == good
    with pytest.raises(ValueError, match="time_limit"):
        SolveOptions(time_limit=0.0)
    assert SolveOptions(time_limit=1.5).time_limit == 1.5
    # no gap is not a gap of zero
    with pytest.raises(ValueError, match="milp_gap"):
        SolveOptions(milp_gap=None)
    assert set(METHODS) == {
        "extensive_scuc", "extensive_scuc_cnr", "td_scuc", "ad_scuc",
        "td_scuc_cnr", "ad_scuc_cnr"}


def test_solve_options_has_six_fields():
    # the screen's soundness is asserted by tests, not by an option
    assert [f.name for f in dataclasses.fields(SolveOptions)] == [
        "method", "max_iterations", "milp_gap", "cbce_size", "workers", "time_limit"]
    with pytest.raises(TypeError, match="audit_screening"):
        SolveOptions(audit_screening=True)


@pytest.mark.parametrize("bad", [-1.0, -1e-12, float("inf"), float("nan"), "1e-4", "5"])
def test_bad_tolerances_rejected(bad):
    for field in ("milp_gap", "time_limit"):
        with pytest.raises(ValueError, match=field):
            SolveOptions(**{field: bad})
    assert SolveOptions(milp_gap=0.0).milp_gap == 0.0


@pytest.mark.parametrize("bad", [True, False])
@pytest.mark.parametrize("field", ["milp_gap", "time_limit"])
def test_bool_is_not_a_float_option(field, bad):
    # True and False pass the finiteness and sign checks as 1 and 0
    with pytest.raises(ValueError, match=field):
        SolveOptions(**{field: bad})


def test_verify_requires_schedule(c4_high):
    res = solve(c4_high, SolveOptions(method="td_scuc"))
    assert res.schedule is None
    with pytest.raises(ValueError):
        verify_solution(c4_high, res)


def test_verify_rejects_a_case_that_solve_rejects(c4_low):
    schedule = solve(c4_low, SolveOptions(method="td_scuc_cnr")).schedule
    # the last branch takes the first branch's id
    reused = dataclasses.replace(c4_low.branches[-1], id=c4_low.branches[0].id)
    case = dataclasses.replace(c4_low, branches=c4_low.branches[:-1] + (reused,))
    message = r"^case failed validation: \[duplicate_id\] branch 2: "
    with pytest.raises(ValueError, match=message):
        solve(case, SolveOptions(method="td_scuc_cnr"))
    with pytest.raises(ValueError, match=message):
        verify_schedule(case, "td_scuc_cnr", schedule)


def test_verify_rejects_a_schedule_of_another_case(c4_low):
    # the schedule is checked as the CLI checks one read from a report
    schedule = solve(c4_low, SolveOptions(method="ad_scuc_cnr")).schedule
    with pytest.raises(CaseFormatError, match=r"^solution\.generator_ids \[1, 2, 3\] do not"):
        verify_schedule(triangle3((80.0, 60.0)), "ad_scuc_cnr", schedule)
