import dataclasses

import numpy as np
import pytest

from conftest import fixture_family
from oracles import dc_flows
from scucnr.fixtures import corridor4_high, random_case, star4, triangle3
from scucnr.model import Branch, Bus, Generator, SystemCase
from scucnr.network import (build_sensitivities, check_connectivity,
                            classify_radial, compute_lodf, compute_ptdf,
                            rank_cbce)
from scucnr.subproblems import OutageRows, switch_candidates


def minimal_case(buses, branch_pairs, ref=1):
    """Bare case with unit demand profile; enough for graph/sensitivity work."""
    return SystemCase(
        buses=tuple(Bus(b, (0.0,), is_reference=(b == ref)) for b in buses),
        branches=tuple(Branch(i + 1, a, b, susceptance=10.0, rate_long_term=100.0,
                              rate_emergency=120.0)
                       for i, (a, b) in enumerate(branch_pairs)),
        generators=(Generator(1, bus=ref, p_min=0, p_max=100, cost_linear=10,
                              cost_no_load=0, cost_startup=0, ramp_hourly=100,
                              ramp_startup=100, ramp_shutdown=100, ramp_10=100),),
        horizon=1,
    )


# --- bridge classification -------------------------------------------------

def test_triangle_has_no_bridges(tri3):
    bridges, non_radial = classify_radial(tri3)
    assert bridges == frozenset()
    assert non_radial == {1, 2, 3}


def test_star_is_all_bridges(star):
    bridges, non_radial = classify_radial(star)
    assert bridges == {1, 2, 3}
    assert non_radial == frozenset()


def test_spur_branch_is_the_only_bridge(tri3):
    spur = Branch(9, 3, 4, susceptance=5.0, rate_long_term=50.0, rate_emergency=60.0)
    case = dataclasses.replace(
        tri3,
        buses=tri3.buses + (Bus(4, (0.0,)),),
        branches=tri3.branches + (spur,))
    bridges, non_radial = classify_radial(case)
    assert bridges == {9}
    assert non_radial == {1, 2, 3}


def test_parallel_branches_are_never_bridges():
    case = minimal_case([1, 2], [(1, 2), (1, 2)])
    bridges, non_radial = classify_radial(case)
    assert bridges == frozenset()
    assert non_radial == {1, 2}


def test_disconnected_input_rejected():
    case = minimal_case([1, 2, 3], [(1, 2)])
    with pytest.raises(ValueError):
        classify_radial(case)


def brute_force_bridges(case):
    return frozenset(k.id for k in case.branches
                     if not check_connectivity(case, {k.id}))


def test_classification_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(42)
    twin_rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 31))
        pairs = [(int(rng.integers(1, b)), b) for b in range(2, n + 1)]
        for _ in range(int(rng.integers(0, n))):
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            pairs.append((int(a), int(b)) if a != b else (1, 2))
        # the same graph again with parallel twins, some reversed, of a few
        # spanning-tree edges (the first n - 1 pairs)
        picks = twin_rng.choice(n - 1, size=int(twin_rng.integers(1, min(n, 4))), replace=False)
        twins = [pairs[i] if i % 2 else pairs[i][::-1] for i in picks]
        for graph in (pairs, pairs + twins):
            case = minimal_case(list(range(1, n + 1)), graph)
            bridges, non_radial = classify_radial(case)
            assert bridges == brute_force_bridges(case)
            assert bridges | non_radial == {k.id for k in case.branches}
            assert not (bridges & non_radial)


# --- connectivity ----------------------------------------------------------

def test_connectivity_examples(tri3, star):
    assert check_connectivity(tri3, set())
    assert check_connectivity(tri3, {1})         # path 1-3-2 stays
    assert not check_connectivity(tri3, {1, 2})  # bus 1 isolated
    assert not check_connectivity(tri3, {1, 3})  # bus 2 isolated
    for k in (1, 2, 3):
        assert not check_connectivity(star, {k})


@pytest.mark.parametrize("case", [
    *fixture_family().values(), corridor4_high(),
    random_case(101, n_buses=24, n_generators=8, horizon=4),
    random_case(9, n_buses=40, n_generators=12, horizon=8),
], ids=[*fixture_family(), "corridor4_high", "random101_24", "random9_40"])
def test_lodf_islanding_test_matches_graph_search(case):
    sens = build_sensitivities(case)
    lines = sens.contingencies
    for c in lines:
        assert not sens.islands((c,))
        for j in lines:
            if j != c:
                assert sens.islands((c, j)) == (not check_connectivity(case, {c, j})), (c, j)
    for b in sens.bridges:
        assert sens.islands((b,))


# --- PTDF ------------------------------------------------------------------

def test_reference_column_is_zero(tri3):
    ptdf = compute_ptdf(tri3)
    ref_col = tri3.bus_index[tri3.reference_bus]
    assert np.abs(ptdf[:, ref_col]).max() == 0.0


def test_two_bus_single_line_unit_sensitivity():
    case = minimal_case([1, 2], [(1, 2)])
    ptdf = compute_ptdf(case)
    # 1 MW injected at bus 2 flows entirely back along the line toward bus 1
    assert ptdf[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_triangle_two_thirds_split(tri3):
    ptdf = compute_ptdf(tri3)
    pos = tri3.bus_index
    # inject at bus 2, withdraw at reference bus 1: 2/3 takes the direct
    # branch (oriented 1->2, hence -2/3), 1/3 the two-hop path via bus 3
    assert ptdf[0, pos[2]] == pytest.approx(-2.0 / 3.0, abs=1e-9)
    assert ptdf[1, pos[2]] == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert ptdf[2, pos[2]] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_duplicate_degenerate_data_raises():
    case = minimal_case([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    zeroed = dataclasses.replace(
        case, branches=tuple(dataclasses.replace(k, susceptance=0.0)
                             for k in case.branches))
    with pytest.raises(ValueError, match="singular"):
        compute_ptdf(zeroed)


# --- LODF ------------------------------------------------------------------

def test_lodf_diagonal_is_minus_one(tri3):
    _, non_radial = classify_radial(tri3)
    lodf = compute_lodf(tri3, compute_ptdf(tri3), non_radial)
    for c in non_radial:
        i = tri3.branch_index[c]
        assert lodf[i, i] == pytest.approx(-1.0)


def test_triangle_outage_diverts_everything(tri3):
    _, non_radial = classify_radial(tri3)
    lodf = compute_lodf(tri3, compute_ptdf(tri3), non_radial)
    pos = tri3.branch_index
    # losing branch 1 (1-2) leaves the single path 1-3 / 3-2
    assert abs(lodf[pos[2], pos[1]]) == pytest.approx(1.0, abs=1e-9)
    assert abs(lodf[pos[3], pos[1]]) == pytest.approx(1.0, abs=1e-9)


def test_bridge_passed_as_contingency_is_an_error(star):
    ptdf = compute_ptdf(star)
    with pytest.raises(ValueError, match="radial"):
        compute_lodf(star, ptdf, frozenset({1}))


@pytest.mark.parametrize("builder", [triangle3, star4, corridor4_high])
def test_lodf_matches_outaged_dc_resolve(builder):
    """Exactness against an independent re-solve, for random injections."""
    case = builder()
    bridges, non_radial = classify_radial(case)
    ptdf = compute_ptdf(case)
    lodf = compute_lodf(case, ptdf, non_radial)
    rng = np.random.default_rng(3)
    bus_ids = [b.id for b in case.buses]
    for trial in range(5):
        inj = rng.uniform(-50, 50, size=len(bus_ids))
        inj[0] -= inj.sum()  # balance
        injections = dict(zip(bus_ids, inj))
        base = dc_flows(case, injections)
        for c in sorted(non_radial):
            resolved = dc_flows(case, injections, removed=frozenset({c}))
            ci = case.branch_index[c]
            for k in case.branches:
                if k.id == c:
                    continue
                ki = case.branch_index[k.id]
                predicted = base[k.id] + lodf[ki, ci] * base[c]
                err_pu = abs(predicted - resolved[k.id]) / case.base_mva
                assert err_pu <= 1e-6


# --- CBCE ranking ----------------------------------------------------------

def test_triangle_cbce_all_adjacent_ordered_by_id(tri3):
    ranked = rank_cbce(tri3)
    assert ranked[1] == (2, 3)
    assert ranked[2] == (1, 3)


def test_cbce_size_zero_is_empty(c4_high):
    # a search budget of 0 looks at no line of the ranking
    sens = build_sensitivities(c4_high)
    assert all(sens.cbce[c] for c in sens.contingencies)
    assert not any(list(switch_candidates(OutageRows(c4_high, sens, c), 0))
                   for c in sens.contingencies)


def test_corridor_ranks_companion_leg_first(c4_high):
    ranked = rank_cbce(c4_high)
    assert ranked[3][0] == 2
    assert ranked[3] == (2, 4, 5, 6)
    # contingency on the 1-2 leg: its id-0 peers come first, distant line last
    assert ranked[2] == (3, 4, 5, 6)


def test_cbce_excludes_bridges_and_self(tri3):
    spur = Branch(9, 3, 4, susceptance=5.0, rate_long_term=50.0, rate_emergency=60.0)
    case = dataclasses.replace(
        tri3, buses=tri3.buses + (Bus(4, (0.0,)),), branches=tri3.branches + (spur,))
    ranked = rank_cbce(case)
    assert sorted(ranked) == [1, 2, 3]
    assert 9 not in ranked[3]
    assert ranked[3] == (1, 2)


def test_cbce_rejects_bridge_contingency(star):
    # every branch of a star is a bridge, so none is a contingency
    assert rank_cbce(star) == {}


def test_truncation_and_tiebreak():
    # ring of 6 buses: distances from branch (1,2) differ by hops
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]
    case = minimal_case([1, 2, 3, 4, 5, 6], pairs)
    # scores 0, 0, 1, 1, 2 -> ids break the ties; a search budget is a prefix
    assert rank_cbce(case)[1] == (2, 6, 3, 5, 4)
    assert build_sensitivities(case).cbce[1][:3] == (2, 6, 3)


# --- bundle ----------------------------------------------------------------

def test_build_sensitivities_bundle(c4_high):
    sens = build_sensitivities(c4_high)
    assert sens.non_radial == {2, 3, 4, 5, 6}
    assert sens.bridges == frozenset()
    assert sens.contingencies == [2, 3, 4, 5, 6]
    assert sens.cbce[3] == (2, 4, 5, 6)
    for c in sens.contingencies:
        # every other non-radial branch, once
        assert sorted(sens.cbce[c]) == [k for k in sens.contingencies if k != c]
    with pytest.raises(ValueError):
        sens.ptdf[0, 0] = 1.0  # read-only
