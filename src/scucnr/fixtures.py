"""Built-in test systems and the random meshed-case generator.

``triangle3`` / ``star4`` are the small canonical systems used across the
test suite.  ``corridor4`` is a 4-bus system with two internal parallel
paths and an external corridor, sized so that losing the direct line
overloads the neighbouring internal leg beyond what local redispatch can
fix; opening the companion internal line reroutes everything through the
external corridor at no extra cost.  ``random_case`` produces seeded meshed
cases for property and acceptance testing.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import Branch, Bus, Generator, SystemCase
from .network import classify_radial, compute_lodf, compute_ptdf


def triangle3(demand: tuple[float, ...] = (80.0,)) -> SystemCase:
    """Three buses in a triangle; cheap unit at bus 1, pricier unit at bus 3."""
    T = len(demand)
    zeros = tuple(0.0 for _ in demand)
    return SystemCase(
        buses=(
            Bus(1, zeros, is_reference=True),
            Bus(2, tuple(demand)),
            Bus(3, zeros),
        ),
        branches=(
            Branch(1, 1, 2, susceptance=10.0, rate_long_term=100.0, rate_emergency=120.0),
            Branch(2, 1, 3, susceptance=10.0, rate_long_term=100.0, rate_emergency=120.0),
            Branch(3, 2, 3, susceptance=10.0, rate_long_term=100.0, rate_emergency=120.0),
        ),
        generators=(
            Generator(1, bus=1, p_min=10.0, p_max=150.0, cost_linear=20.0,
                      cost_no_load=50.0, cost_startup=100.0, ramp_hourly=150.0,
                      ramp_startup=150.0, ramp_shutdown=150.0, ramp_10=150.0,
                      initial_status=True, initial_output=80.0),
            Generator(2, bus=3, p_min=0.0, p_max=100.0, cost_linear=60.0,
                      cost_no_load=30.0, cost_startup=80.0, ramp_hourly=100.0,
                      ramp_startup=100.0, ramp_shutdown=100.0, ramp_10=100.0),
        ),
        horizon=T,
    )


def triangle3_tight(demand: tuple[float, ...] = (80.0,)) -> SystemCase:
    """Triangle variant whose 1-2 outage forces costly pre-dispatch at bus 3.

    The cheap unit's 10-minute ramp is capped at 20 MW, so after losing line
    1-2 it cannot back off enough for the 1-3 corridor's 45 MW emergency
    rating unless the bus-3 unit was already carrying at least 15 MW.
    """
    base = triangle3(demand)
    branches = (
        dataclasses.replace(base.branches[0], rate_long_term=60.0, rate_emergency=85.0),
        dataclasses.replace(base.branches[1], rate_long_term=30.0, rate_emergency=45.0),
        dataclasses.replace(base.branches[2], rate_long_term=70.0, rate_emergency=85.0),
    )
    generators = (
        dataclasses.replace(base.generators[0], ramp_10=20.0),
        dataclasses.replace(base.generators[1], initial_status=True, initial_output=0.0),
    )
    return dataclasses.replace(base, branches=branches, generators=generators)


def star4(demand_per_leaf: float = 20.0, horizon: int = 1) -> SystemCase:
    """Hub-and-spoke system: every branch is a bridge, so no contingencies."""
    zeros = tuple(0.0 for _ in range(horizon))
    leaf = tuple(demand_per_leaf for _ in range(horizon))
    return SystemCase(
        buses=(
            Bus(1, zeros, is_reference=True),
            Bus(2, leaf),
            Bus(3, leaf),
            Bus(4, leaf),
        ),
        branches=(
            Branch(1, 1, 2, susceptance=10.0, rate_long_term=40.0, rate_emergency=50.0),
            Branch(2, 1, 3, susceptance=10.0, rate_long_term=40.0, rate_emergency=50.0),
            Branch(3, 1, 4, susceptance=10.0, rate_long_term=40.0, rate_emergency=50.0),
        ),
        generators=(
            Generator(1, bus=1, p_min=0.0, p_max=120.0, cost_linear=22.0,
                      cost_no_load=40.0, cost_startup=90.0, ramp_hourly=120.0,
                      ramp_startup=120.0, ramp_shutdown=120.0, ramp_10=120.0,
                      initial_status=True, initial_output=60.0),
            Generator(2, bus=3, p_min=0.0, p_max=80.0, cost_linear=45.0,
                      cost_no_load=25.0, cost_startup=60.0, ramp_hourly=80.0,
                      ramp_startup=80.0, ramp_shutdown=80.0, ramp_10=80.0,
                      initial_status=True, initial_output=0.0),
        ),
        horizon=horizon,
    )


def corridor4(load_profile: tuple[float, ...] = (80.0, 130.0),
              external_emergency: float = 165.0) -> SystemCase:
    """Four buses, two internal parallel paths to the load plus an external corridor.

    Branch ids follow the corridor roles: 2 and 4 form the internal
    two-leg path (1-2-4), 3 is the direct internal line (1-4), and 5/6 are
    the external corridor (1-3-4).  Losing branch 3 pushes 80% of the
    transfer onto branch 4, whose emergency rating is deliberately tight.
    """
    T = len(load_profile)
    zeros = tuple(0.0 for _ in range(T))
    external_long = min(150.0, external_emergency)
    return SystemCase(
        buses=(
            Bus(1, zeros, is_reference=True),
            Bus(2, zeros),
            Bus(3, zeros),
            Bus(4, tuple(load_profile)),
        ),
        branches=(
            Branch(2, 1, 2, susceptance=20.0, rate_long_term=60.0, rate_emergency=70.0),
            Branch(3, 1, 4, susceptance=10.0, rate_long_term=80.0, rate_emergency=110.0),
            Branch(4, 2, 4, susceptance=20.0, rate_long_term=60.0, rate_emergency=66.0),
            Branch(5, 1, 3, susceptance=5.0, rate_long_term=external_long,
                   rate_emergency=external_emergency),
            Branch(6, 3, 4, susceptance=5.0, rate_long_term=external_long,
                   rate_emergency=external_emergency),
        ),
        generators=(
            Generator(1, bus=1, p_min=0.0, p_max=200.0, cost_linear=20.0,
                      cost_no_load=40.0, cost_startup=50.0, ramp_hourly=200.0,
                      ramp_startup=200.0, ramp_shutdown=200.0, ramp_10=160.0,
                      initial_status=True, initial_output=80.0),
            Generator(2, bus=4, p_min=0.0, p_max=45.0, cost_linear=90.0,
                      cost_no_load=300.0, cost_startup=500.0, ramp_hourly=45.0,
                      ramp_startup=45.0, ramp_shutdown=45.0, ramp_10=45.0),
            Generator(3, bus=1, p_min=0.0, p_max=160.0, cost_linear=30.0,
                      cost_no_load=30.0, cost_startup=40.0, ramp_hourly=160.0,
                      ramp_startup=160.0, ramp_shutdown=160.0, ramp_10=160.0,
                      initial_status=True, initial_output=0.0),
        ),
        horizon=T,
    )


def corridor4_high() -> SystemCase:
    """Load level at which the direct-line outage is unfixable without switching."""
    return corridor4((80.0, 130.0))


def corridor4_low() -> SystemCase:
    """Load level where switching merely avoids committing the expensive unit."""
    return corridor4((80.0, 110.0))


def corridor4_stranded() -> SystemCase:
    """External corridor de-rated so that no single switch can rescue the outage."""
    return corridor4((80.0, 130.0), external_emergency=100.0)


def _merit_order_flows(case: SystemCase) -> np.ndarray:
    """Base-case flow estimate per (branch, period) under cheapest-first dispatch."""
    ptdf = compute_ptdf(case)
    bus_pos = case.bus_index
    order = sorted(case.generators, key=lambda g: (g.cost_linear, g.id))
    flows = np.zeros((len(case.branches), case.horizon))
    for t in case.periods:
        injections = np.zeros(len(case.buses))
        total = sum(case.demand(b.id, t) for b in case.buses)
        for b in case.buses:
            injections[bus_pos[b.id]] -= case.demand(b.id, t)
        remaining = total
        for g in order:
            take = min(g.p_max, remaining)
            injections[bus_pos[g.bus]] += take
            remaining -= take
            if remaining <= 0:
                break
        flows[:, t - 1] = ptdf @ injections
    return flows


def random_case(seed: int, n_buses: int | None = None, n_generators: int | None = None,
                horizon: int | None = None) -> SystemCase:
    """Deterministic meshed case: a random spanning tree plus extra chords.

    Generators get full 10-minute flexibility so the reserve-pool coupling
    stays satisfiable; line ratings are scaled off a merit-order dispatch so
    that a handful of outages produce real emergency violations without
    making most instances insecure.  A size left as None is drawn from the
    seed; a given size must be at least 3 buses, 1 generator and 1 period.
    """
    for name, value, least in (("n_buses", n_buses, 3), ("n_generators", n_generators, 1),
                               ("horizon", horizon, 1)):
        if value is not None and value < least:
            raise ValueError(f"{name} must be >= {least} (got {value})")
    rng = np.random.default_rng(seed)
    n = int(n_buses) if n_buses is not None else int(rng.integers(4, 9))
    n_gen = int(n_generators) if n_generators is not None else int(rng.integers(3, 6))
    n_gen = min(n_gen, n)
    T = int(horizon) if horizon is not None else int(rng.integers(4, 9))

    edges: list[tuple[int, int]] = []
    for b in range(2, n + 1):
        edges.append((int(rng.integers(1, b)), b))
    seen = {tuple(sorted(e)) for e in edges}
    extra_target = max(2, int(rng.integers(2, n)))
    attempts = 0
    while extra_target > 0 and attempts < 200:
        attempts += 1
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        key = tuple(sorted((int(a), int(b))))
        if key in seen:
            continue
        seen.add(key)
        edges.append((int(a), int(b)))
        extra_target -= 1

    gen_buses = rng.choice(np.arange(1, n + 1), size=n_gen, replace=False)
    generators = []
    for i, nb in enumerate(sorted(int(b) for b in gen_buses), start=1):
        p_max = float(np.round(rng.uniform(60, 160), 1))
        p_min = 0.0 if rng.random() < 0.5 else float(np.round(rng.uniform(4, 0.2 * p_max), 1))
        on = bool(rng.random() < 0.6)
        p0 = float(np.round(np.clip(0.5 * p_max, p_min, p_max), 1)) if on else 0.0
        generators.append(Generator(
            id=i, bus=nb, p_min=p_min, p_max=p_max,
            cost_linear=float(np.round(rng.uniform(15, 80), 2)),
            cost_no_load=float(np.round(rng.uniform(20, 150), 1)),
            cost_startup=float(np.round(rng.uniform(50, 400), 1)),
            ramp_hourly=p_max, ramp_startup=p_max, ramp_shutdown=p_max,
            ramp_10=p_max,
            min_up=int(rng.integers(1, 3)), min_down=int(rng.integers(1, 3)),
            initial_status=on, initial_output=p0))

    total_cap = sum(g.p_max for g in generators)
    largest = max(g.p_max for g in generators)
    peak = 0.32 * min(total_cap, 2.0 * (total_cap - largest))
    phase = rng.uniform(0, 2 * math.pi)
    shape = np.array([0.75 + 0.25 * math.sin(2 * math.pi * (t - 1) / T + phase)
                      for t in range(1, T + 1)])
    shape = shape / shape.max()
    weights = rng.uniform(0.0, 1.0, size=n)
    weights[rng.random(n) < 0.3] = 0.0
    if weights.sum() <= 0:
        weights[:] = 1.0
    weights = weights / weights.sum()

    buses = []
    for b in range(1, n + 1):
        profile = tuple(float(np.round(peak * shape[t - 1] * weights[b - 1], 2))
                        for t in range(1, T + 1))
        buses.append(Bus(id=b, demand=profile, is_reference=(b == 1)))

    branches = []
    for i, (a, b) in enumerate(edges, start=1):
        branches.append(Branch(
            id=i, from_bus=a, to_bus=b,
            susceptance=float(np.round(rng.uniform(5, 15), 3)),
            rate_long_term=1.0, rate_emergency=1.0))

    skeleton = SystemCase(buses=tuple(buses), branches=tuple(branches),
                          generators=tuple(generators), horizon=T)
    flows = _merit_order_flows(skeleton)

    # Worst predicted post-outage loading per line under the merit dispatch.
    bridges, non_radial = classify_radial(skeleton)
    ptdf = compute_ptdf(skeleton)
    lodf = compute_lodf(skeleton, ptdf, non_radial)
    bpos = skeleton.branch_index
    need = np.zeros(len(branches))
    for i, k in enumerate(branches):
        worst = np.abs(flows[i, :]).max()
        for c in sorted(non_radial):
            if c == k.id:
                continue
            ci = bpos[c]
            post = np.abs(flows[i, :] + lodf[i, ci] * flows[ci, :]).max()
            worst = max(worst, post)
        need[i] = worst

    # Roughly a quarter of the lines get an emergency rating below their
    # predicted worst post-outage flow, forcing genuine redispatch or cuts;
    # the rest are covered with margin so most instances stay feasible.
    rated = []
    for i, k in enumerate(branches):
        long_term = float(np.round(max(1.3 * np.abs(flows[i, :]).max(), 15.0), 1))
        factor = rng.uniform(0.82, 0.98) if rng.random() < 0.25 else rng.uniform(1.03, 1.2)
        emergency = float(np.round(max(long_term * 1.05, need[i] * factor, 16.0), 1))
        rated.append(dataclasses.replace(k, rate_long_term=long_term,
                                         rate_emergency=emergency))
    return dataclasses.replace(skeleton, branches=tuple(rated))
