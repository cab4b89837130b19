"""Spans around the public functions of scucnr's modules, and the per-layer
metrics derived from them.

The tracer edits nothing under ``src/``: it replaces, from outside, every
binding of each listed function inside the ``scucnr`` package (the name a
caller looks up, e.g. ``scucnr.orchestrator.solve_pcfc`` as well as
``scucnr.subproblems.solve_pcfc``) with a wrapper that records a span.  A
listed name that no longer exists is reported as missing, and every metric
that depends on it reads 0 and is reported as absent instead of failing the
run.

Spans are kept in memory.  Each thread keeps its own stack of open spans; a
span opened on a worker thread with an empty stack is adopted by the
innermost open span of the thread that created the tracer, which is the
call that is waiting on the worker pool.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) of each traced definition inside the scucnr package.
# The extensive CNR path (``build_extensive_scuc_cnr``,
# ``extract_switching_plan``) is left out: no workload runs it.
# ``backend.linprog`` and ``backend.milp`` are the scipy entry points as the
# backend binds them, so their spans time the HiGHS call itself.
WRAPPED = (
    ("caseio", "parse_case"), ("caseio", "write_report"),
    ("model", "validate_case"),
    ("network", "build_sensitivities"), ("network", "check_connectivity"),
    ("formulations", "build_muc"), ("formulations", "build_extensive_scuc"),
    ("formulations", "assemble_feasibility_cut"), ("formulations", "extract_solution"),
    ("backend", "solve_milp"), ("backend", "solve_lp"),
    ("backend", "milp"), ("backend", "linprog"),
    ("subproblems", "run_csps"), ("subproblems", "solve_pcfc"),
    ("subproblems", "solve_nr_pcfc"), ("subproblems", "find_corrective_switch"),
    ("orchestrator", "solve"), ("orchestrator", "verify_solution"),
)

# The root span of a call tree names the phase of the benchmark pass it
# belongs to.
PHASES = {"orchestrator.solve": "solve", "orchestrator.verify_solution": "verify",
          "caseio.parse_case": "parse", "caseio.write_report": "report"}

MASTER = "backend.solve_milp"
SLAVES = ("subproblems.solve_pcfc", "subproblems.find_corrective_switch")


# Counts read from what a traced call returns.
ATTRS = {
    "backend.linprog": lambda res: {"iters": int(res.nit)},
    "backend.milp": lambda res: {"nodes": int(res.mip_node_count),
                                 "gap": float(res.mip_gap or 0.0)},
    "formulations.build_muc": lambda model: {"rows": int(model.num_constraints)},
    "formulations.build_extensive_scuc": lambda model: {"rows": int(model.num_constraints)},
    "subproblems.run_csps": lambda res: {"pairs": int(res.candidates),
                                         "critical": len(res.critical)},
    "subproblems.solve_pcfc": lambda out: {"infeasible": int(out.status == "infeasible")},
    "subproblems.find_corrective_switch": lambda found: {"found": int(found is not None)},
    "orchestrator.solve": lambda res: {"method": res.method, "iterations": int(res.iterations),
                                       "cuts": len(res.cuts)},
}


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "attrs")

    def __init__(self, name, parent, thread, start, end=0.0, attrs=None):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()

    def wrap(self, name, fn):
        extract = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home) if tid != self._home else None
                parent = home[-1] if home else None
            span = Span(name, parent, tid, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if extract is not None:
                try:
                    span.attrs = extract(result)
                except (AttributeError, TypeError, ValueError):
                    pass  # a refactored return type leaves the counts absent
            return result

        return traced

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


class Installed:
    """Context manager that swaps the wrappers in and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "scucnr" or name.startswith("scucnr."))]
        for module_name, attr in WRAPPED:
            module = sys.modules.get(f"scucnr.{module_name}")
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.tracer.wrap(f"{module_name}.{attr}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)
        return self

    def __exit__(self, *exc):
        for m, key, original in reversed(self._restore):
            setattr(m, key, original)
        self._restore.clear()
        return False


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover.

    Children on other threads may overlap each other; the union counts the
    covered time once.  Keyed by ``id(span)``.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        covered = union_length((max(c.start, s.start), min(c.end, s.end))
                               for c in children[id(s)])
        out[id(s)] = s.duration - covered
    return out


def roots(spans) -> dict[int, Span]:
    """Root span of each span's call tree, keyed by ``id(span)``."""
    out: dict[int, Span] = {}
    for s in spans:
        chain = []
        node = s
        while node.parent is not None and id(node) not in out:
            chain.append(node)
            node = node.parent
        root = out.get(id(node), node)
        out[id(node)] = root
        for c in chain:
            out[id(c)] = root
    return out


def _concurrency(solve_roots, spans_by_root) -> tuple[float, float]:
    """Slave-span seconds and the wall windows they ran in, per iteration.

    Within one solve, the master MILP spans split the slave spans (feasibility
    checks and switch searches that are direct children of the solve) into
    iterations; each iteration's window runs from its first slave start to
    its last slave end.
    """
    busy = window = 0.0
    for root in solve_roots:
        direct = sorted((s for s in spans_by_root[id(root)] if s.parent is root),
                        key=lambda s: s.start)
        group: list[Span] = []
        for s in direct + [None]:
            if s is None or s.name == MASTER:
                if group:
                    busy += sum(g.duration for g in group)
                    window += max(g.end for g in group) - min(g.start for g in group)
                group = []
            elif s.name in SLAVES:
                group.append(s)
    return busy, window


def breakdown(spans, solve_s: float) -> dict[str, int | float]:
    """Flat aggregates of one traced pass, keyed ``<phase>:<span name>.<field>``.

    The phase is named by the root of a span's call tree (``PHASES``).  The
    fields are ``calls``, ``s`` (inclusive seconds), ``self_s`` and the
    counts read from return values (summed; ``gap`` is the largest).  Only
    span names that ran appear, so a key that is missing reads 0.  Derived
    entries of the solve phase: ``orchestrator.solve_s.<method>``,
    ``pcfc_concurrency``, ``screen_hits``, ``screen_hit_rate`` and
    ``switch_found_rate`` (the ratios only when their base is not empty).
    ``pass:solve_s`` is the benchmark's own wall time around the solve()
    calls.  Counts are ints and seconds and ratios are floats.
    """
    selfs = self_times(spans)
    root_of = roots(spans)
    out: dict[str, int | float] = defaultdict(int)
    for s in spans:
        key = f"{PHASES.get(root_of[id(s)].name, 'other')}:{s.name}"
        out[f"{key}.calls"] += 1
        out[f"{key}.s"] += s.duration
        out[f"{key}.self_s"] += selfs[id(s)]
        for k, v in s.attrs.items():
            if isinstance(v, (int, float)):
                field = f"{key}.{k}"
                out[field] = max(float(out[field]), v) if k == "gap" else out[field] + v

    solve_roots = [s for s in spans if s.parent is None and s.name == "orchestrator.solve"]
    spans_by_root = defaultdict(list)
    for s in spans:
        spans_by_root[id(root_of[id(s)])].append(s)
    for r in solve_roots:
        out[f"solve:orchestrator.solve_s.{r.attrs.get('method')}"] += r.duration
    busy, window = _concurrency(solve_roots, spans_by_root)
    if window:
        out["solve:pcfc_concurrency"] = busy / window
    hits = critical = 0
    for root in solve_roots:
        tree = spans_by_root[id(root)]
        screens = [s for s in tree if s.name == "subproblems.run_csps"]
        if screens:
            critical += sum(s.attrs.get("critical", 0) for s in screens)
            hits += sum(s.attrs.get("infeasible", 0) for s in tree
                        if s.name == "subproblems.solve_pcfc")
    out["solve:screen_hits"] = hits
    if critical:
        out["solve:screen_hit_rate"] = hits / critical
    searches = out.get("solve:subproblems.find_corrective_switch.calls", 0)
    if searches:
        out["solve:switch_found_rate"] = \
            out.get("solve:subproblems.find_corrective_switch.found", 0) / searches
    out["pass:solve_s"] = float(solve_s)
    return dict(out)


# Each per-layer metric of the result: (name, unit, better, span names it
# needs).  Every one is fed on every workload, and every one in seconds is
# above 0 on every workload: what runs on some workloads only (the screen,
# the switch search, the extensive builder) is reported by its counts here
# and by its seconds in the breakdown of the detail line.  The LP path
# (``backend.lp_*``, ``subproblems.pcfc_*``, ``subproblems.nr_pcfc_solves``)
# runs in both solve() and verify_solution() and is summed over the whole
# pass; ``audit.*`` is the verify part of it.  ``caseio.*`` and
# ``model.validate_*`` span the whole pass; the rest is the solve phase.
LAYER_METRICS = [
    ("caseio.parse_s", "s", "lower", ("caseio.parse_case",)),
    ("caseio.write_report_s", "s", "lower", ("caseio.write_report",)),
    ("model.validate_calls", "count", "lower", ("model.validate_case",)),
    ("model.validate_s", "s", "lower", ("model.validate_case",)),
    ("network.sensitivities_s", "s", "lower", ("network.build_sensitivities",)),
    ("network.connectivity_calls", "count", "lower", ("network.check_connectivity",)),
    ("network.connectivity_s", "s", "lower", ("network.check_connectivity",)),
    ("formulations.master_rows", "count", "lower", ("formulations.build_muc",)),
    ("formulations.cuts", "count", "lower", ("formulations.assemble_feasibility_cut",)),
    ("formulations.extensive_rows", "count", "lower", ("formulations.build_extensive_scuc",)),
    ("formulations.extract_s", "s", "lower", ("formulations.extract_solution",)),
    ("formulations.self_s", "s", "lower", ("orchestrator.solve",)),
    ("backend.milp_solves", "count", "lower", ("backend.solve_milp",)),
    ("backend.milp_s", "s", "lower", ("backend.solve_milp",)),
    ("backend.milp_engine_s", "s", "lower", ("backend.milp",)),
    ("backend.milp_nodes", "count", "lower", ("backend.milp",)),
    ("backend.milp_gap", "1", "lower", ("backend.milp",)),
    ("backend.lp_solves", "count", "lower", ("backend.solve_lp",)),
    ("backend.lp_s", "s", "lower", ("backend.solve_lp",)),
    ("backend.linprog_s", "s", "lower", ("backend.linprog",)),
    ("backend.lp_adapter_s", "s", "lower", ("backend.solve_lp", "backend.linprog")),
    ("backend.lp_simplex_iters", "count", "lower", ("backend.linprog",)),
    ("subproblems.pcfc_solves", "count", "lower", ("subproblems.solve_pcfc",)),
    ("subproblems.pcfc_s", "s", "lower", ("subproblems.solve_pcfc",)),
    ("subproblems.pcfc_self_s", "s", "lower", ("subproblems.solve_pcfc",)),
    ("subproblems.pcfc_infeasible_rate", "1", "lower", ("subproblems.solve_pcfc",)),
    ("subproblems.nr_pcfc_solves", "count", "lower", ("subproblems.solve_nr_pcfc",)),
    ("subproblems.screen_calls", "count", "lower", ("subproblems.run_csps",)),
    ("subproblems.screen_pairs", "count", "lower", ("subproblems.run_csps",)),
    ("subproblems.screen_critical", "count", "lower", ("subproblems.run_csps",)),
    ("subproblems.screen_hits", "count", "higher",
     ("subproblems.run_csps", "subproblems.solve_pcfc")),
    ("subproblems.switch_searches", "count", "lower", ("subproblems.find_corrective_switch",)),
    ("subproblems.switches_found", "count", "higher", ("subproblems.find_corrective_switch",)),
    ("orchestrator.iterations", "count", "lower", ("orchestrator.solve",)),
    ("orchestrator.cuts_total", "count", "lower", ("orchestrator.solve",)),
    ("orchestrator.self_s", "s", "lower", ("orchestrator.solve",)),
    ("audit.lp_solves", "count", "lower", ("orchestrator.verify_solution", "backend.solve_lp")),
    ("audit.lp_s", "s", "lower", ("orchestrator.verify_solution", "backend.solve_lp")),
    ("audit.connectivity_calls", "count", "lower",
     ("orchestrator.verify_solution", "network.check_connectivity")),
    ("trace.solve_s", "s", "lower", ("orchestrator.solve",)),
    ("trace.remainder_s", "s", "lower", ("orchestrator.solve",)),
    ("trace.overhead_frac", "1", "lower", ("orchestrator.solve",)),
]

MODULES = ("orchestrator", "model", "network", "formulations", "backend", "subproblems")


def module_self(b: dict, module: str) -> float:
    """Self seconds of one module's spans in the solve phase."""
    prefix = f"solve:{module}."
    return sum(v for k, v in b.items() if k.startswith(prefix) and k.endswith(".self_s"))


def layer_metrics(b: dict) -> dict[str, int | float]:
    """The per-layer metrics of the result, from a (combined) breakdown.

    A metric whose spans did not run reads 0.  ``trace.overhead_frac``
    needs an untraced pass and is filled in by the caller.
    """
    def get(key):
        return b.get(key, 0)

    def whole(key):
        return sum(v for k, v in b.items() if k.split(":", 1)[1] == key)

    pcfc_solves = whole("subproblems.solve_pcfc.calls")
    solve_s = get("pass:solve_s")
    return {
        "caseio.parse_s": whole("caseio.parse_case.s"),
        "caseio.write_report_s": whole("caseio.write_report.s"),
        "model.validate_calls": whole("model.validate_case.calls"),
        "model.validate_s": whole("model.validate_case.s"),
        "network.sensitivities_s": get("solve:network.build_sensitivities.s"),
        "network.connectivity_calls": get("solve:network.check_connectivity.calls"),
        "network.connectivity_s": get("solve:network.check_connectivity.s"),
        "formulations.master_rows": get("solve:formulations.build_muc.rows"),
        "formulations.cuts": get("solve:formulations.assemble_feasibility_cut.calls"),
        "formulations.extensive_rows": get("solve:formulations.build_extensive_scuc.rows"),
        "formulations.extract_s": get("solve:formulations.extract_solution.s"),
        "formulations.self_s": module_self(b, "formulations"),
        "backend.milp_solves": get(f"solve:{MASTER}.calls"),
        "backend.milp_s": get(f"solve:{MASTER}.s"),
        "backend.milp_engine_s": get("solve:backend.milp.s"),
        "backend.milp_nodes": get("solve:backend.milp.nodes"),
        "backend.milp_gap": get("solve:backend.milp.gap"),
        "backend.lp_solves": whole("backend.solve_lp.calls"),
        "backend.lp_s": whole("backend.solve_lp.s"),
        "backend.linprog_s": whole("backend.linprog.s"),
        "backend.lp_adapter_s": whole("backend.solve_lp.s") - whole("backend.linprog.s"),
        "backend.lp_simplex_iters": whole("backend.linprog.iters"),
        "subproblems.pcfc_solves": pcfc_solves,
        "subproblems.pcfc_s": whole("subproblems.solve_pcfc.s"),
        "subproblems.pcfc_self_s": whole("subproblems.solve_pcfc.self_s"),
        "subproblems.pcfc_infeasible_rate":
            whole("subproblems.solve_pcfc.infeasible") / pcfc_solves if pcfc_solves else 0.0,
        "subproblems.nr_pcfc_solves": whole("subproblems.solve_nr_pcfc.calls"),
        "subproblems.screen_calls": get("solve:subproblems.run_csps.calls"),
        "subproblems.screen_pairs": get("solve:subproblems.run_csps.pairs"),
        "subproblems.screen_critical": get("solve:subproblems.run_csps.critical"),
        "subproblems.screen_hits": get("solve:screen_hits"),
        "subproblems.switch_searches": get("solve:subproblems.find_corrective_switch.calls"),
        "subproblems.switches_found": get("solve:subproblems.find_corrective_switch.found"),
        "orchestrator.iterations": get("solve:orchestrator.solve.iterations"),
        "orchestrator.cuts_total": get("solve:orchestrator.solve.cuts"),
        "orchestrator.self_s": module_self(b, "orchestrator"),
        "audit.lp_solves": get("verify:backend.solve_lp.calls"),
        "audit.lp_s": get("verify:backend.solve_lp.s"),
        "audit.connectivity_calls": get("verify:network.check_connectivity.calls"),
        "trace.solve_s": solve_s,
        "trace.remainder_s": solve_s - get("solve:orchestrator.solve.s"),
        "trace.overhead_frac": 0.0,
    }


def accounting(b: dict) -> dict[str, float]:
    """Module self times plus the untraced remainder against traced solve_s.

    On a serial workload the two sides agree to rounding; with parallel
    slaves the self times of overlapping worker spans add up to more than
    the wall time, and the excess is the overlapped busy time.
    """
    selfs = {m: module_self(b, m) for m in MODULES}
    solve_s = b.get("pass:solve_s", 0.0)
    remainder = solve_s - b.get("solve:orchestrator.solve.s", 0.0)
    self_sum = sum(selfs.values())
    return {"self_s": selfs, "self_sum_s": self_sum, "remainder_s": remainder,
            "solve_s": solve_s, "parallel_excess_s": self_sum + remainder - solve_s}


def absent_metrics(missing) -> list[str]:
    missing = set(missing)
    return [name for name, _, _, needs in LAYER_METRICS if missing.intersection(needs)]


def combine(passes: list[dict]) -> tuple[dict, list[str]]:
    """Median over passes for seconds and ratios; counts must repeat exactly.

    Returns the combined breakdown and the keys of counts that differed
    between passes (reported, first pass's value kept).  A key missing from
    a pass reads 0 there.
    """
    out, differ = {}, []
    for key in sorted(set().union(*passes)):
        values = [p.get(key, 0) for p in passes]
        if all(isinstance(v, int) for v in values):
            out[key] = values[0]
            if any(v != values[0] for v in values):
                differ.append(key)
        else:
            out[key] = statistics.median(values)
    return out, differ


def write_spans(spans, path) -> None:
    """One JSON line per span: name, start, end, parent index, thread, counts."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s.name, "start": s.start, "end": s.end,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "thread": s.thread, "attrs": s.attrs}) + "\n")
