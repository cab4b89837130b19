"""Case files, run reports and schedule export.

Case files are JSON with explicit unit-commitment fields (see README for
the schema).  Reports are emitted with sorted keys and fixed float
formatting so identical runs produce byte-identical files; wall-clock
timings go to a separate sidecar file to keep the report deterministic.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .model import (MucSolution, SubproblemOutcome, SystemCase, Bus, Branch,
                    Generator, is_real)


class CaseIOError(Exception):
    """Base class for case/report file problems."""


class CaseFormatError(CaseIOError):
    """Malformed JSON or a schema violation, with the offending location."""


class CaseValidationError(CaseIOError, ValueError):
    """Structurally complete case that breaks a model invariant, raised by
    ``solve`` and ``verify_schedule``, which validate the case they take."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"case failed validation: {lines}")


_BUS_KEYS = {"id", "demand", "reference"}
_BRANCH_KEYS = {"id", "from", "to", "susceptance", "rate_long_term",
                "rate_emergency", "reconfigurable"}
_GEN_KEYS = {"id", "bus", "p_min", "p_max", "cost_linear", "cost_no_load",
             "cost_startup", "ramp_hourly", "ramp_startup", "ramp_shutdown",
             "ramp_10", "min_up", "min_down", "initial_status", "initial_output"}


_REQUIRED = object()


def _need(record: dict, key: str, where: str, default=_REQUIRED):
    if key in record:
        return record[key]
    if default is _REQUIRED:
        raise CaseFormatError(f"{where}: missing required field {key!r}")
    return default


def _check_keys(record: dict, allowed: set[str], where: str):
    unknown = set(record) - allowed
    if unknown:
        raise CaseFormatError(f"{where}: unknown field(s) {sorted(unknown)}")


def _wrong_type(where: str, expected: str, value) -> CaseFormatError:
    return CaseFormatError(f"{where} must be {expected}, got {json.dumps(value)}")


def _as_number(value, where: str) -> float:
    if not is_real(value):
        raise _wrong_type(where, "a number", value)
    return float(value)


def _number(record: dict, key: str, where: str, default=_REQUIRED) -> float:
    return _as_number(_need(record, key, where, default), f"{where}.{key}")


def _integer(record: dict, key: str, where: str) -> int:
    value = _need(record, key, where)
    if not (is_real(value) and float(value).is_integer()):
        raise _wrong_type(f"{where}.{key}", "an integer", value)
    return int(value)


def _flag(record: dict, key: str, where: str, default: bool) -> bool:
    value = _need(record, key, where, default)
    if not isinstance(value, bool):
        raise _wrong_type(f"{where}.{key}", "true or false", value)
    return value


def _records(data: dict, key: str):
    """``(location, record)`` for each object in the array ``data[key]``."""
    records = _need(data, key, "case")
    if not isinstance(records, list):
        raise _wrong_type(key, "an array", records)
    for i, rec in enumerate(records):
        where = f"{key}[{i}]"
        if not isinstance(rec, dict):
            raise _wrong_type(where, "an object", rec)
        yield where, rec


def case_from_dict(data: dict) -> SystemCase:
    """Build a case from its JSON document, checking every field's type.

    Ids, bus references, the horizon and minimum up/down times must be
    integral numbers, every other numeric field a number, and flags JSON
    booleans; anything else raises a CaseFormatError naming its location.
    The model's invariants (``validate_case``) are left to ``solve`` and
    ``verify_schedule``, so each command validates its case once.
    """
    if not isinstance(data, dict):
        raise CaseFormatError("top level must be a JSON object")
    _check_keys(data, {"base_mva", "horizon", "buses", "branches", "generators"}, "case")
    horizon = _integer(data, "horizon", "case")
    base_mva = _number(data, "base_mva", "case")

    buses = []
    for where, rec in _records(data, "buses"):
        _check_keys(rec, _BUS_KEYS, where)
        demand = _need(rec, "demand", where)
        if not isinstance(demand, list):
            raise CaseFormatError(f"{where}: demand must be an array")
        buses.append(Bus(id=_integer(rec, "id", where),
                         demand=tuple(_as_number(d, f"{where}.demand[{i}]")
                                      for i, d in enumerate(demand)),
                         is_reference=_flag(rec, "reference", where, False)))

    branches = []
    for where, rec in _records(data, "branches"):
        _check_keys(rec, _BRANCH_KEYS, where)
        branches.append(Branch(
            id=_integer(rec, "id", where),
            from_bus=_integer(rec, "from", where),
            to_bus=_integer(rec, "to", where),
            susceptance=_number(rec, "susceptance", where),
            rate_long_term=_number(rec, "rate_long_term", where),
            rate_emergency=_number(rec, "rate_emergency", where),
            reconfigurable=_flag(rec, "reconfigurable", where, True)))

    generators = []
    for where, rec in _records(data, "generators"):
        _check_keys(rec, _GEN_KEYS, where)
        generators.append(Generator(
            id=_integer(rec, "id", where),
            bus=_integer(rec, "bus", where),
            p_min=_number(rec, "p_min", where),
            p_max=_number(rec, "p_max", where),
            cost_linear=_number(rec, "cost_linear", where),
            cost_no_load=_number(rec, "cost_no_load", where),
            cost_startup=_number(rec, "cost_startup", where),
            ramp_hourly=_number(rec, "ramp_hourly", where),
            ramp_startup=_number(rec, "ramp_startup", where),
            ramp_shutdown=_number(rec, "ramp_shutdown", where),
            ramp_10=_number(rec, "ramp_10", where),
            min_up=_integer(rec, "min_up", where),
            min_down=_integer(rec, "min_down", where),
            initial_status=_flag(rec, "initial_status", where, False),
            initial_output=_number(rec, "initial_output", where, 0.0)))

    return SystemCase(buses=tuple(buses), branches=tuple(branches),
                      generators=tuple(generators), horizon=horizon,
                      base_mva=base_mva)


def case_to_dict(case: SystemCase) -> dict:
    return {
        "base_mva": case.base_mva,
        "horizon": case.horizon,
        "buses": [
            {"id": b.id, "demand": list(b.demand),
             **({"reference": True} if b.is_reference else {})}
            for b in case.buses
        ],
        "branches": [
            {"id": k.id, "from": k.from_bus, "to": k.to_bus,
             "susceptance": k.susceptance,
             "rate_long_term": k.rate_long_term,
             "rate_emergency": k.rate_emergency,
             "reconfigurable": k.reconfigurable}
            for k in case.branches
        ],
        "generators": [
            {"id": g.id, "bus": g.bus, "p_min": g.p_min, "p_max": g.p_max,
             "cost_linear": g.cost_linear, "cost_no_load": g.cost_no_load,
             "cost_startup": g.cost_startup, "ramp_hourly": g.ramp_hourly,
             "ramp_startup": g.ramp_startup, "ramp_shutdown": g.ramp_shutdown,
             "ramp_10": g.ramp_10, "min_up": g.min_up, "min_down": g.min_down,
             "initial_status": g.initial_status,
             "initial_output": g.initial_output}
            for g in case.generators
        ],
    }


def parse_case(path: str | Path) -> SystemCase:
    """Read and schema-check a case file (see ``case_from_dict``)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CaseIOError(f"cannot read case file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"{path}: malformed JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from None
    try:
        return case_from_dict(data)
    except CaseFormatError as exc:
        raise CaseFormatError(f"{path}: {exc}") from None


def write_case(case: SystemCase, path: str | Path) -> None:
    Path(path).write_text(json.dumps(case_to_dict(case), indent=2, sort_keys=True) + "\n")


@dataclass
class IterationStats:
    iteration: int
    muc_objective: float
    candidates: int
    screened_out: int
    pcfc_solved: int
    pcfc_infeasible: int
    nr_pcfc_solved: int
    switches_found: int
    cuts_added: int


@dataclass
class RunReport:
    """Machine-readable summary of one solver run."""

    method: str
    status: str
    converged: bool
    objective: float | None
    iterations: int
    iteration_log: list[IterationStats] = field(default_factory=list)
    subproblems: list[SubproblemOutcome] = field(default_factory=list)
    switches: list[tuple[int, int, int]] = field(default_factory=list)
    unresolved: list[tuple[int, int]] = field(default_factory=list)
    cuts_total: int = 0
    timings: dict[str, float | list] = field(default_factory=dict)


def _report_to_dict(report: RunReport, schedule: MucSolution | None) -> dict:
    doc = {
        "method": report.method,
        "status": report.status,
        "converged": report.converged,
        "objective": report.objective,
        "iterations": report.iterations,
        "iteration_log": [asdict(s) for s in report.iteration_log],
        "subproblems": [
            {"contingency": o.contingency, "period": o.period, "status": o.status,
             "slack": o.slack, "switch": o.switch}
            for o in report.subproblems
        ],
        "switches": [
            {"contingency": c, "period": t, "branch": j}
            for c, t, j in report.switches
        ],
        "unresolved": [
            {"contingency": c, "period": t} for c, t in report.unresolved
        ],
        "cuts_total": report.cuts_total,
    }
    if schedule is not None:
        doc["solution"] = {
            "generator_ids": list(schedule.generator_ids),
            "branch_ids": list(schedule.branch_ids),
            "bus_ids": list(schedule.bus_ids),
            "u": schedule.u.astype(int).tolist(),
            "v": schedule.v.astype(int).tolist(),
            "p": schedule.p.tolist(),
            "r": schedule.r.tolist(),
            "flow": schedule.flow.tolist(),
            "theta": schedule.theta.tolist(),
            "objective": schedule.objective,
        }
    else:
        doc["solution"] = None
    return doc


def write_report(report: RunReport, schedule: MucSolution | None,
                 out_dir: str | Path) -> dict[str, Path]:
    """Write report.json, schedule.csv and timings.json into ``out_dir``.

    report.json and schedule.csv are byte-deterministic for identical runs;
    timings.json carries the wall-clock numbers, each a float or, per
    master, a list in solve order, and is the only non-reproducible artifact.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = {"report": out / "report.json",
                 "schedule": out / "schedule.csv",
                 "timings": out / "timings.json"}
        paths["report"].write_text(
            json.dumps(_report_to_dict(report, schedule), indent=2, sort_keys=True) + "\n")
        with paths["schedule"].open("w", newline="") as fh:
            writer = csv.writer(fh)
            if schedule is not None:
                periods = schedule.u.shape[1]
                writer.writerow(["generator"] + [f"t{t}" for t in range(1, periods + 1)])
                for gi, gid in enumerate(schedule.generator_ids):
                    writer.writerow(
                        [gid] + [f"{int(schedule.u[gi, t])}:{schedule.p[gi, t]:.6f}"
                                 for t in range(periods)])
            else:
                writer.writerow(["generator"])
        timings = {k: [round(x, 6) for x in v] if isinstance(v, list) else round(v, 6)
                   for k, v in report.timings.items()}
        paths["timings"].write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")
        return paths
    except OSError as exc:
        raise CaseIOError(f"cannot write report to {out}: {exc}") from None


def check_solution_fits(case: SystemCase, schedule: MucSolution) -> None:
    """Raise CaseFormatError at the first way ``schedule`` does not fit
    ``case``: generator, branch and bus ids in the case's order, every array
    shaped (entities x horizon) and finite, 0/1 commitment and start-up.
    The message names the field, as ``solution.<field>``, and not a file."""
    for key, entities in (("generator_ids", case.generators),
                          ("branch_ids", case.branches), ("bus_ids", case.buses)):
        ids = getattr(schedule, key)
        expected = [e.id for e in entities]
        if list(ids) != expected:
            raise CaseFormatError(f"solution.{key} {list(ids)} do not match "
                                  f"the case's {expected}")
    for key, entity in (("u", "generator"), ("v", "generator"), ("p", "generator"),
                        ("r", "generator"), ("flow", "branch"), ("theta", "bus")):
        arr = getattr(schedule, key)
        shape = (len(getattr(schedule, f"{entity}_ids")), case.horizon)
        if arr.shape != shape:
            raise CaseFormatError(f"solution.{key} has shape {arr.shape}, "
                                  f"expected {shape} ({entity}s x horizon)")
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            i, t = bad[0]
            raise CaseFormatError(f"solution.{key}[{i}][{t}] is {arr[i, t]}, "
                                  "expected a finite number")
    for key in ("u", "v"):
        arr = getattr(schedule, key)
        bad = np.argwhere((arr != 0) & (arr != 1))
        if len(bad):
            i, t = bad[0]
            raise CaseFormatError(f"solution.{key}[{i}][{t}] is {arr[i, t]}, "
                                  "expected 0 or 1")


def load_solution(path: str | Path) -> tuple[dict, MucSolution]:
    """Read back a report.json; returns the raw document and its schedule."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise CaseIOError(f"cannot read report {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"{path}: malformed JSON: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise CaseFormatError(f"{path}: a report must be a JSON object")
    sol = doc.get("solution")
    if not isinstance(sol, dict):
        raise CaseFormatError(f"{path}: report carries no solution block")
    arrays = {}
    for name in ("u", "v", "p", "r", "flow", "theta"):
        try:
            arrays[name] = np.asarray(sol[name], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise CaseFormatError(f"{path}: solution.{name} is missing or not a "
                                  "rectangular array of numbers") from None
    try:
        schedule = MucSolution(
            generator_ids=tuple(sol["generator_ids"]),
            branch_ids=tuple(sol["branch_ids"]),
            bus_ids=tuple(sol["bus_ids"]),
            objective=float(sol["objective"]),
            **arrays,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CaseFormatError(f"{path}: solution block is incomplete: {exc}") from None
    return doc, schedule
