"""scucnr benchmark: seeded solve-and-audit workloads through the public API.

    python3 perfbench/run.py --workload rts24-td --seed 1 --seconds 15 --trace 0

Run from the repository root.  One process runs one workload as a closed
loop, one solve at a time: each pass parses the workload's case file, runs
its ``solve()`` calls, writes each report, then audits every schedule with
``verify_solution``.  Passes repeat until ``--seconds`` is used up (at least
two, so that report bytes can be compared between passes).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``tracing.py``).  The last line of standard output is the result object;
the line before it carries the details: sample counts and percentiles,
failure reasons, the environment stamp and, when tracing, the expected
layer shares with their bases.

Each workload's case comes from ``fixtures.random_case`` with a pinned case
seed, and its file hash and solve objectives are pinned in
``workloads.json``.  ``--seed`` relabels the ids of buses, branches and
generators by a strictly increasing map, so every seed gives a different
case file that poses the same problem in the same order: the pins hold and
the work per pass is the same.  ``--case-seed`` swaps in another generated
case; the hash and objective pins then give way to the audit and a
method-order check.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import probe
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SPEC_PATH = HERE / "workloads.json"

SETUP_REPS = 5
SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import scucnr\n"
    "scucnr.parse_case(sys.argv[1])\n"
    "setup_s = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import probe\n"
    "print(repr(setup_s), repr(probe.settled_probe()))\n"
)
MIN_PASSES = 2
MAX_BREACHES_LISTED = 20


def die(message: str):
    """Stop without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program():
    """Import scucnr from this checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "scucnr" / "__init__.py").is_file():
        die(f"no scucnr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scucnr
    import scucnr.fixtures
    if Path(scucnr.__file__).resolve().parent != SRC / "scucnr":
        die(f"imported scucnr from {scucnr.__file__}, not {SRC}")
    return scucnr


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def relabel(case, seed: int):
    """The same case with ids replaced by a seeded strictly increasing map.

    Every sort by id, tie-break and loop order in the solver is unchanged,
    so the solved models are identical up to names.
    """
    rng = np.random.default_rng(seed)

    def mapping(ids):
        ids = sorted(ids)
        new = int(rng.integers(0, 1000)) + np.cumsum(rng.integers(1, 10, size=len(ids)))
        return {old: int(n) for old, n in zip(ids, new)}

    bus = mapping(b.id for b in case.buses)
    branch = mapping(k.id for k in case.branches)
    gen = mapping(g.id for g in case.generators)
    return dataclasses.replace(
        case,
        buses=tuple(dataclasses.replace(b, id=bus[b.id]) for b in case.buses),
        branches=tuple(dataclasses.replace(k, id=branch[k.id], from_bus=bus[k.from_bus],
                                           to_bus=bus[k.to_bus]) for k in case.branches),
        generators=tuple(dataclasses.replace(g, id=gen[g.id], bus=bus[g.bus])
                         for g in case.generators))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Counts operations and failures against the pins; never raises.

    An operation is one solve or one audit.  A solve fails on an exception,
    a status other than the pinned one, an objective more than ``rel_tol``
    (relative) off its pin, or report.json bytes that differ from the first
    pass; an audit fails on an exception, a missing schedule or an insecure
    verdict.  Without objective pins (a held-out case seed), a ``*_cnr``
    objective above its plain method's objective times (1 + rel_tol) fails
    the ``*_cnr`` solve instead.
    """

    def __init__(self, solves: list[dict], rel_tol: float, pinned: bool):
        self.solves = solves
        self.rel_tol = rel_tol
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.breaches: list[str] = []
        self.first_reports: dict[str, bytes] = {}

    def fail(self, op: str, reasons: list[str]) -> None:
        self.failed += 1
        if len(self.breaches) < MAX_BREACHES_LISTED:
            self.breaches.append(f"{op}: " + "; ".join(reasons))

    def solve_reasons(self, op: dict, result, report_bytes: bytes | None) -> list[str]:
        reasons = []
        if result.status != op["status"]:
            reasons.append(f"status {result.status}, pinned {op['status']}")
        objective = result.schedule.objective if result.schedule is not None else None
        if self.pinned:
            pin = op["objective"]
            if objective is None or abs(objective - pin) > self.rel_tol * abs(pin):
                reasons.append(f"objective {objective}, pinned {pin}")
        if report_bytes is not None:
            first = self.first_reports.setdefault(op["method"], report_bytes)
            if report_bytes != first:
                reasons.append("report.json differs from the first pass")
        return reasons

    def order_reasons(self, results: dict) -> dict[str, list[str]]:
        if self.pinned:
            return {}
        out = {}
        for method, result in results.items():
            plain = results.get(method.removesuffix("_cnr"))
            if method.endswith("_cnr") and plain is not None and result is not None:
                hi = plain.schedule.objective * (1 + self.rel_tol) if plain.schedule else None
                lo = result.schedule.objective if result.schedule else None
                if hi is not None and lo is not None and lo > hi:
                    out[method] = [f"objective {lo} above {plain.method}'s {hi / (1 + self.rel_tol)}"]
        return out


def run_pass(sc, case_path: Path, checker: Checker, out_dir: Path) -> dict[str, float]:
    """One pass: parse, every solve (timed), reports, every audit (timed).

    A probe runs before the first timed operation and after each one.
    Returns the pass's raw totals (``raw_<name>``), the same totals with each
    operation scaled to the reference machine speed by the mean of the
    probes on either side of it (``<name>``), and the mean probe time.
    """
    case = sc.parse_case(case_path)
    times = dict.fromkeys(("solve_s", "solve_cpu_s", "verify_s", "raw_solve_s",
                           "raw_solve_cpu_s", "raw_verify_s"), 0.0)
    probes = [probe.probe()]

    def account(name: str, seconds: float) -> None:
        times[f"raw_{name}"] += seconds
        times[name] += seconds * probe.REF_S / ((probes[-2] + probes[-1]) / 2)
    results, reasons = {}, {}
    for op in checker.solves:
        method = op["method"]
        options = sc.SolveOptions(method=method, workers=op.get("workers", 1))
        checker.attempted += 1
        result = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = sc.solve(case, options)
        except Exception as exc:  # a failed solve is counted, never fatal
            reasons[method] = [f"solve raised {exc!r}"]
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        probes.append(probe.probe())
        account("solve_s", wall)
        account("solve_cpu_s", cpu)
        results[method] = result
        if result is None:
            continue
        try:
            paths = sc.write_report(result.report, result.schedule, out_dir / method)
            report_bytes = paths["report"].read_bytes()
        except Exception as exc:
            reasons.setdefault(method, []).append(f"write_report raised {exc!r}")
            report_bytes = None
        reasons.setdefault(method, []).extend(checker.solve_reasons(op, result, report_bytes))
    for method, extra in checker.order_reasons(results).items():
        reasons.setdefault(method, []).extend(extra)
    for method, why in reasons.items():
        if why:
            checker.fail(method, why)

    for op in checker.solves:
        method = op["method"]
        result = results[method]
        checker.attempted += 1
        if result is None or result.schedule is None:
            checker.fail(f"{method} audit", ["no schedule to audit"])
            continue
        t0 = time.perf_counter()
        try:
            audit = sc.verify_solution(case, result)
        except Exception as exc:
            checker.fail(f"{method} audit", [f"verify_solution raised {exc!r}"])
            continue
        finally:
            wall = time.perf_counter() - t0
            probes.append(probe.probe())
            account("verify_s", wall)
        if not audit.secure:
            checker.fail(f"{method} audit",
                         [f"{len(audit.violations)} of {audit.pairs_checked} pairs insecure"])
    times["probe_s"] = statistics.mean(probes)
    return times


def measure_setup(case_path: Path) -> tuple[list[float], list[float]]:
    """``import scucnr`` plus ``parse_case`` in fresh interpreters, one at a
    time.  Returns the raw set-up times and each interpreter's probe time,
    taken right after its set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    raw, probes = [], []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(case_path), str(HERE)],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        setup_s, probe_s = map(float, out.stdout.strip().splitlines()[-1].split())
        raw.append(setup_s)
        probes.append(probe_s)
    return raw, probes


def warm_up(sc) -> None:
    """One small solve, audit and probe, so first-call costs stay out of the
    timers."""
    probe.probe()
    case = sc.fixtures.corridor4_low()
    result = sc.solve(case, sc.SolveOptions(method="td_scuc_cnr"))
    sc.verify_solution(case, result)


def summary(samples: list[float]) -> dict:
    """Fastest sample, median and the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    high = None
    if n > 10:
        high = {"percentile": round(100.0 * (n - 10) / n, 3), "value": ordered[n - 11]}
    return {"min": ordered[0], "median": statistics.median(ordered), "high": high, "n": n,
            "samples": samples}


def env_stamp() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg_start": loadavg()}


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def prepare_case(sc, spec: dict, seed: int, case_seed: int | None, work: Path) -> Path:
    """Generate the workload's case, check its pinned hash, write the seeded file."""
    params = dict(spec["case"])
    if case_seed is not None:
        params["seed"] = case_seed
    case = sc.fixtures.random_case(params["seed"], params["buses"], params["generators"],
                                   params["horizon"])
    canonical = work / "case.json"
    sc.write_case(case, canonical)
    digest = sha256(canonical)
    if case_seed is None and digest != spec["case_sha256"]:
        die(f"case file hash {digest} does not match the pinned "
            f"{spec['case_sha256']}; the workload's input changed")
    seeded = relabel(case, seed)
    path = work / f"case-{seed}.json"
    sc.write_case(seeded, path)
    if sc.parse_case(path) != seeded:
        die(f"{path} does not parse back to the case it was written from")
    return path


def measure(sc, case_path: Path, checker: Checker, work: Path, seconds: float,
            trace: bool) -> tuple[list[dict], list[dict], list, list[str]]:
    """Run passes until the time is used.  Returns untraced pass times,
    traced pass breakdowns, the spans of the last traced pass and the wrapped
    names that were missing."""
    plain, traced, last_spans = [], [], []
    missing: list[str] = []
    start = time.perf_counter()
    durations = []
    n = 0
    while True:
        t0 = time.perf_counter()
        if trace and n % 2 == 1:
            tracer = tracing.Tracer()
            with tracing.Installed(tracer) as installed:
                times = run_pass(sc, case_path, checker, work / f"pass{n}")
            missing = installed.missing
            last_spans = tracer.take()
            traced.append(tracing.breakdown(last_spans, times["raw_solve_s"]))
        else:
            plain.append(run_pass(sc, case_path, checker, work / f"pass{n}"))
        shutil.rmtree(work / f"pass{n}", ignore_errors=True)
        durations.append(time.perf_counter() - t0)
        n += 1
        elapsed = time.perf_counter() - start
        if n >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
    return plain, traced, last_spans, missing


def expectations(spec: dict, metrics: dict, layers: dict, absent: list[str]) -> list[dict]:
    """Each expected share or count of the workload, with its base and verdict.

    A name is a result metric or a key of the breakdown; one that did not run
    reads 0.  A result metric whose wrapped name is missing leaves the
    verdict open.
    """
    def value(name):
        if name in absent:
            return None
        return metrics[name] if name in metrics else layers.get(name, 0)

    out = []
    for e in spec.get("expect", []):
        num = value(e["metric"])
        den = value(e["base"]) if e.get("base") else 1.0
        if num is None or den is None:
            out.append({**e, "value": None, "agrees": None})
            continue
        share = num / den if den else 0.0
        agrees = (share >= e.get("min", -float("inf"))) and (share <= e.get("max", float("inf")))
        out.append({**e, "numerator": num, "denominator": den, "value": share,
                    "agrees": agrees})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="relabels case ids; the problem and pins are unchanged")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--case-seed", type=int, default=None,
                        help="generate the case from this seed instead of the pinned one")
    args = parser.parse_args(argv)

    spec_all = load_spec()
    if args.workload not in spec_all["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(spec_all['workloads'])}")
    spec = spec_all["workloads"][args.workload]
    sc = load_program()
    env = env_stamp()

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        case_path = prepare_case(sc, spec, args.seed, args.case_seed, work)
        checker = Checker(spec["solves"], spec_all["rel_tol"], pinned=args.case_seed is None)
        warm_up(sc)
        plain, traced, spans, missing = measure(sc, case_path, checker, work,
                                                args.seconds, bool(args.trace))
        # After the passes, so that the set-up interpreters do not disturb them.
        setup = ([], []) if args.trace else measure_setup(case_path)
        if spans:
            tracing.write_spans(spans, WORK / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = loadavg()

    detail = {"workload": args.workload, "seed": args.seed,
              "case_seed": spec["case"]["seed"] if args.case_seed is None else args.case_seed,
              "pinned": checker.pinned, "passes": len(plain) + len(traced),
              "fail_frac": checker.failed / checker.attempted,
              "breaches": checker.breaches, "env": env}
    if args.trace:
        layers, differ = tracing.combine(traced)
        layer = tracing.layer_metrics(layers)
        untraced = statistics.median(p["raw_solve_s"] for p in plain)
        layer["trace.overhead_frac"] = layer["trace.solve_s"] / untraced - 1.0
        absent = tracing.absent_metrics(missing)
        # Every layer metric is printed; one whose wrapped name is missing
        # reads 0 and is listed in detail.absent.
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _, _ in tracing.LAYER_METRICS}
        detail.update({"untraced_solve_s": untraced, "missing_wrapped": missing,
                       "absent": absent, "counts_differ": differ, "breakdown": layers,
                       # per traced pass: medians taken key by key would not add up
                       "accounting": [tracing.accounting(b) for b in traced],
                       "expect": expectations(spec, layer, layers, absent)})
    else:
        raw_setup, setup_probes = setup
        series = {"setup_s": [t * probe.REF_S / p for t, p in zip(raw_setup, setup_probes)],
                  "raw_setup_s": raw_setup, "setup_probe_s": setup_probes}
        series.update({key: [p[key] for p in plain] for key in plain[0]})
        detail["timings"] = {name: summary(v) for name, v in series.items()}
        # Every time is scaled to the reference machine speed (see probe.py)
        # and is the median over the run; the raw times are in the detail.
        metrics = {name: {"value": statistics.median(series[name]), "unit": "s"}
                   for name in ("setup_s", "solve_s", "solve_cpu_s", "verify_s")}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}

    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
