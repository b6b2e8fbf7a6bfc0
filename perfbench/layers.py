"""Per-layer metrics of the traced run.

Each layer's public calls are timed on the first instance of the workload's
pool that the heuristic solves (median of a few repeats), and their outputs
are checked as a request's are. Call counts come from cProfile over real
requests. README.md maps each metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import cProfile
import hashlib
import pstats
import statistics
import time
from pathlib import Path
from typing import Callable

from binpack3d import fileio, model, lp, solver, validate
from binpack3d.solver import SolveResult, SolverConfig

from workloads import (ITERATIONS, Case, Workload, check, request,
                       solution_problems, solve_config, threads_env, validator_energy)
from tracing import NullTracer

ANNEAL_ITERATIONS = 100   # annealer budget of the probe's annealer run
# per-layer metric -> (file suffix, function) whose cProfile call count it is
CALL_COUNTS = {
    "heuristic.can_place_calls": ("solver/heuristic.py", "can_place"),
    "heuristic.item_tail_calls": ("solver/heuristic.py", "item_tail"),
}


def _timed(fn: Callable, repeats: int):
    """(median seconds, last result) over repeats calls of fn."""
    times = []
    result = None
    for _ in range(repeats):
        result = None  # let the previous result go before the next call
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _probe_heuristic(workload: Workload, case: Case) -> tuple[dict[str, float], SolveResult]:
    runs = workload.runs
    construct_s, _ = _timed(lambda: solver.solve_heuristic(
        case.instance, solve_config(workload, case, 0)), 3)
    cfg = solve_config(workload, case, ITERATIONS)
    full, fanned = [], []
    for _ in range(3):  # alternate, so drift in machine load hits both sides
        with threads_env(None):
            seconds, result = _timed(lambda: solver.solve(case.instance, cfg), 1)
        full.append(seconds)
        with threads_env("2"):
            fanned.append(_timed(lambda: solver.solve(case.instance, cfg), 1)[0])
    full_s = statistics.median(full)
    return {
        "heuristic.construct_ms": construct_s * 1e3,
        "heuristic.search_ms_per_iter": (full_s - construct_s) * 1e3 / (ITERATIONS * runs),
        "solver.fanout_speedup": full_s / statistics.median(fanned),
    }, result


def probe(workload: Workload, cases: list[Case], workdir: Path
          ) -> tuple[dict[str, float], list[str], dict]:
    """Time each layer's public calls on the first case the heuristic solves
    (the later probes need its solution) and check what they return.
    Returns the metrics, the problems found, and for the report the probed
    case, the digest of its LP text and whether the annealer found a solution."""
    for case in cases:
        out, result = _probe_heuristic(workload, case)
        if result.best is not None:
            break
    else:
        raise RuntimeError("the heuristic solves no instance of the pool")
    inst = case.instance
    sol = result.best
    tracer = NullTracer()
    problems = solution_problems(case, sol, result.energy, tracer)
    energy = validator_energy(inst, sol, tracer)

    out["validate.check_ms"] = _timed(lambda: validate.check(inst, sol), 5)[0] * 1e3
    out["validate.objectives_ms"] = _timed(lambda: validate.objectives(inst, sol), 5)[0] * 1e3
    out["fileio.load_instance_ms"] = _timed(lambda: fileio.load_instance(case.path), 5)[0] * 1e3
    probe_out = workdir / "probe.sol.json"
    out["fileio.save_solution_ms"] = _timed(lambda: fileio.save_solution(
        sol, probe_out, energy=result.energy, solver="heuristic", seed=case.seed,
        elapsed_s=result.elapsed, time_limit=None, iterations=ITERATIONS,
        run_log=result.run_log, instance_name=case.path.stem), 5)[0] * 1e3

    count_s, counts = _timed(lambda: model.count_model(inst), 3)
    out["model.count_ms"] = count_s * 1e3
    build_s, built = _timed(lambda: model.build_model(inst), 2)
    out["model.build_ms"] = build_s * 1e3
    out["model.rows"] = len(built.constraints)
    out["model.vars"] = len(built.variables)
    out["model.build_rows_per_s"] = len(built.constraints) / build_s
    audit_s, audited = _timed(lambda: model.audit_counts(built), 3)
    out["model.audit_ms"] = audit_s * 1e3
    if audited.as_dict() != counts.as_dict():
        problems.append(f"{case.label}: audit {audited.as_dict()} "
                        f"!= counts {counts.as_dict()}")
    lp_s, text = _timed(lambda: lp.lp_string(built), 2)
    out["lp.string_ms"] = lp_s * 1e3
    out["lp.bytes"] = len(text.encode("utf-8"))
    lp_digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    encode_s, assignment = _timed(lambda: model.encode_solution(inst, sol), 3)
    out["model.encode_ms"] = encode_s * 1e3
    evaluate_s, (objective, violations) = _timed(lambda: model.evaluate(built, assignment), 2)
    out["model.evaluate_ms"] = evaluate_s * 1e3
    if violations:
        problems.append(f"{case.label}: the model finds {len(violations)} violations "
                        f"in a feasible solution, e.g. {violations[0]}")
    if objective != energy:
        problems.append(f"{case.label}: model objective {objective} "
                        f"!= validator energy {energy}")
    del built, text, assignment

    anneal_cfg = SolverConfig(backend="annealer", seed=case.seed, iterations=ANNEAL_ITERATIONS)
    anneal_s, annealed = _timed(lambda: solver.solve_annealer(inst, anneal_cfg), 1)
    out["annealer.solve_ms"] = anneal_s * 1e3
    # derived: the annealer builds its own model before it makes any move
    out["annealer.move_ms"] = (anneal_s - build_s) * 1e3 / ANNEAL_ITERATIONS
    if annealed.best is not None:
        problems += solution_problems(case, annealed.best, annealed.energy, tracer)
    return out, problems, {"case": case.label, "lp_digest": lp_digest,
                           "annealer_feasible": annealed.best is not None}


def profile(workload: Workload, cases: list[Case], workdir: Path
            ) -> tuple[dict[str, int], list[dict], list[str]]:
    """cProfile one request per archetype. Returns the summed CALL_COUNTS, the
    top 10 functions by self time of the first profiled request, and the
    problems the requests' checks found. Checks run outside the profile."""
    first = {}
    for case in cases:
        first.setdefault(case.archetype, case)
    counts = dict.fromkeys(CALL_COUNTS, 0)
    top: list[dict] = []
    problems: list[str] = []
    tracer = NullTracer()
    # cProfile sees only the calling thread; the fan-out changes which thread
    # runs each heuristic run, not the calls made, so profile sequentially
    with threads_env(None):
        for case in first.values():
            prof = cProfile.Profile()
            prof.enable()
            output = request(workload, case, workdir, tracer)
            prof.disable()
            problems += check(case, *output, tracer).problems
            stats = pstats.Stats(prof).stats
            for (filename, _, func), (_, calls, *_rest) in stats.items():
                for name, (suffix, target) in CALL_COUNTS.items():
                    if func == target and filename.replace("\\", "/").endswith(suffix):
                        counts[name] += calls
            if not top:
                ranked = sorted(stats.items(), key=lambda kv: -kv[1][2])[:10]
                top = [{"function": f"{Path(f).name}:{line}({func})",
                        "self_ms": round(tt * 1e3, 3), "calls": calls,
                        "archetype": case.archetype}
                       for (f, line, func), (_, calls, tt, *_r) in ranked]
    return counts, top, problems
