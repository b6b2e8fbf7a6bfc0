"""The benchmark's workloads: instance pools, requests and correctness checks.

A request is the sequence of calls into the library's public functions that
one user action makes. Its correctness checks run after it and are not timed.
"""

from __future__ import annotations

import hashlib
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional

from binpack3d import datagen, fileio, solver, validate
from binpack3d.core import Instance, PackingSolution
from binpack3d.solver import SolveResult, SolverConfig, solution_energy

ITERATIONS = 120          # local-search budget of a solve request
SETUP_ITERATIONS = 20     # budget of the warm-up request
WEIGHTS = (1, 1, 1)       # SolverConfig's default objective weights
THREADS_VAR = "BINPACK3D_THREADS"


@dataclass(frozen=True)
class Workload:
    name: str
    archetypes: tuple[int, ...]
    copies: int                 # instances per archetype in the pool
    runs: int                   # heuristic runs per solve request
    threads: Optional[str]      # BINPACK3D_THREADS during requests; None unsets it


WORKLOADS = {w.name: w for w in (
    Workload("pack-plain", (1, 2, 3, 5, 6, 7, 8, 9, 10), 8, 1, None),
    Workload("pack-loadbearing", (4, 11, 12), 12, 2, "2"),
)}


@dataclass
class Case:
    """One generated instance of a workload's pool."""

    label: str
    archetype: int
    seed: int                   # instance seed, also the solver seed
    path: Path                  # the instance file the requests load
    instance: Instance


@dataclass
class Checked:
    """What the untimed checks learned from one request."""

    problems: list[str]
    digest: str                 # sha256 of the solution bytes
    energy: Optional[Fraction]  # energy of the returned solution
    feasible: bool              # the solve returned a solution


@contextmanager
def threads_env(value: Optional[str]) -> Iterator[None]:
    """Set BINPACK3D_THREADS to value (unset it for None), restoring it after."""
    saved = os.environ.pop(THREADS_VAR, None)
    if value is not None:
        os.environ[THREADS_VAR] = value
    try:
        yield
    finally:
        os.environ.pop(THREADS_VAR, None)
        if saved is not None:
            os.environ[THREADS_VAR] = saved


def pool_seeds(workload: Workload, seed: int) -> list[tuple[int, int]]:
    """(archetype, instance seed) for each pool entry, derived from the workload seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [(a, rng.randrange(1, 2**31))
            for _ in range(workload.copies) for a in workload.archetypes]


def generate(archetype: int, seed: int, workdir: Path, tracer) -> Case:
    with tracer.span("datagen.archetype"):
        instance = datagen.archetype(archetype, seed=seed)
    path = workdir / f"a{archetype:02d}-s{seed}.json"
    with tracer.span("fileio.save_instance"):
        fileio.save_instance(instance, path)
    return Case(path.stem, archetype, seed, path, instance)


def solve_config(workload: Workload, case: Case, iterations: int) -> SolverConfig:
    return SolverConfig(seed=case.seed, runs=workload.runs, iterations=iterations)


def save(result: SolveResult, case: Case, workdir: Path, iterations: int, tracer) -> Path:
    """Write a solution as ``binpack3d solve --iterations ... --out`` does."""
    out = workdir / f"{case.label}.sol.json"
    with tracer.span("fileio.save_solution"):
        fileio.save_solution(
            result.best, out, energy=result.energy, solver="heuristic",
            seed=case.seed, elapsed_s=result.elapsed, time_limit=None,
            iterations=iterations, run_log=result.run_log,
            instance_name=case.path.stem)
    return out


def validator_energy(instance: Instance, solution: PackingSolution, tracer) -> Fraction:
    with tracer.span("validate.objectives"):
        o1, o2, o3 = validate.objectives(instance, solution)
    return solution_energy(instance, o1, o2, o3, WEIGHTS)


def request(workload: Workload, case: Case, workdir: Path, tracer,
            iterations: int = ITERATIONS) -> tuple[SolveResult, Optional[Path]]:
    """The calls ``cli.cmd_solve`` makes: load the instance, solve, save."""
    with tracer.span("fileio.load_instance"):
        instance = fileio.load_instance(case.path)
    with tracer.span("solver.solve"):
        result = solver.solve(instance, solve_config(workload, case, iterations))
    if result.best is None:
        return result, None
    return result, save(result, case, workdir, iterations, tracer)


def check(case: Case, result: SolveResult, out: Optional[Path], tracer) -> Checked:
    """The untimed checks of one request's outputs."""
    if result.best is None:
        # a documented outcome (``solve`` exits 3), counted in feasible_frac
        return Checked([], "", None, False)
    problems = solution_problems(case, result.best, result.energy, tracer)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    return Checked(problems, digest, result.energy, True)


def solution_problems(case: Case, solution: PackingSolution, energy: Fraction,
                      tracer) -> list[str]:
    """The validator accepts the solution and gives it the reported energy."""
    with tracer.span("validate.check"):
        report = validate.check(case.instance, solution)
    if not report.feasible:
        return [f"{case.label}: validator rejects the solution: {report.as_list()}"]
    if validator_energy(case.instance, solution, tracer) != energy:
        return [f"{case.label}: reported energy {energy} differs from the validator's"]
    return []
