"""Solver backends: placement heuristic (default), penalty annealer over the
compiled model, and an exhaustive oracle for tiny instances.
config.run_backend drives the heuristic's and the annealer's runs; the
oracle takes no seed or budget and runs on its own."""

from __future__ import annotations

from dataclasses import replace

from ..core import Instance
from .annealer import solve_annealer
from .config import SolveResult, SolverConfig, mix_seed, solution_energy
from .heuristic import solve_heuristic
from .oracle import OracleCapError, solve_oracle
from .stats import RunStats, run_stats

__all__ = [
    "OracleCapError",
    "RunStats",
    "SolveResult",
    "SolverConfig",
    "mix_seed",
    "run_stats",
    "solution_energy",
    "solve",
    "solve_annealer",
    "solve_heuristic",
    "solve_oracle",
]

def solve(instance: Instance, config: SolverConfig) -> SolveResult:
    """Dispatch on backend; iteration mode pins elapsed to 0.0 for every backend."""
    if config.backend != "oracle":
        solver = solve_heuristic if config.backend == "heuristic" else solve_annealer
        return solver(instance, config)
    result = solve_oracle(instance, weights=config.weights)
    return result if config.iterations is None else replace(result, elapsed=0.0)
