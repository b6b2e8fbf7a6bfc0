"""Solver backends: placement heuristic (default), penalty annealer over the
compiled model, and an exhaustive oracle for tiny instances."""

from __future__ import annotations

from ..core import Instance
from .annealer import solve_annealer
from .config import SolveResult, SolverConfig, mix_seed, solution_energy
from .heuristic import solve_heuristic
from .oracle import OracleCapError, OracleLimits, solve_oracle
from .stats import RunStats, run_stats

__all__ = [
    "OracleCapError",
    "OracleLimits",
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

_BACKENDS = {
    "heuristic": solve_heuristic,
    "annealer": solve_annealer,
}


def solve(instance: Instance, config: SolverConfig) -> SolveResult:
    """Dispatch on backend; a backend runs its config.runs runs in order."""
    if config.backend == "oracle":
        return solve_oracle(instance, weights=config.weights)
    return _BACKENDS[config.backend](instance, config)
