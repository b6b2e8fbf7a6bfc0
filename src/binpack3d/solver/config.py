"""Solver configuration, result types and the run driver shared by the
seeded backends."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Any, Callable, Optional, Union

from ..core import Instance, PackingSolution, _require_ints
from ..validate import objectives

Number = Union[int, Fraction]

BACKENDS = ("heuristic", "annealer", "oracle")


@dataclass(frozen=True)
class SolverConfig:
    backend: str = "heuristic"
    time_limit: float = 5.0
    seed: int = 0
    runs: int = 1
    iterations: Optional[int] = None  # iteration-count mode: deterministic, ignores wall clock
    weights: tuple[Number, Number, Number] = (1, 1, 1)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        _require_ints(self, ("seed", "runs"), "")
        if self.iterations is not None:
            _require_ints(self, ("iterations",), "")
        # a NaN or infinite limit would make the deadline unreachable
        if (isinstance(self.time_limit, bool) or not isinstance(self.time_limit, Real)
                or not math.isfinite(self.time_limit)):
            raise ValueError(f"time_limit must be a finite number, got {self.time_limit!r}")
        if self.time_limit <= 0:
            raise ValueError("time_limit must be > 0")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.iterations is not None and self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        # weights stay exact: a float (NaN included) or a bool is refused
        if not (type(self.weights) is tuple and len(self.weights) == 3
                and all(type(w) is int or isinstance(w, Fraction) for w in self.weights)):
            raise ValueError("weights must be a tuple of three integers or Fractions, "
                             f"got {self.weights!r}")


@dataclass(frozen=True)
class SolveResult:
    """Best solution (or None when no run found one), its energy, wall time,
    and the per-run energy log. In iteration-count mode elapsed is pinned to
    0.0 so results are byte-reproducible."""

    best: Optional[PackingSolution]
    energy: Optional[Fraction]
    elapsed: float
    run_log: tuple[Fraction, ...]
    infeasible_reason: Optional[str] = None
    checkpoint_runs: Optional[tuple[tuple[Fraction, ...], ...]] = None


def solution_energy(instance: Instance, o1: int, o2: Fraction,
                    o3: Optional[Fraction],
                    weights: tuple[Number, Number, Number]) -> Fraction:
    """Weighted objective, matching the model: o1 counts only when n >= 2
    (with one bin it is a constant and the model omits it)."""
    w1, w2, w3 = (Fraction(w) for w in weights)
    energy = w2 * o2
    if instance.bin.n >= 2:
        energy += w1 * o1
    if o3 is not None:
        energy += w3 * o3
    return energy


def mix_seed(seed: int, run: int) -> int:
    return seed * 1_000_003 + run


class NoSolution(Exception):
    """A run ended without placements; the message says why."""


# stop(iters): whether a run that has made iters iterations must end now
Stop = Callable[[int], bool]


def _stop(config: SolverConfig, started: float, run: int) -> Stop:
    if config.iterations is not None:
        return lambda iters: iters >= config.iterations
    deadline = started + (run + 1) * config.time_limit
    return lambda iters: time.monotonic() >= deadline


def run_backend(instance: Instance, config: SolverConfig, prepare: Callable[[], Any],
                run: Callable[[Any, random.Random, Stop],
                              tuple[PackingSolution, Optional[tuple[Fraction, ...]]]]
                ) -> SolveResult:
    """prepare() once, then run(prepared, rng, stop) -> (placements,
    checkpoint energies or None) config.runs times. Run r draws from
    mix_seed(seed, r); in time mode it stops by start + (r + 1) * time_limit,
    start taken before prepare(). Placements pass the validator once, via
    objectives(); a rejected run, or one raising NoSolution, is dropped."""
    started = time.monotonic()
    prepared = prepare()
    best: Optional[PackingSolution] = None
    best_energy: Optional[Fraction] = None
    run_log: list[Fraction] = []
    cp_runs: list[tuple[Fraction, ...]] = []
    reason = None
    for r in range(config.runs):
        try:
            sol, checkpoints = run(prepared, random.Random(mix_seed(config.seed, r)),
                                   _stop(config, started, r))
        except NoSolution as exc:
            reason = str(exc)
            continue
        try:
            o1, o2, o3 = objectives(instance, sol)
        except ValueError as exc:
            reason = f"run {r} rejected by the validator: {exc}"
            continue
        energy = solution_energy(instance, o1, o2, o3, config.weights)
        run_log.append(energy)
        if checkpoints is not None:
            cp_runs.append(checkpoints)
        if best_energy is None or energy < best_energy:
            best = PackingSolution(sol.placements, o1=o1, o2=o2, o3=o3)
            best_energy = energy
    elapsed = 0.0 if config.iterations is not None else time.monotonic() - started
    return SolveResult(best, best_energy, elapsed, tuple(run_log),
                       infeasible_reason=reason if best is None else None,
                       checkpoint_runs=tuple(cp_runs) if cp_runs else None)
