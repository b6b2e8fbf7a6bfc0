"""Solver configuration, result types and the run driver shared by the
seeded backends."""

from __future__ import annotations

import math
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from numbers import Real
from typing import Any, Callable, NoReturn, Optional, Union

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


class _Taken(Exception):
    """Raised by a run's stop in the caller once another slot has sent that run."""


def _stop(config: SolverConfig, started: float, turn: int,
          taken: Optional[Callable[[], bool]] = None) -> Stop:
    """A slot's run number turn (from 0) stops by started + (turn + 1) * time_limit.
    With taken, each call first raises _Taken if taken() says the run has
    arrived from another slot."""
    if config.iterations is not None:
        done: Stop = lambda iters: iters >= config.iterations
    else:
        deadline = started + (turn + 1) * config.time_limit
        done = lambda iters: time.monotonic() >= deadline
    if taken is None:
        return done

    def stop(iters: int) -> bool:
        if taken():
            raise _Taken
        return done(iters)
    return stop


def _slots(runs: int) -> int:
    """How many processes share a solve's runs: min(runs, usable CPUs), or 1
    where fork or sched_getaffinity is missing or another thread is running,
    since forking a threaded process is unsafe."""
    if (runs < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(runs, len(os.sched_getaffinity(0)))


def _order(slot: int, runs: int, slots: int, hedge: bool) -> list[int]:
    """The runs a slot makes, in order: its own, slot, slot + slots, ...,
    then, with hedge, every other run in run order."""
    own = list(range(slot, runs, slots))
    return own + [r for r in range(runs) if r % slots != slot] if hedge else own


def _error_payload(exc: BaseException) -> bytes:
    """exc pickled as a child's (None, error) message, or a RuntimeError with
    its traceback text when exc does not survive a pickle round trip."""
    import pickle
    import traceback

    try:
        data = pickle.dumps((None, exc))
        pickle.loads(data)
        return data
    except Exception:
        text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        return pickle.dumps((None, RuntimeError(
            f"a run in a worker process raised an exception that cannot be pickled:\n{text}")))


def _child(one: Callable[[int], Any], rs: list[int], wfd: int) -> NoReturn:
    """In a forked child: send one(r) for each r of rs as a pickled (r,
    outcome) message, as soon as it is made, or the exception that stopped
    them, then exit. A message is its length (8 bytes) and its pickle."""
    import pickle

    try:
        with open(wfd, "wb") as pipe:
            def send(data: bytes) -> None:
                pipe.write(len(data).to_bytes(8, "little") + data)
                pipe.flush()

            try:
                for r in rs:
                    send(pickle.dumps((r, one(r))))
            except BaseException as exc:  # also KeyboardInterrupt: the caller raises it
                send(_error_payload(exc))
    finally:
        # never return into the caller's stack; a child that sent too little
        # is reported by the caller
        os._exit(0)


def _fan_out(one: Callable[..., Any], runs: int, slots: int, hedge: bool) -> list:
    """[one(r) for r in range(runs)], spread over slots: slot 0 in this
    process, the others in forked children, which see the caller's state
    without pickling it. Slot s makes _order(s, ...): its own runs s, s +
    slots, ..., then, with hedge, the others too, so that a slot whose CPU
    stalls is overtaken. Only a run whose outcome does not depend on who
    makes it or when may be hedged. This process takes each run from
    whichever slot ends it first, abandoning its own copy (one(r, taken)
    polls the pipes). An exception raised in a child is raised here. No
    child outlives the call."""
    # imported here, so that a solve with one slot never loads them (0.4 MB)
    import pickle
    import select

    outcomes: dict[int, Any] = {}
    children: list[int] = []
    pending: dict[int, bytearray] = {}  # read end -> bytes not yet unpickled
    owns: dict[int, list[int]] = {}     # read end -> its child's own runs

    def receive(timeout: Optional[float]) -> None:
        """Take in what the children have sent, waiting up to timeout
        seconds (None: as long as it takes) for the first of it."""
        if not pending:
            return
        ready, _, _ = select.select(list(pending), [], [], timeout)
        for fd in ready:
            data = os.read(fd, 1 << 16)
            if not data:
                del pending[fd]
                if any(r not in outcomes for r in owns[fd]):
                    raise RuntimeError(f"the worker process of runs {owns[fd]} "
                                       "ended without a result")
                continue
            buf = pending[fd]
            buf += data
            while len(buf) >= 8:
                size = 8 + int.from_bytes(buf[:8], "little")
                if len(buf) < size:
                    break
                r, outcome = pickle.loads(buf[8:size])
                del buf[:size]
                if r is None:
                    raise outcome
                outcomes.setdefault(r, outcome)

    def taken(r: int) -> bool:
        receive(0)
        return r in outcomes

    try:
        for s in range(1, slots):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                os.close(rfd)
                _child(one, _order(s, runs, slots, hedge), wfd)
            children.append(pid)
            pending[rfd], owns[rfd] = bytearray(), list(range(s, runs, slots))
            os.close(wfd)
        for r in _order(0, runs, slots, hedge):
            if not taken(r):
                try:
                    outcomes[r] = one(r, partial(taken, r))
                except _Taken:
                    pass
        while len(outcomes) < runs:
            receive(None)
        return [outcomes[r] for r in range(runs)]
    finally:
        for fd in owns:
            os.close(fd)
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def run_backend(instance: Instance, config: SolverConfig, prepare: Callable[[], Any],
                run: Callable[[Any, random.Random, Stop],
                              tuple[PackingSolution, Optional[tuple[Fraction, ...]]]]
                ) -> SolveResult:
    """prepare() once, then run(prepared, rng, stop) -> (placements,
    checkpoint energies or None) config.runs times, spread over W = _slots(runs)
    processes: slot s does runs s, s + W, ..., and in iteration mode then
    the other slots' runs, as _fan_out says. Run r draws from
    mix_seed(seed, r); in time mode it stops by start + (r // W + 1) *
    time_limit, start taken before prepare(). Placements pass the validator
    once, in run order and in this process, via objectives(); a rejected
    run, or one raising NoSolution, is dropped."""
    started = time.monotonic()
    prepared = prepare()
    slots = _slots(config.runs)

    def one(r: int, taken: Optional[Callable[[], bool]] = None):
        """Run r's (placements, checkpoints), or the NoSolution it raised."""
        try:
            return run(prepared, random.Random(mix_seed(config.seed, r)),
                       _stop(config, started, r // slots, taken))
        except NoSolution as exc:
            return exc

    # one slot runs each run just before its validator pass, as a sequential
    # loop; a run's outcome depends on who makes it only through its deadline
    outcomes = (map(one, range(config.runs)) if slots == 1
                else _fan_out(one, config.runs, slots, hedge=config.iterations is not None))
    best: Optional[PackingSolution] = None
    best_energy: Optional[Fraction] = None
    run_log: list[Fraction] = []
    cp_runs: list[tuple[Fraction, ...]] = []
    reason = None
    for r, outcome in enumerate(outcomes):
        if isinstance(outcome, NoSolution):
            reason = str(outcome)
            continue
        sol, checkpoints = outcome
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
