"""Solver configuration, result types and the run driver shared by the
seeded backends."""

from __future__ import annotations

import atexit
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
from typing import Any, Callable, Iterable, NoReturn, Optional, Sequence, Union

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
    """Raised by a run's stop once the run is no longer wanted: in the caller,
    another slot has sent it; in a worker, a new job or EOF is waiting."""


def _stop(config: SolverConfig, started: float, turn: int,
          taken: Optional[Callable[[], bool]] = None) -> Stop:
    """A slot's run number turn (from 0) stops by started + (turn + 1) * time_limit.
    With taken, each call first raises _Taken if taken() says so."""
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


# prepare(instance, config, checkpoints) -> prepared, once per solve and slot
Prepare = Callable[[Instance, SolverConfig, Optional[Sequence[int]]], Any]
# run(prepared, rng, stop) -> (placements, checkpoint energies or None)
Run = Callable[[Any, random.Random, Stop],
               tuple[PackingSolution, Optional[tuple[Fraction, ...]]]]


def _outcome(run: Run, prepared: Any, config: SolverConfig, r: int, stop: Stop) -> Any:
    """Run r's (placements, checkpoints), or the NoSolution it raised."""
    try:
        return run(prepared, random.Random(mix_seed(config.seed, r)), stop)
    except NoSolution as exc:
        return exc


def _checked(instance: Instance, r: int, outcome: Any) -> Any:
    """Run r's outcome with the validator's verdict, taken in the slot that
    made the run: (placements, checkpoints, (o1, o2, o3)), or a NoSolution
    that says why the run has none."""
    if isinstance(outcome, NoSolution):
        return outcome
    sol, energies = outcome
    try:
        return sol, energies, objectives(instance, sol)
    except ValueError as exc:
        return NoSolution(f"run {r} rejected by the validator: {exc}")


def _error_payload(exc: BaseException) -> bytes:
    """exc pickled as a worker's (None, error) message, or a RuntimeError
    with its traceback text when exc does not survive a pickle round trip."""
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


def _frame(data: bytes) -> bytes:
    """A message on a pipe: its length (8 bytes) and its bytes."""
    return len(data).to_bytes(8, "little") + data


def _read(fd: int, size: int) -> bytes:
    """size bytes from a blocking fd, fewer only at EOF."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            break
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(jobs: int, out: int) -> NoReturn:
    """A worker's life, in the forked child: read a job from the jobs pipe,
    acknowledge it with (None, None), prepare, then make the job's runs in
    its order, sending each (r, outcome) to the out pipe once the run has
    ended and passed through the validator (_checked). Messages carry no job
    id: both pipes are FIFO, so the caller tells the jobs apart by counting
    acknowledgements (_Worker.behind).
    Each run's stop polls the jobs pipe, so a new job or EOF abandons the run
    in progress. EOF ends the worker, and so does an exception, which is sent
    first as (None, error)."""
    import pickle
    import select

    try:
        # Ctrl-C reaches the whole process group; the caller handles it
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        poller = select.poll()
        poller.register(jobs, select.POLLIN)
        waiting = lambda: bool(poller.poll(0))
        while len(head := _read(jobs, 8)) == 8:
            (prepare, run, instance, config, checkpoints, started, slots), order = \
                pickle.loads(_read(jobs, int.from_bytes(head, "little")))
            _write(out, _frame(pickle.dumps((None, None))))
            prepared = prepare(instance, config, checkpoints)
            for r in order:
                try:
                    outcome = _outcome(run, prepared, config, r,
                                       _stop(config, started, r // slots, waiting))
                except _Taken:
                    break
                outcome = _checked(instance, r, outcome)
                _write(out, _frame(pickle.dumps((r, outcome))))
    except BaseException as exc:  # also KeyboardInterrupt: the caller raises it
        _write(out, _frame(_error_payload(exc)))
    finally:
        # never return into the caller's stack
        os._exit(0)


class _Worker:
    """A forked process that makes runs for this process's solves (_serve).
    This side holds the write end of its jobs pipe and the read end of its
    out pipe, both non-blocking."""

    def __init__(self) -> None:
        jobs_r, self.jobs = os.pipe()
        self.out, out_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (jobs_r, self.jobs, self.out, out_w):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(self.jobs)
            os.close(self.out)
            _serve(jobs_r, out_w)
        os.close(jobs_r)
        os.close(out_w)
        os.set_blocking(self.jobs, False)
        os.set_blocking(self.out, False)
        self.buf = bytearray()  # bytes read but not yet unpickled
        self.behind = 0         # jobs sent to it but not yet acknowledged
        self.alive = True       # False once it hit EOF or sent a bad message

    def receive(self) -> list[tuple[Optional[int], Any]]:
        """The (r, outcome) and (None, error) messages of the last job sent
        that have arrived, without waiting. An acknowledgement lowers behind;
        while behind > 0 every other message belongs to an earlier job and is
        dropped."""
        import pickle

        try:
            while data := os.read(self.out, 1 << 16):
                self.buf += data
            self.alive = False
        except BlockingIOError:
            pass
        got = []
        buf = self.buf
        while len(buf) >= 8:
            size = 8 + int.from_bytes(buf[:8], "little")
            if len(buf) < size:
                break
            try:
                r, outcome = pickle.loads(buf[8:size])
            except Exception:  # not a message a worker writes
                self.alive = False
                break
            if r is None and outcome is None:
                if not self.behind:  # acknowledges a job never sent
                    self.alive = False
                    break
                self.behind -= 1
            elif not self.behind:
                got.append((r, outcome))
            del buf[:size]
        return got

    def send(self, data: bytes) -> None:
        """Write a job; while its pipe is full, read what the worker sends
        meanwhile (all from earlier jobs), so that neither side blocks the
        other."""
        import select

        self.behind += 1
        view = memoryview(_frame(data))
        while view:
            try:
                view = view[os.write(self.jobs, view):]
            except BlockingIOError:
                select.select([self.out], [self.jobs], [])
                self.receive()

    def kill(self) -> None:
        os.close(self.jobs)
        os.close(self.out)
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def reap(self) -> None:
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # someone else's waitpid(-1) took it
            pass


# The run workers of this process: forked the first time a solve needs them,
# reused by every later solve, and killed by close_pool (at exit, or when a
# fanned solve raises). Worker i serves slot i + 1.
_workers: list[_Worker] = []


def close_pool() -> None:
    """Kill and reap every run worker; the next fanned solve forks new ones."""
    workers = list(_workers)
    _workers.clear()
    for w in workers:
        w.kill()
    for w in workers:
        w.reap()


def _forget() -> None:
    """In a forked child: drop the parent's workers and close this process's
    copies of their pipes, so that each worker sees EOF once the process
    that owns it exits."""
    for w in _workers:
        os.close(w.jobs)
        os.close(w.out)
    _workers.clear()


atexit.register(close_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def _ready(count: int) -> list[_Worker]:
    """The pool's first count workers, forking what is missing. A worker
    that hit EOF, sent a bad message or has not acknowledged its last job is
    killed and replaced; what the others sent for earlier jobs is dropped."""
    stale = []
    for w in _workers[:count]:
        w.receive()
        if not w.alive or w.behind:
            stale.append(w)
    for w in stale:
        # out of the list before the next fork, whose _forget closes the list's pipes
        _workers.remove(w)
        w.kill()
    for w in stale:
        w.reap()
    while len(_workers) < count:
        _workers.append(_Worker())
    return _workers[:count]


def _fan_out(job: tuple, runs: int, slots: int, hedge: bool) -> list:
    """[checked outcome of run r for r in range(runs)] (_checked), spread
    over slots: slot 0 in the calling process, slot s in worker s - 1, which
    gets the job (prepare, run, instance, config, checkpoints, start, slots)
    and prepares for itself in parallel with the caller. Slot s makes
    _order(s, ...): its own runs s, s + slots, ..., then, with hedge, the
    others too, so that a slot whose CPU stalls is overtaken; each slot
    passes the runs it makes through the validator. Only a run whose outcome
    does not depend on who makes it or when may be hedged. The caller takes
    each run from whichever slot ends it first, abandoning its own copy (its
    stop polls the workers). An exception raised in a worker is raised in
    the caller; any exception kills and reaps every worker before it
    propagates."""
    # imported here, so that a solve with one slot never loads them (0.4 MB)
    import pickle
    import select

    prepare, run, instance, config, checkpoints, started, _ = job
    outcomes: dict[int, Any] = {}

    def receive(timeout: Optional[float]) -> None:
        """Take in what the workers have sent for this job, waiting up to
        timeout seconds (None: as long as it takes) for the first of it."""
        ready, _, _ = select.select(live, [], [], timeout)
        for fd in ready:
            s, w = live[fd]
            for r, outcome in w.receive():
                if r is None:
                    raise outcome
                outcomes.setdefault(r, outcome)
            if not w.alive:
                del live[fd]
                own = list(range(s, runs, slots))
                if any(r not in outcomes for r in own):
                    raise RuntimeError(f"the worker process of runs {own} "
                                       "ended without a result")

    def taken(r: int) -> bool:
        receive(0)
        return r in outcomes

    try:
        workers = _ready(slots - 1)
        for s, w in enumerate(workers, 1):
            w.send(pickle.dumps((job, _order(s, runs, slots, hedge))))
        live = {w.out: (s, w) for s, w in enumerate(workers, 1)}  # out pipe -> slot, worker
        prepared = prepare(instance, config, checkpoints)
        for r in _order(0, runs, slots, hedge):
            if not taken(r):
                try:
                    outcome = _outcome(run, prepared, config, r,
                                       _stop(config, started, r // slots, partial(taken, r)))
                except _Taken:
                    continue
                outcomes[r] = _checked(instance, r, outcome)
        while len(outcomes) < runs:
            receive(None)
        return [outcomes[r] for r in range(runs)]
    except BaseException:
        close_pool()
        raise


def run_backend(instance: Instance, config: SolverConfig, prepare: Prepare, run: Run,
                checkpoints: Optional[Sequence[int]] = None) -> SolveResult:
    """prepare(instance, config, checkpoints) once per slot, then
    run(prepared, rng, stop) -> (placements, checkpoint energies or None)
    config.runs times, spread over W = _slots(runs) processes: slot s does
    runs s, s + W, ..., and in iteration mode then the other slots' runs, as
    _fan_out says. prepare and run are module-level functions, so that a
    worker can be sent them. Run r draws from mix_seed(seed, r); in time
    mode it stops by start + (r // W + 1) * time_limit, start taken before
    prepare(). Each run's placements pass the validator once, via
    objectives(), in the slot that made the run, right after it ends; a
    rejected run, or one raising NoSolution, is dropped. The result is
    assembled in run order."""
    started = time.monotonic()
    slots = _slots(config.runs)
    if slots == 1:
        # one slot validates each run before it starts the next, as a
        # sequential loop
        prepared = prepare(instance, config, checkpoints)
        outcomes: Iterable = (
            _checked(instance, r, _outcome(run, prepared, config, r, _stop(config, started, r)))
            for r in range(config.runs))
    else:
        # a run's outcome depends on who makes it only through its deadline
        outcomes = _fan_out((prepare, run, instance, config, checkpoints, started, slots),
                            config.runs, slots, hedge=config.iterations is not None)
    best: Optional[PackingSolution] = None
    best_energy: Optional[Fraction] = None
    run_log: list[Fraction] = []
    cp_runs: list[tuple[Fraction, ...]] = []
    reason = None
    for outcome in outcomes:
        if isinstance(outcome, NoSolution):
            reason = str(outcome)
            continue
        sol, energies, (o1, o2, o3) = outcome
        energy = solution_energy(instance, o1, o2, o3, config.weights)
        run_log.append(energy)
        if energies is not None:
            cp_runs.append(energies)
        if best_energy is None or energy < best_energy:
            best = PackingSolution(sol.placements, o1=o1, o2=o2, o3=o3)
            best_energy = energy
    elapsed = 0.0 if config.iterations is not None else time.monotonic() - started
    return SolveResult(best, best_energy, elapsed, tuple(run_log),
                       infeasible_reason=reason if best is None else None,
                       checkpoint_runs=tuple(cp_runs) if cp_runs else None)
