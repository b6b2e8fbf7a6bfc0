import dataclasses
import hashlib
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from binpack3d import (
    Affinities,
    BinSpec,
    Instance,
    Item,
    OracleCapError,
    PackingSolution,
    Placement,
    SolverConfig,
    allowed_orientations,
    archetype,
    effective_dims,
    load_bearing_avoid,
    run_stats,
    solve,
    solve_annealer,
    solve_heuristic,
    solve_oracle,
)
from binpack3d import validate
from binpack3d.fileio import save_solution
from binpack3d.core import relpos_masks, separation_mask
from binpack3d.solver import annealer, config, heuristic
from binpack3d.solver.config import NoSolution
from binpack3d.solver.heuristic import (CANDIDATE_CAP, _Bin, _Ctx, _Packing, _best_spot,
                                        _construct, _local_search, _move_reinsert,
                                        _move_reorient, _move_swap, _order_blocks,
                                        _sample_sorted)
from binpack3d.validate import check, objectives

from helpers import (enumerate_feasible, featured_oracle_instance, oracle_instance,
                     solvable_instance, subprocess_env)


def cubes(count, side=1, mu=1, categories=None):
    return tuple(Item(index=i, l=side, w=side, h=side, mu=mu,
                      category=(categories[i] if categories else 0))
                 for i in range(count))


def can_place(pk, item, j, dims, x, y, z):
    """The full check of a spot in bin j: in bounds, then admits, then fits."""
    ctx = pk.ctx
    if x + dims[0] > ctx.L or y + dims[1] > ctx.W or z + dims[2] > ctx.H:
        return False
    return pk.admits(item, j) and pk.fits(item, j, dims, x, y, z)


def place_at(pk, item, j, k, dims, x, y, z):
    """Place the item in orientation k (of dims dims) at (x, y, z) of bin j."""
    shape = next(s for s in pk.ctx.shapes[item] if s[0] == k)
    pk.place(item, j, (item, k, x, y, z, x + dims[0], y + dims[1], z + dims[2]),
             pk.ctx.item_tail(shape, x, y, z))


def points(bn):
    """The bin's corners as (x, y, z), in their (z, y, x) order."""
    return [(x, y, z) for z, y, x in bn.corners]


def pin_cpus(monkeypatch, cpus):
    """Make run_backend see this many usable CPUs, so a solve of runs >= cpus
    spreads its runs over that many slots."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without run workers, so that what a test
    monkeypatches reaches the workers its solves fork."""
    config.close_pool()
    yield
    config.close_pool()


def no_children():
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def exited(pid):
    """Whether process pid has ended (a zombie counts as ended)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] in "ZX"
    except FileNotFoundError:
        return True


class TestHeuristic:
    def test_two_unit_cubes_tall_bin(self):
        inst = Instance(items=cubes(2), bin=BinSpec(1, 1, 2, n=1))
        result = solve_heuristic(inst, SolverConfig(iterations=10, seed=0))
        assert result.best.o1 == 1
        assert check(inst, result.best).feasible

    def test_eight_cubes_perfect_fill(self):
        inst = Instance(items=cubes(8), bin=BinSpec(2, 2, 2, n=2))
        result = solve_heuristic(inst, SolverConfig(iterations=50, seed=1))
        assert result.best.o1 == 1

    def test_negative_affinity_forces_two_bins(self):
        items = (Item(0, 2, 2, 2, 1, 0), Item(1, 2, 2, 2, 1, 1))
        inst = Instance(items=items, bin=BinSpec(4, 4, 4, n=2),
                        affinities=Affinities(negative=frozenset({(0, 1)})))
        result = solve_heuristic(inst, SolverConfig(iterations=30, seed=0))
        assert result.best.o1 == 2
        assert check(inst, result.best).feasible

    def test_infeasible_with_certificate(self):
        items = (Item(0, 2, 2, 2, 1, 0), Item(1, 2, 2, 2, 1, 1))
        inst = Instance(items=items, bin=BinSpec(2, 2, 2, n=1),
                        affinities=Affinities(negative=frozenset({(0, 1)})))
        result = solve_heuristic(inst, SolverConfig(iterations=10, seed=0))
        assert result.best is None
        assert "fits in no bin" in result.infeasible_reason

    def test_every_solution_passes_validator(self):
        rng = random.Random(99)
        for trial in range(25):
            features = [f for f in ("overweight", "negative", "positive", "eta", "com")
                        if rng.random() < 0.4]
            inst = solvable_instance(rng, features=features)
            result = solve_heuristic(inst, SolverConfig(iterations=40, seed=trial))
            if result.best is not None:
                assert check(inst, result.best).feasible, (trial, features)

    def test_determinism_in_iteration_mode(self):
        rng = random.Random(3)
        inst = solvable_instance(rng, features=("com",))
        cfg = SolverConfig(iterations=60, seed=42, runs=3)
        r1 = solve_heuristic(inst, cfg)
        r2 = solve_heuristic(inst, cfg)
        assert r1 == r2
        assert r1.elapsed == 0.0

    def test_runs_logged(self):
        rng = random.Random(4)
        inst = solvable_instance(rng)
        result = solve_heuristic(inst, SolverConfig(iterations=20, seed=0, runs=4))
        assert len(result.run_log) == 4
        assert result.energy == min(result.run_log)

    def test_checkpoints_monotone(self):
        rng = random.Random(5)
        inst = solvable_instance(rng, features=("com",), m=6)
        result = solve_heuristic(inst, SolverConfig(iterations=80, seed=2),
                                 checkpoints=[10, 20, 40, 80])
        (log,) = result.checkpoint_runs
        assert len(log) == 4
        assert all(log[i + 1] <= log[i] for i in range(3))


    def test_emission_drops_empty_bins(self):
        """A move can empty a bin below a used one; emitted bins still run 1..o1."""
        inst = Instance(items=cubes(2), bin=BinSpec(2, 2, 2, n=3))
        pk = _Packing(_Ctx(inst, (1, 1, 1)))
        pk.bins.extend(_Bin() for _ in range(3))
        place_at(pk, 0, 1, 1, (1, 1, 1), 1, 0, 0)
        place_at(pk, 1, 2, 1, (1, 1, 1), 0, 1, 0)
        sol = pk.to_solution()
        assert [(p.bin, p.x, p.y) for p in sol.placements] == [(1, 1, 0), (2, 2, 1)]
        assert check(inst, sol).feasible and objectives(inst, sol)[0] == 2

    def test_reinsert_that_empties_a_bin(self):
        """Moving a bin's only item into another bin lowers o1, so the move is
        accepted although the item's tail does not drop."""
        inst = Instance(items=cubes(2), bin=BinSpec(2, 2, 2, n=2))
        pk = _Packing(_Ctx(inst, (1, 1, 1)))
        pk.bins.extend(_Bin() for _ in range(2))
        place_at(pk, 0, 0, 1, (1, 1, 1), 0, 0, 0)
        place_at(pk, 1, 1, 1, (1, 1, 1), 0, 0, 0)
        tail = pk.tail
        assert _move_reinsert(pk, random.Random(0), CANDIDATE_CAP, False, sorted(pk.pos))
        assert (pk.o1, pk.tail) == (1, tail)


class TestRunDriver:
    """What run_backend adds around a backend's search: the time budget, the
    single validator pass and the gate on rejected runs."""

    @pytest.mark.parametrize("backend,module,setup,search", [
        ("heuristic", heuristic, "_order_blocks", "_local_search"),
        ("annealer", annealer, "build_model", "_anneal_run"),
    ])
    def test_time_mode_run_r_ends_by_its_share(self, monkeypatch, backend, module,
                                               setup, search):
        """One slot, runs=3, time_limit=0.2 and a set-up step slowed to 0.3 s:
        run r's search ends once the clock passes start + (r + 1) * 0.2 s and
        at most `slack` later, so the set-up eats run 0's share instead of
        extending the solve, which ends within 3 * 0.2 s + slack."""
        pin_cpus(monkeypatch, 1)
        limit, delay = 0.2, 0.3
        slack = 0.25  # one search iteration plus the validator pass, on a slow box
        inst = solvable_instance(random.Random(7), m=6)
        slow_setup, original = getattr(module, setup), getattr(module, search)
        ends = []

        def slowed(*args):
            time.sleep(delay)
            return slow_setup(*args)

        def timed(*args):
            out = original(*args)
            ends.append(time.monotonic())
            return out

        monkeypatch.setattr(module, setup, slowed)
        monkeypatch.setattr(module, search, timed)
        t0 = time.monotonic()
        result = solve(inst, SolverConfig(backend=backend, runs=3, time_limit=limit, seed=1))
        total = time.monotonic() - t0
        assert len(ends) == 3
        for r, end in enumerate(ends):
            due = t0 + max(delay, (r + 1) * limit)
            assert due <= end <= due + slack, (r, end - t0)
        assert total <= 3 * limit + slack
        assert result.elapsed <= total
        if backend == "heuristic":
            assert len(result.run_log) == 3

    @pytest.mark.parametrize("backend", ["heuristic", "annealer"])
    def test_time_mode_two_slots_share_each_round(self, monkeypatch, backend):
        """Two slots, runs=3, time_limit=0.5: runs 0 and 1 end by start + 0.5 s
        and run 2 by start + 1.0 s, so the solve ends within
        ceil(3 / 2) * 0.5 s + slack, where one slot takes 1.5 s."""
        pin_cpus(monkeypatch, 2)
        limit, slack = 0.5, 0.25
        inst = solvable_instance(random.Random(7), m=6)
        t0 = time.monotonic()
        result = solve(inst, SolverConfig(backend=backend, runs=3, time_limit=limit, seed=1))
        total = time.monotonic() - t0
        assert 2 * limit <= total <= 2 * limit + slack
        assert result.elapsed <= total
        if backend == "heuristic":
            assert len(result.run_log) == 3

    @pytest.mark.parametrize("backend,iterations", [("heuristic", 20), ("annealer", 3000)])
    def test_validator_runs_once_per_run(self, monkeypatch, backend, iterations):
        """One slot: the calls are counted in this process."""
        pin_cpus(monkeypatch, 1)
        calls = []
        original = validate.check
        monkeypatch.setattr(validate, "check", lambda *a: calls.append(1) or original(*a))
        inst = Instance(items=cubes(2), bin=BinSpec(2, 2, 2, n=1))
        result = solve(inst, SolverConfig(backend=backend, iterations=iterations,
                                          seed=7, runs=3))
        assert len(result.run_log) == 3
        assert len(calls) == 3

    @pytest.mark.parametrize("backend", ["heuristic", "annealer"])
    def test_each_slot_validates_its_own_runs(self, monkeypatch, tmp_path, backend):
        """Two slots in time mode, which hedges nothing: each run passes the
        validator once, in the process that made it, so the four runs' calls
        come from this process and the worker."""
        pin_cpus(monkeypatch, 2)
        log = tmp_path / "checks"
        original = validate.check

        def logged(*args):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return original(*args)

        monkeypatch.setattr(validate, "check", logged)
        inst = Instance(items=cubes(2), bin=BinSpec(2, 2, 2, n=1))
        result = solve(inst, SolverConfig(backend=backend, time_limit=0.05, seed=7, runs=4))
        assert len(result.run_log) == 4
        pids = log.read_text().split()
        assert len(pids) == 4
        assert sorted(set(pids)) == sorted({str(os.getpid()), str(config._workers[0].pid)})

    def test_rejected_run_is_dropped_with_the_rule(self, monkeypatch):
        """Placements the validator rejects (both items at the origin) never
        reach the result; the reason names the violated rule. The result is
        the same at one slot and at two, where run 1 is the worker's and is
        validated in the slot that makes it."""
        monkeypatch.setattr(_Packing, "to_solution", lambda pk: PackingSolution(tuple(
            Placement(item=i, bin=1, k=1, x=0, y=0, z=0) for i in sorted(pk.pos))))
        inst = Instance(items=cubes(2), bin=BinSpec(2, 2, 2, n=1))
        results = []
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            results.append(solve_heuristic(inst, SolverConfig(iterations=5, seed=0, runs=2)))
        assert results[0] == results[1]
        result = results[0]
        assert result.best is None and result.energy is None and result.run_log == ()
        assert result.infeasible_reason.startswith("run 1 rejected by the validator")
        assert "Overlap" in result.infeasible_reason


class RunFailed(Exception):
    """Raised by a patched run in a worker process."""


class NeedsTwoArgs(Exception):
    """An exception that pickles but cannot be rebuilt from its args."""

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


class TestFanOut:
    """run_backend spreads a solve's runs over forked worker processes that
    later solves reuse: the result may not depend on how many, and no worker
    outlives the process or an error."""

    def test_slots(self, monkeypatch):
        pin_cpus(monkeypatch, 2)
        assert [config._slots(runs) for runs in (1, 2, 3)] == [1, 2, 2]
        pin_cpus(monkeypatch, 8)
        assert config._slots(3) == 3
        # forking a process with a second thread is unsafe: one slot
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert config._slots(3) == 1
        finally:
            release.set()
            thread.join()

    @pytest.mark.parametrize("backend", ["heuristic", "annealer"])
    def test_same_result_at_one_and_two_slots(self, monkeypatch, tmp_path, backend):
        """runs=3 in iteration mode: the SolveResult, checkpoints included,
        and the solution bytes are the same whether one process makes every
        run or two share them."""
        if backend == "heuristic":
            inst, seed, iterations = archetype(4, seed=3), 3, 40
        else:
            inst, seed, iterations = Instance(items=cubes(3), bin=BinSpec(2, 2, 1, n=2)), 2, 3000
        cfg = SolverConfig(backend=backend, iterations=iterations, seed=seed, runs=3)
        seen = []
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            if backend == "heuristic":
                result = solve_heuristic(inst, cfg, checkpoints=[0, 10, 40])
            else:
                result = solve_annealer(inst, cfg)
            assert result.best is not None and len(result.run_log) == 3
            seen.append((result, solution_sha256(tmp_path, result, seed, backend, iterations)))
        assert seen[0] == seen[1]
        if backend == "heuristic":
            assert len(seen[0][0].checkpoint_runs) == 3
        assert not no_children()  # the worker outlives the solve
        config.close_pool()
        assert no_children()

    @pytest.mark.parametrize("error,raised,text", [
        (RunFailed("run in a worker failed"), RunFailed, "run in a worker failed"),
        (NeedsTwoArgs("cannot rebuild", 1), RuntimeError, "NeedsTwoArgs: cannot rebuild"),
    ])
    def test_error_in_a_worker_reaches_the_caller(self, monkeypatch, error, raised, text):
        """An exception other than NoSolution in a worker's run is raised in
        the caller with its type, or as a RuntimeError carrying its traceback
        when it does not survive pickling; every worker is reaped. The
        caller's run is slowed, so that the worker's error arrives before the
        caller would make the worker's run itself."""
        pin_cpus(monkeypatch, 2)
        caller, original = os.getpid(), heuristic._local_search

        def failing(*args):
            if os.getpid() != caller:
                raise error
            time.sleep(0.5)
            return original(*args)

        monkeypatch.setattr(heuristic, "_local_search", failing)
        inst = Instance(items=cubes(2), bin=BinSpec(2, 2, 2, n=1))
        with pytest.raises(raised, match=text):
            solve_heuristic(inst, SolverConfig(iterations=5, seed=0, runs=2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_ending_without_its_runs(self, monkeypatch):
        """A worker that exits without sending its runs is reported in the
        caller as a RuntimeError, and reaped. The caller's run is slowed, as
        above, so that the worker has ended before the caller would make
        the worker's run itself."""
        pin_cpus(monkeypatch, 2)
        caller, original = os.getpid(), heuristic._local_search

        def dying(*args):
            if os.getpid() != caller:
                os._exit(0)
            time.sleep(0.5)
            return original(*args)

        monkeypatch.setattr(heuristic, "_local_search", dying)
        inst = Instance(items=cubes(2), bin=BinSpec(2, 2, 2, n=1))
        with pytest.raises(RuntimeError,
                           match=r"worker process of runs \[1\] ended without a result"):
            solve_heuristic(inst, SolverConfig(iterations=5, seed=0, runs=2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_order(self):
        """Slot s makes its own runs s, s + W, ...; in iteration mode (hedge)
        it then makes the other slots' runs in run order."""
        assert config._order(0, 5, 2, False) == [0, 2, 4]
        assert config._order(1, 5, 2, False) == [1, 3]
        assert config._order(0, 5, 2, True) == [0, 2, 4, 1, 3]
        assert config._order(1, 5, 2, True) == [1, 3, 0, 2, 4]
        assert config._order(2, 4, 3, True) == [2, 0, 1, 3]

    def test_stalled_worker_is_overtaken(self, monkeypatch):
        """In iteration mode the caller makes a run itself when the worker
        that owns it stalls, so the solve neither waits for the worker nor
        changes its result; closing the pool kills and reaps the stalled
        worker."""
        inst, cfg = archetype(4, seed=3), SolverConfig(iterations=40, seed=3, runs=2)
        pin_cpus(monkeypatch, 1)
        alone = solve_heuristic(inst, cfg)
        caller, original = os.getpid(), heuristic._local_search

        def stalling(*args):
            if os.getpid() != caller:
                time.sleep(60)
            return original(*args)

        monkeypatch.setattr(heuristic, "_local_search", stalling)
        pin_cpus(monkeypatch, 2)
        t0 = time.monotonic()
        result = solve_heuristic(inst, cfg)
        assert time.monotonic() - t0 < 30
        assert result == alone
        config.close_pool()
        assert no_children()

    def test_stalled_caller_is_overtaken(self, monkeypatch):
        """In iteration mode a worker goes on to the caller's runs once its
        own are made, and the caller abandons a run that arrives from the
        worker: slowed to 50 ms an iteration, the caller alone would need
        2 runs * 40 iterations * 50 ms = 4 s."""
        inst, cfg = archetype(4, seed=3), SolverConfig(iterations=40, seed=3, runs=2)
        pin_cpus(monkeypatch, 1)
        alone = solve_heuristic(inst, cfg)
        caller, original = os.getpid(), heuristic._local_search

        def slow(pk, rng, stop, *rest):
            if os.getpid() == caller:
                def stop(iters, fast=stop):
                    time.sleep(0.05)
                    return fast(iters)
            return original(pk, rng, stop, *rest)

        monkeypatch.setattr(heuristic, "_local_search", slow)
        pin_cpus(monkeypatch, 2)
        t0 = time.monotonic()
        result = solve_heuristic(inst, cfg)
        assert time.monotonic() - t0 < 2
        assert result == alone
        config.close_pool()
        assert no_children()

    def test_no_solution_in_a_worker(self, monkeypatch):
        """A run that raises NoSolution in a worker is dropped with its reason,
        as with one slot: the reason is the last run's, here run 1's, which
        two slots make in the worker."""
        def no_solution(pk, rng, *rest):
            raise NoSolution(f"run drew {rng.random()}")

        monkeypatch.setattr(heuristic, "_local_search", no_solution)
        inst = Instance(items=cubes(2), bin=BinSpec(2, 2, 2, n=1))
        results = []
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            results.append(solve_heuristic(inst, SolverConfig(iterations=5, seed=0, runs=2)))
        assert results[0] == results[1]
        assert results[0].best is None and results[0].run_log == ()
        assert results[0].infeasible_reason.startswith("run drew ")


def count_forks(monkeypatch):
    """A list that grows by one at each os.fork in this process."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def late_caller(monkeypatch, in_worker=None):
    """Start each run in this process 0.1 s late, so that a worker has read
    and acknowledged its job, and sent its own runs, before this process
    could make them itself. in_worker(original, *args), if given, stands in
    for config._outcome in the workers forked afterwards."""
    caller, original = os.getpid(), config._outcome

    def outcome(*args):
        if os.getpid() == caller:
            time.sleep(0.1)
            return original(*args)
        return in_worker(original, *args) if in_worker else original(*args)

    monkeypatch.setattr(config, "_outcome", outcome)


def pipe_inodes(pid="self"):
    """The inodes of the pipes that process pid holds open."""
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            link = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:  # closed meanwhile
            continue
        if link.startswith("pipe:["):
            inodes.add(int(link[6:-1]))
    return inodes


WORKER_SCRIPT = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from binpack3d import SolverConfig, archetype, solve_heuristic
from binpack3d.solver import config
solve_heuristic(archetype(4, seed=3), SolverConfig(iterations=20, seed=3, runs=2))
print(*[w.pid for w in config._workers], flush=True)
if sys.argv[1] == "long":
    solve_heuristic(archetype(4, seed=3), SolverConfig(time_limit=60, seed=3, runs=2))
"""


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
                    reason="needs fork and /proc")
class TestPool:
    """The run workers live across solves: forked once, sent one job per
    solve, replaced when they stop answering, and gone when the process
    exits or a fanned solve raises."""

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_one_fork_per_worker_for_many_solves(self, monkeypatch, cpus):
        """100 fanned solves fork W - 1 workers in all. Time mode: the caller
        waits for each worker's own runs, so every job is acknowledged."""
        pin_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        inst = Instance(items=cubes(4), bin=BinSpec(2, 2, 2, n=2))
        for seed in range(100):
            result = solve_heuristic(inst, SolverConfig(time_limit=0.005, seed=seed,
                                                        runs=cpus))
            assert len(result.run_log) == cpus
        assert len(forks) == cpus - 1 == len(config._workers)
        config.close_pool()
        assert no_children()

    @pytest.mark.parametrize("backend", ["heuristic", "annealer"])
    def test_back_to_back_solves(self, monkeypatch, tmp_path, backend):
        """Three different instances solved in a row in iteration mode equal
        their one-slot SolveResult and solution bytes at two slots. The
        worker's hedge of run 0 is slowed to 5 ms an iteration, so each next
        solve starts while the worker is still on that hedge; its stop sees
        the new job and abandons the hedge, and the worker acknowledges the
        job in time to be kept."""
        if backend == "heuristic":
            insts = [archetype(4, seed=3), archetype(11, seed=1), archetype(12, seed=2)]
            cfg = SolverConfig(iterations=40, seed=3, runs=2)
            solve_one = lambda inst: solve_heuristic(inst, cfg, checkpoints=[0, 10, 40])
        else:
            insts = [solvable_instance(random.Random(k), m=4) for k in range(3)]
            cfg = SolverConfig(backend="annealer", iterations=1500, seed=2, runs=2)
            solve_one = lambda inst: solve_annealer(inst, cfg)

        def digest(result):
            return solution_sha256(tmp_path, result, cfg.seed, backend, cfg.iterations)

        pin_cpus(monkeypatch, 1)
        alone = [(r, digest(r)) for r in map(solve_one, insts)]
        log = tmp_path / "abandoned"

        def slow_hedge(original, run, prepared, cfg, r, stop):
            if r != 0:
                return original(run, prepared, cfg, r, stop)

            def slow(iters):
                time.sleep(0.005)
                return stop(iters)
            try:
                return original(run, prepared, cfg, r, slow)
            except config._Taken:
                with open(log, "a") as f:
                    f.write("hedge\n")
                raise

        late_caller(monkeypatch, slow_hedge)
        pin_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        shared = [(r, digest(r)) for r in map(solve_one, insts)]
        assert shared == alone
        assert len(forks) == 1
        # the first two hedges were abandoned; the third is still running
        deadline = time.monotonic() + 5
        while not (log.exists() and log.read_text() == "hedge\n" * 2):
            assert time.monotonic() < deadline, log.exists() and log.read_text()
            time.sleep(0.01)

    @pytest.mark.parametrize("fault", ["killed", "bad message", "no acknowledgement"])
    def test_faulty_worker_is_replaced(self, monkeypatch, fault):
        """Between two solves a worker is killed, its pipe yields a message
        no worker writes, or it is stuck in a run that never polls (it does
        not acknowledge the next job): the solve after that kills and reaps
        it and forks a new one, and every result equals the one-slot one."""
        inst, cfg = archetype(4, seed=3), SolverConfig(iterations=20, seed=3, runs=2)
        pin_cpus(monkeypatch, 1)
        alone = solve_heuristic(inst, cfg)

        def stuck(original, *args):
            time.sleep(60)
        late_caller(monkeypatch, stuck if fault == "no acknowledgement" else None)
        pin_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        assert solve_heuristic(inst, cfg) == alone
        worker = config._workers[0]
        junk = None
        if fault == "killed":
            os.kill(worker.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5
            while not exited(worker.pid):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        elif fault == "bad message":
            rfd, junk = os.pipe()
            os.write(junk, (5).to_bytes(8, "little") + b"junk!")
            os.dup2(rfd, worker.out)
            os.close(rfd)
            os.set_blocking(worker.out, False)
        else:
            # it acknowledged the first job before it got stuck: kept for the second
            assert solve_heuristic(inst, cfg) == alone
            assert config._workers == [worker] and len(forks) == 1
        try:
            assert solve_heuristic(inst, cfg) == alone
        finally:
            if junk is not None:
                os.close(junk)
        assert len(forks) == 2 and len(config._workers) == 1
        assert config._workers[0].pid != worker.pid
        with pytest.raises(ChildProcessError):
            os.waitpid(worker.pid, os.WNOHANG)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RunFailed])
    def test_error_in_the_caller_reaps_the_workers(self, monkeypatch, error):
        """Ctrl-C or an exception in the caller's run kills and reaps every
        worker before it propagates."""
        pin_cpus(monkeypatch, 2)
        inst, cfg = archetype(4, seed=3), SolverConfig(iterations=20, seed=3, runs=2)
        caller, original, armed = os.getpid(), heuristic._local_search, []

        def failing(*args):
            if os.getpid() != caller:
                time.sleep(1)  # so that the caller makes its own runs
            elif armed:
                raise error("in the caller")
            return original(*args)

        monkeypatch.setattr(heuristic, "_local_search", failing)
        solve_heuristic(inst, cfg)
        assert len(config._workers) == 1
        armed.append(True)
        with pytest.raises(error):
            solve_heuristic(inst, cfg)
        assert config._workers == []
        assert no_children()

    def test_forked_child_forgets_the_workers(self, monkeypatch):
        """A process forked after the pool holds none of the pool's pipes,
        and neither does a later worker of the pool itself, so that each
        worker sees EOF once the process that owns it is gone."""
        pin_cpus(monkeypatch, 3)
        # time mode: the solve waits for each worker's run, so both have
        # started (and run the at-fork hook) before their pipes are read
        solve_heuristic(Instance(items=cubes(3), bin=BinSpec(2, 2, 2, n=2)),
                        SolverConfig(time_limit=0.01, seed=0, runs=3))
        first, second = config._workers
        first_pipes = {os.fstat(first.jobs).st_ino, os.fstat(first.out).st_ino}
        assert not pipe_inodes(second.pid) & first_pipes
        pool_pipes = first_pipes | {os.fstat(second.jobs).st_ino,
                                    os.fstat(second.out).st_ino}
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.write(wfd, f"{len(config._workers)} {len(pipe_inodes() & pool_pipes)}".encode())
            os._exit(0)
        os.close(wfd)
        os.waitpid(pid, 0)
        with os.fdopen(rfd) as f:
            assert f.read() == "0 0"

    def test_workers_end_with_the_process(self):
        """A process that solves with runs=2 and exits normally leaves none of
        its workers behind."""
        done = subprocess.run([sys.executable, "-c", WORKER_SCRIPT, "short"],
                              env=subprocess_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        pids = [int(p) for p in done.stdout.split()]
        assert len(pids) == 1
        assert all(exited(pid) for pid in pids)

    def test_workers_of_a_killed_process_exit(self):
        """A SIGKILLed parent's workers see EOF on their job pipe and exit
        within 5 s, though the parent was 0.5 s into a 60 s time-mode solve
        (the worker's stop polls the pipe every iteration)."""
        proc = subprocess.Popen([sys.executable, "-c", WORKER_SCRIPT, "long"],
                                env=subprocess_env(), stdout=subprocess.PIPE, text=True)
        try:
            pids = [int(p) for p in proc.stdout.readline().split()]
            time.sleep(0.5)
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
        assert len(pids) == 1
        deadline = time.monotonic() + 5
        while not all(exited(pid) for pid in pids):
            assert time.monotonic() < deadline
            time.sleep(0.01)


class TestCanPlace:
    @settings(max_examples=300)
    @given(st.data())
    def test_matches_validator_for_one_pair(self, data):
        """Box `second` against box `first` already in the bin: can_place says
        yes exactly when the validator accepts the pair, for random dims,
        corners and relative-position triples."""
        draw = data.draw
        L, W, H = (draw(st.integers(3, 8)) for _ in range(3))  # every item fits every way
        items = tuple(Item(index=i, l=draw(st.integers(1, 3)), w=draw(st.integers(1, 3)),
                           h=draw(st.integers(1, 3)), mu=draw(st.integers(1, 9)), category=i)
                      for i in range(2))
        kind = draw(st.sampled_from(("none", "avoid", "favour", "eta")))
        qs = draw(st.sets(st.integers(1, 6), min_size=1, max_size=3))
        inst = Instance(
            items=items, bin=BinSpec(L, W, H, n=1),
            eta=Fraction(2) if kind == "eta" else None,
            relpos_avoid=frozenset((0, 1, q) for q in qs) if kind == "avoid" else frozenset(),
            # one favoured position: Instance refuses a pair favoured in two
            relpos_favour=frozenset({(0, 1, min(qs))}) if kind == "favour" else frozenset(),
        )
        first = draw(st.integers(0, 1))
        second = 1 - first
        ks = [draw(st.sampled_from(sorted(allowed_orientations(it)))) for it in items]
        dims = [effective_dims(it, k) for it, k in zip(items, ks)]
        bounds = (L, W, H)
        corners = [None, None]
        corners[first] = tuple(draw(st.integers(0, bound - d))
                               for bound, d in zip(bounds, dims[first]))
        # from touching on one side to touching on the other: positions
        # further out separate the boxes the same way
        corners[second] = tuple(
            draw(st.integers(max(0, c - d2), min(bound, c + d1)))
            for bound, c, d1, d2 in zip(bounds, corners[first], dims[first], dims[second]))

        pk = _Packing(_Ctx(inst, (1, 1, 1)))
        pk.bins.append(_Bin())
        place_at(pk, first, 0, ks[first], dims[first], *corners[first])
        got = can_place(pk, second, 0, dims[second], *corners[second])

        sol = PackingSolution(tuple(Placement(item=i, bin=1, k=ks[i], x=corners[i][0],
                                              y=corners[i][1], z=corners[i][2])
                                    for i in range(2)))
        assert got == check(inst, sol).feasible


def reference_pair_fits(inst, bn, item, dims, corner):
    """fits from core's tables: no box of the bin overlaps the new one in its
    half-open extent, and each pair's core.relpos_masks rule holds under
    core.separation_mask."""
    table = relpos_masks(inst)
    for (o, _, ox, oy, oz, ox1, oy1, oz1) in bn.boxes:
        if (corner[0] < ox1 and ox < corner[0] + dims[0] and corner[1] < oy1
                and oy < corner[1] + dims[1] and corner[2] < oz1 and oz < corner[2] + dims[2]):
            return False
        own, other = (corner, dims), ((ox, oy, oz), (ox1 - ox, oy1 - oy, oz1 - oz))
        (p0, d0), (p1, d1) = (own, other) if item < o else (other, own)
        rule = table.get((min(item, o), max(item, o)))
        if rule is not None:
            mask = separation_mask(p0, d0, p1, d1)
            allowed, required = rule
            if not mask & allowed or mask & required != required:
                return False
    return True


def stacked_only(rule):
    """Whether a rule can break only in a stacked pair: it allows the side
    positions left, behind, right and front, and favours nothing."""
    allowed, required = rule
    return not required and all(allowed >> q & 1 for q in (1, 2, 4, 5))


class TestFitsManyBoxes:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        """A bin of several non-overlapping boxes, with eta avoids, avoided
        side positions and favours: fits agrees with the reference on random
        spots, and ctx.side holds exactly the items with a rule that is not
        stacked-only."""
        draw = data.draw
        L, W, H = (draw(st.integers(2, 5)) for _ in range(3))
        m = draw(st.integers(3, 10))
        items = tuple(Item(index=i, l=draw(st.integers(1, min(L, 3))),
                           w=draw(st.integers(1, min(W, 3))), h=draw(st.integers(1, min(H, 3))),
                           mu=draw(st.integers(1, 9)), category=0) for i in range(m))
        eta = draw(st.none() | st.sampled_from((Fraction(3, 2), Fraction(2), Fraction(4))))
        derived = {(i, k) for i, k, _ in load_bearing_avoid(items, eta)} if eta else set()
        pairs = [(i, k) for i in range(m) for k in range(i + 1, m)]
        avoid = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 6)),
                              max_size=8))
        favour = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 6)),
                               max_size=4, unique_by=lambda t: t[0]))
        # a favoured pair takes no avoid triple, derived or drawn
        avoided = derived | {pair for pair, _ in avoid}
        # and Instance refuses a pair with all six positions avoided
        blocked = {(*pair, q) for pair, q in avoid} | (load_bearing_avoid(items, eta)
                                                      if eta else set())
        assume(not any({(*pair, q) for q in range(1, 7)} <= blocked for pair in pairs))
        inst = Instance(items=items, bin=BinSpec(L, W, H, n=1), eta=eta,
                        relpos_avoid=frozenset((*pair, q) for pair, q in avoid),
                        relpos_favour=frozenset((*pair, q) for pair, q in favour
                                                if pair not in avoided))
        ctx = _Ctx(inst, (1, 1, 1))
        table = relpos_masks(inst)
        for i in range(m):
            rules = [rule for pair, rule in table.items() if i in pair]
            assert (i in ctx.side) == any(not stacked_only(rule) for rule in rules)

        pk = _Packing(ctx)
        pk.bins.append(_Bin())
        bn = pk.bins[0]

        def spot(item):
            k, dims = draw(st.sampled_from([s[:2] for s in ctx.shapes[item]
                                            if s[1][0] <= L and s[1][1] <= W and s[1][2] <= H]))
            return k, dims, tuple(draw(st.integers(0, b - d)) for b, d in zip((L, W, H), dims))

        for item in draw(st.permutations(range(m)))[:draw(st.integers(1, m - 1))]:
            if not any(s[1][0] <= L and s[1][1] <= W and s[1][2] <= H
                       for s in ctx.shapes[item]):
                continue
            k, dims, corner = spot(item)
            if reference_pair_fits(Instance(items=items, bin=inst.bin), bn, item, dims, corner):
                place_at(pk, item, 0, k, dims, *corner)
        free = [i for i in range(m) if i not in pk.pos and any(
            s[1][0] <= L and s[1][1] <= W and s[1][2] <= H for s in ctx.shapes[i])]
        for _ in range(draw(st.integers(1, 8)) if free else 0):
            item = draw(st.sampled_from(free))
            _, dims, corner = spot(item)
            assert pk.fits(item, 0, dims, *corner) == \
                reference_pair_fits(inst, bn, item, dims, corner)


class TestConstruct:
    def test_new_bin_at_origin_in_first_in_bounds_orientation(self):
        """An item that the used bin does not admit (a negative affinity)
        opens a new bin at the origin, in its first in-bounds orientation."""
        items = (Item(0, 2, 2, 2, 1, 0), Item(1, 4, 2, 1, 1, 1))
        inst = Instance(items=items, bin=BinSpec(2, 4, 4, n=2),
                        affinities=Affinities(negative=frozenset({(0, 1)})))
        ctx = _Ctx(inst, (1, 1, 1))
        pk, failed = _construct(ctx, [0, 1])
        assert failed is None and len(pk.bins) == 2
        shape = next(s for s in ctx.shapes[1] if s[1][0] <= 2 and s[1][1] <= 4)
        assert shape[0] != ctx.shapes[1][0][0]  # the first orientation is out of bounds
        assert pk.pos[1] == (1, (1, shape[0], 0, 0, 0, *shape[1]),
                             ctx.item_tail(shape, 0, 0, 0))

    def test_group_bin_full(self):
        """An item whose positive group already sits in a bin with no room
        left fails, although n leaves bins free."""
        items = (Item(0, 2, 2, 2, 1, 0), Item(1, 1, 1, 1, 1, 1))
        inst = Instance(items=items, bin=BinSpec(2, 2, 2, n=3),
                        affinities=Affinities(positive=frozenset({(0, 1)})))
        assert _construct(_Ctx(inst, (1, 1, 1)), [0, 1]) == (None, 1)

    def test_all_bins_open(self):
        """Once n bins are open, an item that fits in none of them fails."""
        items = (Item(0, 2, 2, 2, 1, 0), Item(1, 1, 1, 1, 1, 0))
        inst = Instance(items=items, bin=BinSpec(2, 2, 2, n=1))
        assert _construct(_Ctx(inst, (1, 1, 1)), [0, 1]) == (None, 1)


def reference_candidates(bn):
    """A bin's corner points rebuilt from its boxes: the origin and each box's
    far corners (x1, y, z), (x, y1, z), (x, y, z1), sorted by (z, y, x)."""
    pts = {(0, 0, 0)}
    for (_, _, x, y, z, x1, y1, z1) in bn.boxes:
        pts.update(((x1, y, z), (x, y1, z), (x, y, z1)))
    return sorted(pts, key=lambda p: (p[2], p[1], p[0]))


def reference_occupied(bn, x, y, z):
    """Whether some box of the bin holds the point in its half-open extent."""
    return any(ox <= x < ox1 and oy <= y < oy1 and oz <= z < oz1
               for (_, _, ox, oy, oz, ox1, oy1, oz1) in bn.boxes)


def reference_best_spot(pk, item, bins, rng, cap):
    """The exhaustive scan that _best_spot must agree with: can_place on every
    sampled candidate and orientation, keeping the first spot of least tail."""
    ctx = pk.ctx
    best = None
    for j in bins:
        locked = pk.locked_bin(item)
        if locked is not None and locked != j:
            continue
        cands = reference_candidates(pk.bins[j])
        if len(cands) > cap:
            cands = sorted(rng.sample(cands, cap), key=lambda p: (p[2], p[1], p[0]))
        for (x, y, z) in cands:
            for shape in ctx.shapes[item]:
                k, dims = shape[:2]
                if can_place(pk, item, j, dims, x, y, z):
                    tail = ctx.item_tail(shape, x, y, z)
                    if best is None or tail < best[0]:
                        best = (tail, j, k, dims, x, y, z)
    return best


def reference_fits(inst, bn, item, dims, corner):
    """fits from the triples themselves: no box of the bin overlaps the new
    one, and each pair with avoid/favour triples takes an allowed position."""
    for (o, _, ox, oy, oz, ox1, oy1, oz1) in bn.boxes:
        own, other = (corner, dims), ((ox, oy, oz), (ox1 - ox, oy1 - oy, oz1 - oz))
        (p0, d0), (p1, d1) = (own, other) if item < o else (other, own)
        holds = (p0[0] + d0[0] <= p1[0], p0[1] + d0[1] <= p1[1], p0[2] + d0[2] <= p1[2],
                 p1[0] + d1[0] <= p0[0], p1[1] + d1[1] <= p0[1], p1[2] + d1[2] <= p0[2])
        valid = {q for q, h in zip(range(1, 7), holds) if h}
        if not valid:
            return False
        pair = (min(item, o), max(item, o))
        avoided = {q for i, k, q in inst.relpos_avoid if (i, k) == pair}
        favoured = {q for i, k, q in inst.relpos_favour if (i, k) == pair}
        if valid <= avoided or not favoured <= valid:
            return False
    return True


def corner_steps(draw, relpos=False):
    """Random place, remove and remove-then-place-back steps on a few bins, with
    boxes on corner points or anywhere in bounds; overlaps are allowed, so a
    point can lie in several boxes. Yields (packing, instance, spot drawer)
    after every step; relpos adds avoid/favour triples."""
    L, W, H = (draw(st.integers(2, 6)) for _ in range(3))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 12))
    items = tuple(Item(index=i, l=draw(st.integers(1, L)), w=draw(st.integers(1, W)),
                       h=draw(st.integers(1, H)), mu=1, category=0) for i in range(m))
    triples = []
    if relpos and m >= 2:
        pairs = [(i, k) for i in range(m) for k in range(i + 1, m)]
        triples = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 6),
                                          st.booleans()), max_size=12, unique_by=lambda t: t[0]))
    inst = Instance(items=items, bin=BinSpec(L, W, H, n=n),
                    relpos_avoid=frozenset((*pair, q) for pair, q, avoid in triples if avoid),
                    relpos_favour=frozenset((*pair, q) for pair, q, avoid in triples
                                            if not avoid))
    ctx = _Ctx(inst, (1, 1, 1))
    pk = _Packing(ctx)
    pk.bins.extend(_Bin() for _ in range(n))
    bounds = (L, W, H)

    def spot(item, j):
        """(k, dims, corner) of an in-bounds box, on a corner point or anywhere."""
        k, dims = draw(st.sampled_from([s[:2] for s in ctx.shapes[item]
                                        if all(x <= b for x, b in zip(s[1], bounds))]))
        corners = [p for p in points(pk.bins[j])
                   if all(c + d <= b for c, d, b in zip(p, dims, bounds))]
        if corners and draw(st.booleans()):
            return k, dims, draw(st.sampled_from(corners))
        return k, dims, tuple(draw(st.integers(0, b - d)) for b, d in zip(bounds, dims))

    for _ in range(draw(st.integers(1, 40))):
        item = draw(st.integers(0, m - 1))
        if item in pk.pos:
            saved = pk.remove(item)
            if draw(st.booleans()):
                pk.place(item, *saved)
        else:
            j = draw(st.integers(0, n - 1))
            k, dims, (x, y, z) = spot(item, j)
            place_at(pk, item, j, k, dims, x, y, z)
        yield pk, inst, spot


class TestCornerIndex:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_rebuild(self, data):
        """After every corner_steps step each bin's corner points and their
        occupancy equal the rebuild from its boxes."""
        for pk, _, _ in corner_steps(data.draw):
            for bn in pk.bins:
                cands = points(bn)
                assert cands == reference_candidates(bn)
                assert [bn.occupied(p) for p in bn.corners] == \
                    [reference_occupied(bn, *p) for p in cands]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lazy_counts_read_late(self, data):
        """occupied is asked about a drawn subset of the points per step, so
        a point's cover is first counted several steps after it appeared,
        and later steps adjust only counted points."""
        for pk, _, _ in corner_steps(data.draw):
            for bn in pk.bins:
                cands = points(bn)
                assert cands == reference_candidates(bn)
                for p in data.draw(st.lists(st.sampled_from(cands), max_size=3)):
                    assert bn.occupied(p[::-1]) == reference_occupied(bn, *p)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_blocker_never_stale(self, data):
        """fits between corner_steps steps, on random spots with avoid/favour
        triples: it agrees with a scan of overlap and relative position, and
        each bin's blocker is None or one of its boxes, also after the box
        that set it has been removed."""
        draw = data.draw
        for pk, inst, spot in corner_steps(draw, relpos=True):
            for _ in range(draw(st.integers(0, 4))):
                item = draw(st.integers(0, inst.m - 1))
                j = draw(st.integers(0, len(pk.bins) - 1))
                _, dims, corner = spot(item, j)
                assert pk.fits(item, j, dims, *corner) == \
                    reference_fits(inst, pk.bins[j], item, dims, corner)
            for bn in pk.bins:
                assert bn.blocker is None or bn.blocker in bn.boxes


class TestPackingCopy:
    def test_moves_on_a_copy_leave_the_original(self):
        """Local search on a copy of a constructed packing changes the copy
        and leaves every part of the original as it was."""
        inst = archetype(11, seed=3)
        ctx = _Ctx(inst, (1, 1, 1))
        blocks, singles = _order_blocks(ctx, inst)
        pk, _ = _construct(ctx, [i for block in blocks for i in block] + singles)

        def state(p):
            return ([(list(bn.boxes), list(bn.corners), dict(bn.cover), dict(bn.refs),
                      dict(bn.cats), bn.load, bn.volume) for bn in p.bins],
                    dict(p.pos), {g: dict(locs) for g, locs in p.group_bin.items()}, p.tail)

        assert pk.group_bin
        for bn in pk.bins:  # count a few covers, so the copy starts with some
            for p in bn.corners[::3]:
                bn.occupied(p)
        before = state(pk)
        twin = pk.copy()
        assert state(twin) == before
        _local_search(twin, random.Random(5), lambda iters: iters >= 300)
        for item in list(twin.pos)[:5]:
            twin.remove(item)
        assert state(twin) != before
        assert state(pk) == before


class TestBestSpot:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_exhaustive_scan(self, data):
        """On random partial packings with weight caps, negative and positive
        affinities, avoid/favour triples and tail weights of either sign,
        _best_spot returns the reference scan's spot, or None when a drawn
        bound is not above its tail, and draws the same random numbers."""
        draw = data.draw
        L, W, H = (draw(st.integers(3, 7)) for _ in range(3))
        n = draw(st.integers(1, 3))
        m = draw(st.integers(2, 60))
        items = tuple(Item(index=i, l=draw(st.integers(1, min(L, 3))),
                           w=draw(st.integers(1, min(W, 3))), h=draw(st.integers(1, min(H, 3))),
                           mu=draw(st.integers(1, 9)), category=draw(st.integers(0, 3)))
                      for i in range(m))
        cat_pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        neg = draw(st.sets(st.sampled_from(cat_pairs), max_size=2))
        pos = draw(st.sets(st.sampled_from([p for p in cat_pairs if p not in neg]), max_size=2))
        item_pairs = [(i, k) for i in range(m) for k in range(i + 1, m)]
        relpos = draw(st.lists(st.tuples(st.sampled_from(item_pairs), st.integers(1, 6),
                                         st.booleans()), max_size=12, unique_by=lambda t: t[0]))
        eta = draw(st.none() | st.just(Fraction(2)))
        if eta is not None:  # a favoured pair may not also get derived avoid triples
            derived = {(i, k) for i, k, _ in load_bearing_avoid(items, eta)}
            relpos = [t for t in relpos if t[2] or t[0] not in derived]
        inst = Instance(
            items=items,
            bin=BinSpec(L, W, H, n=n, max_weight=draw(st.none() | st.integers(9, 60))),
            affinities=Affinities(positive=frozenset(pos), negative=frozenset(neg)),
            eta=eta,
            com_target=draw(st.none() | st.tuples(st.integers(0, L), st.integers(0, W)).map(
                lambda t: (Fraction(t[0]), Fraction(t[1])))),
            relpos_avoid=frozenset((*pair, q) for pair, q, avoid in relpos if avoid),
            relpos_favour=frozenset((*pair, q) for pair, q, avoid in relpos if not avoid),
        )
        # zero, positive and negative tail rates: under a negative one the
        # z-ordered cut of _best_spot has no lower bound and must not apply
        rate = st.sampled_from((0, Fraction(2, 3), 1, -1, Fraction(-5, 3)))
        ctx = _Ctx(inst, (1, draw(rate), draw(rate)))
        pk = _Packing(ctx)
        pk.bins.extend(_Bin() for _ in range(n))
        rnd = random.Random(draw(st.integers(0, 2 ** 32)))
        for item in range(m):  # dense corner placements, some anywhere
            for _ in range(8):
                j = rnd.randrange(n)
                k, dims = rnd.choice(ctx.shapes[item])[:2]
                if rnd.random() < 0.8:
                    z, y, x = rnd.choice(pk.bins[j].corners)
                else:
                    x, y, z = (rnd.randrange(d) for d in (L, W, H))
                if can_place(pk, item, j, dims, x, y, z):
                    place_at(pk, item, j, k, dims, x, y, z)
                    break
        cap = draw(st.sampled_from((1, 3, 8, CANDIDATE_CAP)))
        seed = draw(st.integers(0, 2 ** 32))
        for item in range(m):
            saved = pk.pos.get(item) and pk.remove(item)
            bins = [j for j in range(n) if draw(st.booleans())]
            rng_ref, rng_new = random.Random(seed), random.Random(seed)
            ref = reference_best_spot(pk, item, bins, rng_ref, cap)
            bound = draw(st.none() | st.integers(-2, 2).map(
                lambda d: (0 if ref is None else ref[0]) + d))
            expected = ref if ref is not None and (bound is None or ref[0] < bound) else None
            assert _best_spot(pk, item, bins, rng_new, cap, bound) == expected
            assert rng_new.getstate() == rng_ref.getstate()
            if saved:
                pk.place(item, *saved)


    def test_exact_fill(self):
        """The last free cell of a bin: the free-volume pre-check admits an
        item that fills the bin exactly."""
        inst = Instance(items=cubes(8), bin=BinSpec(2, 2, 2, n=1))
        pk = _Packing(_Ctx(inst, (1, 1, 1)))
        pk.bins.append(_Bin())
        for item, (x, y, z) in enumerate(
                [(x, y, z) for z in (0, 1) for y in (0, 1) for x in (0, 1)][:7]):
            place_at(pk, item, 0, 1, (1, 1, 1), x, y, z)
        spot = _best_spot(pk, 7, [0], random.Random(0), CANDIDATE_CAP)
        assert spot == reference_best_spot(pk, 7, [0], random.Random(0), CANDIDATE_CAP)
        assert spot[1:] == (0, 1, (1, 1, 1), 1, 1, 1)


class TestSampleSorted:
    # sample picks from a pool up to a set size of 21 for k <= 5 (then 85
    # for k = 6, 277 for k = 48) and from a set of taken indices above it
    @pytest.mark.parametrize("n,k", [
        (1, 1), (6, 5), (21, 5), (22, 5), (300, 5),
        (85, 6), (86, 6),
        (49, CANDIDATE_CAP), (200, CANDIDATE_CAP), (277, CANDIDATE_CAP),
        (278, CANDIDATE_CAP), (1000, CANDIDATE_CAP),
    ])
    def test_same_draw_as_sample(self, n, k):
        """sorted(rng.sample(range(n), k)) and the same random stream after."""
        for seed in range(40):
            rng, ref = random.Random(seed), random.Random(seed)
            assert _sample_sorted(rng, n, k) == sorted(ref.sample(range(n), k))
            assert rng.getstate() == ref.getstate()


def reference_least_tail(pk, item, j, x, y, z):
    """can_place on every orientation at the spot, keeping the first of least tail."""
    best = None
    for shape in pk.ctx.shapes[item]:
        if can_place(pk, item, j, shape[1], x, y, z):
            tail = pk.ctx.item_tail(shape, x, y, z)
            if best is None or tail < best[0]:
                best = (tail, shape[0], shape[1])
    return best


def dense_packing(draw):
    """A random partial packing with weight caps, negative and positive
    affinities, avoid/favour triples, maybe a CoM target, and tail weights of
    either sign: each item is tried at up to eight random spots, most of them
    corner points, and placed at the first one can_place admits (bounds, then
    admits, then fits)."""
    L, W, H = (draw(st.integers(3, 7)) for _ in range(3))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 30))
    items = tuple(Item(index=i, l=draw(st.integers(1, min(L, 3))),
                       w=draw(st.integers(1, min(W, 3))), h=draw(st.integers(1, min(H, 3))),
                       mu=draw(st.integers(1, 9)), category=draw(st.integers(0, 3)))
                  for i in range(m))
    cat_pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    neg = draw(st.sets(st.sampled_from(cat_pairs), max_size=2))
    pos = draw(st.sets(st.sampled_from([p for p in cat_pairs if p not in neg]), max_size=2))
    item_pairs = [(i, k) for i in range(m) for k in range(i + 1, m)]
    relpos = draw(st.lists(st.tuples(st.sampled_from(item_pairs), st.integers(1, 6),
                                     st.booleans()), max_size=12, unique_by=lambda t: t[0]))
    inst = Instance(
        items=items,
        bin=BinSpec(L, W, H, n=n, max_weight=draw(st.none() | st.integers(9, 60))),
        affinities=Affinities(positive=frozenset(pos), negative=frozenset(neg)),
        com_target=draw(st.none() | st.tuples(st.integers(0, L), st.integers(0, W)).map(
            lambda t: (Fraction(t[0]), Fraction(t[1])))),
        relpos_avoid=frozenset((*pair, q) for pair, q, avoid in relpos if avoid),
        relpos_favour=frozenset((*pair, q) for pair, q, avoid in relpos if not avoid),
    )
    # a negative tail rate switches off the bound that swap and reorient use
    rate = st.sampled_from((0, Fraction(2, 3), 1, -1, Fraction(-5, 3)))
    ctx = _Ctx(inst, (1, draw(rate), draw(rate)))
    pk = _Packing(ctx)
    pk.bins.extend(_Bin() for _ in range(n))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    for item in range(m):
        for _ in range(8):
            j = rnd.randrange(n)
            k, dims = rnd.choice(ctx.shapes[item])[:2]
            if rnd.random() < 0.8:
                z, y, x = rnd.choice(pk.bins[j].corners)
            else:
                x, y, z = (rnd.randrange(d) for d in (L, W, H))
            if can_place(pk, item, j, dims, x, y, z):
                place_at(pk, item, j, k, dims, x, y, z)
                break
    return pk


def reference_swap(pk, rng, items):
    """The swap as full remove/place calls, with no bound: every trial keeps
    the corner index up to date, and a rejected one undoes itself."""
    if len(items) < 2:
        return False
    i, o = rng.sample(items, 2)
    before = (pk.o1, pk.tail)
    si = pk.remove(i)
    so = pk.remove(o)
    placed = []
    ok = True
    for item, (j, (_, _, x, y, z, *_), _) in ((i, so), (o, si)):
        got = pk.least_tail_at(item, j, x, y, z)
        if got is None:
            ok = False
            break
        _, k, dims = got
        place_at(pk, item, j, k, dims, x, y, z)
        placed.append(item)
    if ok and (pk.o1, pk.tail) < before:
        return True
    for item in reversed(placed):
        pk.remove(item)
    pk.place(i, *si)
    pk.place(o, *so)
    return False


def reference_reorient(pk, rng, items):
    """The reorient as full remove/place calls, with no bound."""
    item = items[rng.randrange(len(items))]
    if len(pk.ctx.shapes[item]) < 2:
        return False
    before = (pk.o1, pk.tail)
    saved = pk.remove(item)
    j, (_, _, x, y, z, *_), _ = saved
    best = pk.least_tail_at(item, j, x, y, z)
    if best is not None:
        _, k, dims = best
        place_at(pk, item, j, k, dims, x, y, z)
        if (pk.o1, pk.tail) < before:
            return True
        pk.remove(item)
    pk.place(item, *saved)
    return False


class TestLeastTailAt:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bound(self, data):
        """At placed items' spots and random ones: without a bound the first
        orientation of least tail that fits; with one, that answer when its
        tail is under the bound, else None."""
        draw = data.draw
        pk = dense_packing(draw)
        ctx = pk.ctx
        for item in sorted(pk.pos):
            saved = pk.remove(item)
            j, (_, _, x, y, z, *_), _ = saved
            if draw(st.booleans()):
                x, y, z = (draw(st.integers(0, d - 1)) for d in (ctx.L, ctx.W, ctx.H))
            want = reference_least_tail(pk, item, j, x, y, z)
            assert pk.least_tail_at(item, j, x, y, z) == want
            bound = draw(st.integers(-2, 2).map(
                lambda d: (0 if want is None else want[0]) + d))
            assert pk.least_tail_at(item, j, x, y, z, bound) == (
                want if want is not None and want[0] < bound else None)
            pk.place(item, *saved)


def bookkeeping(pk):
    return (dict(pk.pos), pk.tail, [(bn.load, bn.volume, dict(bn.cats)) for bn in pk.bins],
            {g: dict(locs) for g, locs in pk.group_bin.items()})


def corner_index(pk):
    return [(list(bn.corners), dict(bn.refs), dict(bn.cover)) for bn in pk.bins]


class TestTrialMoves:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_match_full_moves(self, data):
        """Swap and reorient give the full remove/place versions' result,
        totals and random stream, and after every move each bin's corner
        index equals the rebuild from its boxes and its blocker is current."""
        draw = data.draw
        pk = dense_packing(draw)
        twin = pk.copy()
        items = sorted(pk.pos)
        if not items:
            return
        seed = draw(st.integers(0, 2 ** 32))
        rng, rng_ref = random.Random(seed), random.Random(seed)
        for _ in range(draw(st.integers(1, 30))):
            if draw(st.booleans()):
                got, want = _move_swap(pk, rng, items), reference_swap(twin, rng_ref, items)
            else:
                got, want = (_move_reorient(pk, rng, items),
                             reference_reorient(twin, rng_ref, items))
            assert got == want
            assert bookkeeping(pk) == bookkeeping(twin)
            assert rng.getstate() == rng_ref.getstate()
            for bn in pk.bins:
                cands = points(bn)
                assert cands == reference_candidates(bn)
                assert [bn.occupied(p) for p in bn.corners] == \
                    [reference_occupied(bn, *p) for p in cands]
                assert bn.blocker is None or bn.blocker in bn.boxes

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_rejected_trial_leaves_the_index(self, data):
        """A rejected swap or reorient never recounts a cover and leaves
        every bin's corner points, their references and covers as they were."""
        draw = data.draw
        pk = dense_packing(draw)
        items = sorted(pk.pos)
        if not items:
            return
        recounts = []
        original = _Bin._recount

        def counted(bn, box, delta):
            recounts.append(box)
            original(bn, box, delta)

        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Bin, "_recount", counted)
            for _ in range(30):
                before = corner_index(pk)
                recounts.clear()
                move = _move_swap if draw(st.booleans()) else _move_reorient
                if not move(pk, rng, items):
                    assert recounts == []
                    assert corner_index(pk) == before

    def test_bound_refuses_before_moving(self, monkeypatch):
        """Two boxes lying flat on the floor, no CoM target: no swap or
        reorient can lower their tails, so neither lifts a box."""
        items = tuple(Item(index=i, l=2, w=1, h=1, mu=1, category=0) for i in range(2))
        pk = _Packing(_Ctx(Instance(items=items, bin=BinSpec(4, 4, 4, n=1)), (1, 1, 1)))
        pk.bins.append(_Bin())
        place_at(pk, 0, 0, 1, (2, 1, 1), 0, 0, 0)
        place_at(pk, 1, 0, 1, (2, 1, 1), 0, 1, 0)
        assert all(min(s[1][2] for s in pk.ctx.shapes[i]) == 1 for i in range(2))
        lifted = []
        monkeypatch.setattr(_Packing, "lift", lambda self, item: lifted.append(item))
        before = bookkeeping(pk), corner_index(pk)
        for seed in range(5):
            rng = random.Random(seed)
            assert not _move_swap(pk, rng, [0, 1])
            assert not _move_reorient(pk, rng, [0, 1])
        assert lifted == []
        assert (bookkeeping(pk), corner_index(pk)) == before


def solution_sha256(tmp_path, result, seed, solver="heuristic", iterations=40):
    out = tmp_path / "golden.json"
    save_solution(result.best, out, energy=result.energy, solver=solver, seed=seed,
                  elapsed_s=result.elapsed, iterations=iterations, run_log=result.run_log,
                  instance_name="golden")
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestHeuristicGolden:
    """Pinned iteration-mode output: a change meant as a pure speedup of the
    heuristic must leave these solution bytes identical."""

    @pytest.mark.parametrize("number,digest", [
        (1, "ae148a9beaf47e0b1e71e3a1062ac96da4c7c32c9bee5d68fd683d93f7268736"),
        (2, "d160aeae48f60dd8ccc50c6d3c1294009bfb0eaad912a7c6097477939a9dcd82"),
        (4, "b5c292d3f6ada7a63b5abd83349c0f39ec575756af4ec827cf8059329a595253"),
        (11, "ff9b86426ee45fe0ec620efa86ca46cee3f3ba5d95cb0f93dd61b6ab73293919"),
        (6, "05e876998de21fec5e741f8471d4cd0779ad20756fdbbee72458154182af3782"),
        (8, "afde4dfaa5e813a135bfc70fcd96c02b66f7578321aad51c43fa225c2e7f1eb9"),
    ])
    def test_archetype_solution_bytes(self, tmp_path, number, digest):
        result = solve_heuristic(archetype(number, seed=3),
                                 SolverConfig(iterations=40, seed=3, runs=2))
        assert solution_sha256(tmp_path, result, 3) == digest

    def test_long_search(self, tmp_path):
        """Archetype 12 at 120 iterations: many reinserts hit CANDIDATE_CAP."""
        result = solve_heuristic(archetype(12, seed=3),
                                 SolverConfig(iterations=120, seed=3, runs=2))
        assert solution_sha256(tmp_path, result, 3, iterations=120) == (
            "4d97c217f1213cba52dbffd1b0a1b0a8f402ecc2e99436aa2774c2ed7c9ea297")

    def test_fractional_com_target_and_weights(self, tmp_path):
        inst = dataclasses.replace(archetype(9, seed=3),
                                   com_target=(Fraction(2251, 3), Fraction(1501, 2)))
        cfg = SolverConfig(iterations=40, seed=3, runs=2,
                           weights=(1, Fraction(2, 3), Fraction(5, 7)))
        result = solve_heuristic(inst, cfg, checkpoints=[0, 10, 40])
        assert solution_sha256(tmp_path, result, 3) == (
            "b37be5ec581d0940f49ab908e74e5576fcf8e7f48ba3a09b5379b3644f3f19be")
        assert result.checkpoint_runs == (
            (Fraction(634129, 987000), Fraction(30799, 49350), Fraction(1747379, 2961000)),
            (Fraction(634129, 987000), Fraction(617833, 987000), Fraction(117169, 197400)),
        )


class TestOracle:
    def test_spec_example_two_items(self):
        inst = Instance(items=(Item(0, 1, 1, 2, 1, 0), Item(1, 2, 1, 1, 1, 0)),
                        bin=BinSpec(2, 1, 2, n=1))
        result = solve_oracle(inst)
        assert result.best.o2 == Fraction(3, 4)

    def test_single_cube_tight_bin(self):
        inst = Instance(items=cubes(1), bin=BinSpec(1, 1, 1, n=1))
        result = solve_oracle(inst)
        assert result.best.placements[0].corner == (0, 0, 0)
        assert result.best.o2 == 1

    def test_caps_refused(self):
        inst = Instance(items=cubes(5), bin=BinSpec(2, 2, 2, n=2))
        with pytest.raises(OracleCapError, match="m=5"):
            solve_oracle(inst)
        big = Instance(items=cubes(1), bin=BinSpec(5, 5, 5, n=1))
        with pytest.raises(OracleCapError, match="volume"):
            solve_oracle(big)

    def test_load_bearing_never_heavy_above_light(self):
        items = (Item(0, 2, 2, 1, 2, 0), Item(1, 2, 2, 1, 6, 1))
        inst = Instance(items=items, bin=BinSpec(2, 2, 2, n=1), eta=Fraction(3, 2))
        for sol in enumerate_feasible(inst):
            report = check(inst, sol)
            assert report.feasible
            by_item = {p.item: p for p in sol.placements}
            p0, p1 = by_item[0], by_item[1]
            # heavy item 1 never rests above item 0
            assert not (p1.z >= p0.z + 1 and p1.x < p0.x + 2 and p0.x < p1.x + 2)
        result = solve_oracle(inst)
        assert result.best is not None

    def test_oracle_deterministic(self):
        inst = Instance(items=(Item(0, 1, 1, 2, 1, 0), Item(1, 2, 1, 1, 1, 0)),
                        bin=BinSpec(2, 1, 2, n=1))
        a, b = solve_oracle(inst), solve_oracle(inst)
        assert a.best == b.best and a.energy == b.energy

    def test_oracle_matches_exhaustive_enumeration(self):
        rng = random.Random(6)
        for _ in range(5):
            items = tuple(Item(index=i, l=rng.randint(1, 2), w=rng.randint(1, 2),
                               h=rng.randint(1, 2), mu=rng.randint(1, 4),
                               category=0) for i in range(2))
            inst = Instance(items=items, bin=BinSpec(3, 3, 3, n=1))
            best = solve_oracle(inst)
            all_feasible = enumerate_feasible(inst)
            keys = [objectives(inst, s)[:2] for s in all_feasible]
            assert (best.best.o1, best.best.o2) == min(keys)

    def test_matches_brute_force_with_every_feature(self):
        # the oracle prunes through the heuristic's admits/fits, so a rule
        # there that is too strict would hide the optimum from both solvers;
        # the brute-force enumeration shares no rule with either
        rng = random.Random(2026)
        for _ in range(60):
            inst = featured_oracle_instance(rng, max_items=3, max_volume=8)
            keys = [objectives(inst, s) for s in enumerate_feasible(inst)
                    if check(inst, s).feasible]
            best = solve_oracle(inst).best
            want = min(((o1, o2, o3 or 0) for o1, o2, o3 in keys), default=None)
            got = None if best is None else (best.o1, best.o2, best.o3 or 0)
            assert got == want


class TestOracleGolden:
    """The oracle's exact output, tie-breaks included, on featured instances
    within the caps with fractional objective weights."""

    DIGEST = "290febfd9352ae5ec7a1689c552940ba40c1d3b80fca8808f45b95ccbed7ca36"

    def test_output_pinned(self):
        rng = random.Random(20261022)
        h = hashlib.sha256()
        for _ in range(40):
            inst = featured_oracle_instance(rng, *rng.choice(((3, 64), (4, 16))))
            weights = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(3))
            result = solve_oracle(inst, weights=weights)
            h.update(repr((result.best, result.energy, result.run_log,
                           result.infeasible_reason)).encode())
        assert h.hexdigest() == self.DIGEST


class TestAnnealer:
    def test_single_item_feasible(self):
        inst = Instance(items=cubes(1), bin=BinSpec(3, 3, 3, n=1))
        result = solve_annealer(inst, SolverConfig(backend="annealer",
                                                   iterations=1500, seed=0))
        assert result.best is not None
        assert check(inst, result.best).feasible

    def test_two_items_single_bin(self):
        inst = Instance(items=(Item(0, 1, 1, 2, 1, 0), Item(1, 2, 1, 1, 1, 0)),
                        bin=BinSpec(2, 1, 2, n=1))
        result = solve_annealer(inst, SolverConfig(backend="annealer",
                                                   iterations=8000, seed=1))
        assert result.best is not None
        assert check(inst, result.best).feasible

    def test_seed_sweep_reaches_oracle_bin_count(self):
        # property-based: at least one seed matches the oracle's o1
        inst = Instance(items=cubes(4), bin=BinSpec(2, 2, 1, n=2))
        oracle_o1 = solve_oracle(inst).best.o1
        hits = []
        for seed in range(4):
            r = solve_annealer(inst, SolverConfig(backend="annealer",
                                                  iterations=12000, seed=seed))
            if r.best is not None:
                assert check(inst, r.best).feasible
                hits.append(r.best.o1)
        assert any(o1 == oracle_o1 for o1 in hits)

    def test_energy_matches_model_objective(self):
        from binpack3d import build_model, encode_solution, evaluate
        inst = Instance(items=(Item(0, 1, 1, 2, 1, 0), Item(1, 2, 1, 1, 1, 0)),
                        bin=BinSpec(2, 1, 2, n=1))
        result = solve_annealer(inst, SolverConfig(backend="annealer",
                                                   iterations=8000, seed=3))
        assert result.best is not None
        model = build_model(inst)
        value, violations = evaluate(model, encode_solution(inst, result.best))
        assert violations == []
        assert value == result.energy

    def test_no_move_in_the_budget(self, monkeypatch):
        """A run that ends before its first move, with a random start that
        violates the model, says so: with iterations=0, and in time mode
        when a slowed build_model eats the whole budget."""
        inst = solvable_instance(random.Random(7), m=6)
        pin_cpus(monkeypatch, 1)
        zero = solve_annealer(inst, SolverConfig(backend="annealer", iterations=0, seed=1))
        build = annealer.build_model

        def slowed(*args):
            time.sleep(0.3)
            return build(*args)

        monkeypatch.setattr(annealer, "build_model", slowed)
        timed = solve_annealer(inst, SolverConfig(backend="annealer", time_limit=0.2, seed=1))
        for result in (zero, timed):
            assert result.best is None and result.run_log == ()
            assert result.infeasible_reason == (
                "annealer made no move: the budget ran out before the first one, "
                "and the random start violates the model")

    def test_determinism(self):
        inst = Instance(items=cubes(2), bin=BinSpec(2, 2, 2, n=1))
        cfg = SolverConfig(backend="annealer", iterations=3000, seed=7)
        assert solve_annealer(inst, cfg) == solve_annealer(inst, cfg)


class TestAnnealerGolden:
    """Pinned iteration-mode output of the annealer. 3000 iterations pass a
    reheat and five penalty growth steps, so the bytes pin the per-run
    seeding and the schedule constants, except PENALTY_CAP: the penalty
    weight only reaches it after about 12,000 iterations."""

    @pytest.mark.parametrize("items,bin_spec,seed,digest", [
        (cubes(2), BinSpec(2, 2, 2, n=1), 7,
         "94c67a30e07f44b2a220ccf43af628300589286fa0f48032a1c5090d19717927"),
        (cubes(3), BinSpec(2, 2, 1, n=2), 2,
         "c3bf256e6dc7fd34e63032e0b4fdbfa74710eaa79ead57076c82cbc524b97af8"),
        ((Item(0, 1, 1, 2, 1, 0), Item(1, 2, 1, 1, 1, 0)), BinSpec(2, 1, 2, n=2), 5,
         "c11cef042277b20a8428be4ce4fb05b99a27fea7d87890b49b807e0ef206d263"),
    ])
    def test_solution_bytes(self, tmp_path, items, bin_spec, seed, digest):
        result = solve_annealer(Instance(items=items, bin=bin_spec),
                                SolverConfig(backend="annealer", iterations=3000,
                                             seed=seed, runs=2))
        assert solution_sha256(tmp_path, result, seed, "annealer", 3000) == digest


class TestPositiveGroups:
    @pytest.mark.parametrize("backend", ["heuristic", "oracle"])
    def test_absent_category_joins_nothing(self, backend):
        """positive [[1, 2], [2, 3]] with no category-2 item binds no item
        pair, so 2x2x2 items of categories 1 and 3 may fill two 2x2x2 bins."""
        items = (Item(0, 2, 2, 2, 1, 1), Item(1, 2, 2, 2, 1, 3))
        inst = Instance(items=items, bin=BinSpec(2, 2, 2, n=2),
                        affinities=Affinities(positive=frozenset({(1, 2), (2, 3)})))
        result = solve(inst, SolverConfig(backend=backend, iterations=10))
        assert result.best is not None and result.best.o1 == 2
        assert check(inst, result.best).feasible


class TestDispatcherAndThreads:
    def test_dispatch_oracle(self):
        inst = Instance(items=cubes(1), bin=BinSpec(2, 2, 2, n=1))
        result = solve(inst, SolverConfig(backend="oracle"))
        assert result.best is not None


class TestRunStats:
    def test_identical_energies(self):
        st = run_stats([2, 2, 2])
        assert (st.mean, st.std, st.sigma_bar) == (2, 0, 0)

    def test_hand_computed_pair(self):
        st = run_stats([1, 3])
        assert st.mean == 2
        assert st.sigma_bar == Fraction(1, 2)
        assert st.std == 1.0
        assert (st.minimum, st.maximum) == (1, 3)

    def test_singleton(self):
        assert run_stats([Fraction(5, 2)]).sigma_bar == 0

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="zero mean"):
            run_stats([1, -1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_stats([])

    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=20))
    def test_properties_on_positive_energies(self, energies):
        st_ = run_stats(energies)
        assert st_.sigma_bar >= 0
        assert (st_.sigma_bar == 0) == (len(set(energies)) == 1)
        assert st_.minimum <= st_.mean <= st_.maximum
        assert st_.std >= 0

    @given(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=Fraction(50)),
                    min_size=1, max_size=12))
    def test_exact_rational_sigma_bar(self, energies):
        st_ = run_stats(energies)
        mean = sum(energies, Fraction(0)) / len(energies)
        expected = sum(abs(e / mean - 1) for e in energies) / len(energies)
        assert st_.sigma_bar == expected
