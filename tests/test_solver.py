import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binpack3d import (
    Affinities,
    BinSpec,
    Instance,
    Item,
    OracleCapError,
    OracleLimits,
    PackingSolution,
    Placement,
    SolverConfig,
    allowed_orientations,
    archetype,
    effective_dims,
    run_stats,
    solve,
    solve_annealer,
    solve_heuristic,
    solve_oracle,
)
from binpack3d.fileio import save_solution
from binpack3d.solver.heuristic import _Bin, _Ctx, _Packing
from binpack3d.validate import check

from helpers import enumerate_feasible, oracle_instance, respects_relpos, solvable_instance


def cubes(count, side=1, mu=1, categories=None):
    return tuple(Item(index=i, l=side, w=side, h=side, mu=mu,
                      category=(categories[i] if categories else 0))
                 for i in range(count))


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


class TestCanPlace:
    @settings(max_examples=300)
    @given(st.data())
    def test_matches_validator_for_one_pair(self, data):
        """Box `second` against box `first` already in the bin: can_place says
        yes exactly when the validator (plus the avoid/favour referee) accepts
        the pair, for random dims, corners and relative-position triples."""
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
            # one favoured position: the model rejects a pair favoured in two
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
        pk.place(first, 0, ks[first], dims[first], *corners[first])
        got = pk.can_place(second, 0, dims[second], *corners[second])

        sol = PackingSolution(tuple(Placement(item=i, bin=1, k=ks[i], x=corners[i][0],
                                              y=corners[i][1], z=corners[i][2])
                                    for i in range(2)))
        assert got == (check(inst, sol).feasible and respects_relpos(inst, sol))


def solution_sha256(tmp_path, result, seed):
    out = tmp_path / "golden.json"
    save_solution(result.best, out, energy=result.energy, solver="heuristic", seed=seed,
                  elapsed_s=result.elapsed, iterations=40, run_log=result.run_log,
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
    ])
    def test_archetype_solution_bytes(self, tmp_path, number, digest):
        result = solve_heuristic(archetype(number, seed=3),
                                 SolverConfig(iterations=40, seed=3, runs=2))
        assert solution_sha256(tmp_path, result, 3) == digest

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

    def test_custom_limits(self):
        big = Instance(items=cubes(1), bin=BinSpec(5, 5, 5, n=1))
        result = solve_oracle(big, limits=OracleLimits(max_bin_volume=125))
        assert result.best is not None

    def test_load_bearing_never_heavy_above_light(self):
        items = (Item(0, 2, 2, 1, 2, 0), Item(1, 2, 2, 1, 6, 1))
        inst = Instance(items=items, bin=BinSpec(2, 2, 2, n=1), eta=Fraction(3, 2))
        for sol in enumerate_feasible(inst):
            report = check(inst, sol)
            assert report.feasible
            p0 = sol.placement_of(0)
            p1 = sol.placement_of(1)
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
            from binpack3d.validate import objectives
            keys = [objectives(inst, s)[:2] for s in all_feasible]
            assert (best.best.o1, best.best.o2) == min(keys)


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

    def test_determinism(self):
        inst = Instance(items=cubes(2), bin=BinSpec(2, 2, 2, n=1))
        cfg = SolverConfig(backend="annealer", iterations=3000, seed=7)
        assert solve_annealer(inst, cfg) == solve_annealer(inst, cfg)


class TestDispatcherAndThreads:
    def test_dispatch_oracle(self):
        inst = Instance(items=cubes(1), bin=BinSpec(2, 2, 2, n=1))
        result = solve(inst, SolverConfig(backend="oracle"))
        assert result.best is not None

    def test_thread_fanout_matches_sequential(self, monkeypatch):
        rng = random.Random(8)
        inst = solvable_instance(rng)
        cfg = SolverConfig(iterations=25, seed=9, runs=3)
        seq = solve(inst, cfg)
        monkeypatch.setenv("BINPACK3D_THREADS", "3")
        par = solve(inst, cfg)
        assert par.run_log == seq.run_log
        assert par.best == seq.best


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
