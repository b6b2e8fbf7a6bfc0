"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import itertools
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import pytest

from binpack3d import (
    ARCHETYPE_MODEL_SIZES,
    GenSpec,
    Placement,
    PackingSolution,
    SolverConfig,
    allowed_orientations,
    archetypes,
    audit_counts,
    build_model,
    count_model,
    encode_solution,
    evaluate,
    generate,
    lp_string,
    objective_breakdown,
    render_svg,
    run_stats,
    solution_energy,
    solve_heuristic,
    solve_oracle,
)
from binpack3d.core import Affinities, BinSpec, Instance, Item
from binpack3d.datagen import ARCHETYPE_FLAGS, ARCHETYPE_SIZE_CLASSES
from binpack3d.fileio import (
    instance_from_dict,
    instance_to_dict,
    solution_from_dict,
    solution_to_dict,
    _dump,
)
from binpack3d.validate import LOAD_BEARING, RELATIVE_POSITION, check, objectives

from helpers import (FEATURES, model_flags, oracle_instance, random_instance,
                     solvable_instance)


@contextmanager
def criterion(num: int, name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS ({time.monotonic() - start:.1f}s)")


def test_criterion_1_counting_fidelity():
    with criterion(1, "counting fidelity"):
        start = time.monotonic()
        rng = random.Random(101)
        flag_subsets = [list(sub) for r in range(len(FEATURES) + 1)
                        for sub in itertools.combinations(FEATURES, r)]
        assert len(flag_subsets) >= 32
        for trial in range(200):
            flags = flag_subsets[trial % len(flag_subsets)]
            inst = random_instance(rng, features=flags,
                                   m=rng.randint(1, 8), n=rng.randint(1, 3))
            counts = count_model(inst)
            audited = audit_counts(build_model(inst))
            assert audited.as_dict() == counts.as_dict(), (trial, flags)

        def distinct(dims_list, bin_spec, **kw):
            items = tuple(Item(index=i, l=l, w=w, h=h, mu=1, category=0)
                          for i, (l, w, h) in enumerate(dims_list))
            return Instance(items=items, bin=bin_spec, **kw)

        a = count_model(distinct([(2, 3, 5), (2, 4, 7), (3, 5, 6)],
                                 BinSpec(10, 10, 10, n=2)))
        assert (a.binary, a.continuous, a.quadratic_constraints,
                a.linear_constraints) == (44, 9, 38, 31)
        b = count_model(distinct([(2, 3, 5), (2, 4, 7)], BinSpec(10, 10, 10, n=1)))
        assert (b.binary, b.continuous, b.quadratic_constraints,
                b.linear_constraints) == (18, 6, 0, 15)
        c = count_model(distinct([(2, 3, 5), (2, 4, 7)], BinSpec(10, 10, 10, n=1),
                                 com_target=(5, 5)))
        assert c.continuous == b.continuous + 2 * 2
        assert c.linear_constraints == b.linear_constraints + 4 * 2
        assert time.monotonic() - start < 10.0


def _perturb_infeasible(rng, inst, sol):
    """A perturbed variant the validator rejects (geometric infeasibility)."""
    placements = list(sol.placements)
    n, L = inst.bin.n, inst.bin.L
    for _ in range(30):
        kind = rng.choice(("collide", "shift", "bad_bin", "bad_k"))
        idx = rng.randrange(len(placements))
        p = placements[idx]
        new = None
        if kind == "collide" and len(placements) > 1:
            other = placements[(idx + 1) % len(placements)]
            new = Placement(item=p.item, bin=other.bin, k=p.k,
                            x=other.x, y=other.y, z=other.z)
        elif kind == "shift":
            new = Placement(item=p.item, bin=p.bin, k=p.k,
                            x=p.x + rng.randint(1, n * L), y=p.y, z=p.z)
        elif kind == "bad_bin":
            new = Placement(item=p.item, bin=n + 1, k=p.k, x=p.x, y=p.y, z=p.z)
        elif kind == "bad_k":
            item = inst.items[p.item]
            outside = [k for k in range(1, 7) if k not in allowed_orientations(item)]
            if outside:
                new = Placement(item=p.item, bin=p.bin, k=outside[0],
                                x=p.x, y=p.y, z=p.z)
        if new is None:
            continue
        cand = PackingSolution(tuple(placements[:idx] + [new] + placements[idx + 1:]))
        if not check(inst, cand).feasible:
            return cand
    other = placements[(1 if len(placements) > 1 else 0)]
    forced = Placement(item=placements[0].item, bin=other.bin, k=placements[0].k,
                       x=other.x, y=other.y, z=other.z)
    return PackingSolution(tuple([forced] + placements[1:]))


def test_criterion_2_model_validator_equivalence():
    with criterion(2, "model-validator equivalence"):
        start = time.monotonic()
        rng = random.Random(202)
        feasible_done = 0
        infeasible_done = 0
        while feasible_done < 100:
            flags = [f for f in ("overweight", "negative", "positive", "eta", "com")
                     if rng.random() < 0.4]
            inst = solvable_instance(rng, features=flags)
            result = solve_heuristic(inst, SolverConfig(iterations=15, seed=feasible_done))
            if result.best is None:
                continue
            sol = result.best
            assert check(inst, sol).feasible
            assert not model_flags(inst, sol), flags
            # objective terms agree as exact rationals
            model = build_model(inst)
            terms = objective_breakdown(model, encode_solution(inst, sol))
            o1, o2, o3 = objectives(inst, sol)
            assert terms["o2"] == o2
            if "o1" in terms:
                assert terms["o1"] == o1
            if o3 is not None:
                assert terms["o3"] == o3
            value, _ = evaluate(model, encode_solution(inst, sol))
            assert value == solution_energy(inst, o1, o2, o3, (1, 1, 1))
            feasible_done += 1
            if infeasible_done < 100:
                bad = _perturb_infeasible(rng, inst, sol)
                assert not check(inst, bad).feasible
                assert model_flags(inst, bad)
                infeasible_done += 1
        assert infeasible_done == 100
        assert time.monotonic() - start < 60.0


def test_criterion_3_oracle_optimality():
    with criterion(3, "oracle optimality"):
        rng = random.Random(303)
        matches = 0
        total = 0
        draws = 0
        while total < 50:
            draws += 1
            assert draws < 150, "too many unsatisfiable draws"
            inst = oracle_instance(rng)
            oracle = solve_oracle(inst)
            if oracle.best is None:
                continue  # unsatisfiable draws don't probe optimality
            total += 1
            t0 = time.monotonic()
            heur = solve_heuristic(inst, SolverConfig(iterations=80, seed=total))
            assert time.monotonic() - t0 < 5.0
            assert heur.best is not None, total
            assert check(inst, heur.best).feasible
            # never better than the exhaustive optimum
            assert heur.energy >= oracle.energy, total
            if heur.best.o1 == oracle.best.o1:
                matches += 1
        assert matches >= 0.9 * total, (matches, total)


def test_criterion_4_archetype_reproduction():
    with criterion(4, "archetype reproduction"):
        item_counts = (51, 51, 52, 52, 53, 53, 46, 46, 47, 51, 38, 38)
        for row, spec in enumerate(archetypes(), start=1):
            inst = generate(spec)
            assert inst.m == item_counts[row - 1]
            counts = count_model(inst)
            ref_vars, ref_cons = ARCHETYPE_MODEL_SIZES[row]
            assert abs(counts.variables - ref_vars) <= 0.25 * ref_vars, row
            assert abs(counts.total_constraints - ref_cons) <= 0.25 * ref_cons, row

            t0 = time.monotonic()
            result = solve_heuristic(inst, SolverConfig(iterations=300, seed=row))
            assert time.monotonic() - t0 < 30.0, row
            assert result.best is not None, row
            report = check(inst, result.best)
            assert report.feasible, (row, report.as_list())

            sol = result.best
            flags = ARCHETYPE_FLAGS[row]
            bin_of = {p.item: p.bin for p in sol.placements}
            if "OW" in flags:
                loads: dict[int, int] = {}
                for p in sol.placements:
                    loads[p.bin] = loads.get(p.bin, 0) + inst.items[p.item].mu
                assert all(load <= inst.bin.max_weight for load in loads.values()), row
            if "INC" in flags:
                for a, b in inst.affinities.negative:
                    ia = [it.index for it in inst.items_of_category(a)]
                    ib = [it.index for it in inst.items_of_category(b)]
                    assert all(bin_of[i] != bin_of[k] for i in ia for k in ib), row
            if "PA" in flags:
                for a, b in inst.affinities.positive:
                    ia = [it.index for it in inst.items_of_category(a)]
                    ib = [it.index for it in inst.items_of_category(b)]
                    assert all(bin_of[i] == bin_of[k] for i in ia for k in ib), row
            if "LB" in flags:
                assert not check(inst, sol).by_rule(LOAD_BEARING), row
            if "CM" in flags:
                assert sol.o3 is not None, row


def test_criterion_5_load_balancing_effect():
    with criterion(5, "load balancing effect"):
        spec = GenSpec(item_count=12, seed=55, bin_dims=(100, 100, 100),
                       com_target=(50, 50), bins_upper=1,
                       size_classes=ARCHETYPE_SIZE_CLASSES, weight_scale=1500)
        inst = generate(spec)
        with_o3 = []
        without_o3 = []
        for seed in range(10):
            on = solve_heuristic(inst, SolverConfig(iterations=250, seed=seed,
                                                    weights=(1, 1, 1)))
            off = solve_heuristic(inst, SolverConfig(iterations=250, seed=seed,
                                                     weights=(1, 1, 0)))
            assert on.best is not None and off.best is not None
            with_o3.append(objectives(inst, on.best)[2])
            without_o3.append(objectives(inst, off.best)[2])
        assert statistics.median(with_o3) < statistics.median(without_o3)


def test_criterion_6_stability_metric_and_sweep():
    with criterion(6, "stability metric and time-limit sweep"):
        assert run_stats([2, 2, 2]).sigma_bar == 0
        assert run_stats([1, 3]).sigma_bar == Fraction(1, 2)
        assert run_stats([1, 3]).mean == 2

        unit = 30
        budgets = [unit, 2 * unit, 6 * unit, 12 * unit]  # 5/10/30/60 shape
        monotone_rows = 0
        report_rows = []
        for row, spec in enumerate(archetypes(), start=1):
            inst = generate(spec)
            per_budget: list[list[Fraction]] = [[] for _ in budgets]
            for seed in range(10):
                result = solve_heuristic(
                    inst, SolverConfig(iterations=budgets[-1], seed=seed),
                    checkpoints=budgets)
                (log,) = result.checkpoint_runs
                for idx, energy in enumerate(log):
                    per_budget[idx].append(energy)
            medians = [statistics.median(es) for es in per_budget]
            if all(medians[i + 1] <= medians[i] for i in range(len(medians) - 1)):
                monotone_rows += 1
            for budget, energies in zip(budgets, per_budget):
                st = run_stats(energies)
                report_rows.append((f"archetype_{row:02d}", budget, st.mean, st.std,
                                    st.sigma_bar, st.minimum, st.maximum))
        assert len(report_rows) == 12 * 4
        assert all(len(r) == 7 for r in report_rows)
        assert monotone_rows >= 10, monotone_rows


def test_criterion_7_reduction_soundness():
    with criterion(7, "reduction soundness"):
        from helpers import enumerate_feasible

        items = (
            Item(0, 1, 1, 2, 2, 0), Item(1, 2, 1, 1, 5, 1), Item(2, 1, 2, 1, 3, 2),
        )
        inst = Instance(
            items=items,
            bin=BinSpec(2, 2, 2, n=2),
            affinities=Affinities(negative=frozenset({(0, 1)})),
            relpos_avoid=frozenset({(1, 2, 3)}),
            relpos_favour=frozenset({(0, 2, 1)}),
        )
        reduced = build_model(inst)
        unreduced = build_model(inst, reductions=False)

        # eliminated-variable and pre-satisfied-constraint counts, exactly:
        # the closed forms of the reduced instance against the same instance
        # without its triples (relative positions) and against the
        # unreduced model (negative affinity); with n = 2 every non-overlap
        # row is quadratic
        p_minus = len(inst.relpos_avoid)
        p_plus = len({(i, k) for i, k, _ in inst.relpos_favour})
        neg_pairs = sum(
            len(inst.items_of_category(a)) * len(inst.items_of_category(b))
            for a, b in inst.affinities.negative)
        nu = 6 * inst.bin.n * neg_pairs
        counts = count_model(inst)
        no_triples = count_model(replace(inst, relpos_avoid=frozenset(),
                                         relpos_favour=frozenset()))
        assert no_triples.binary - counts.binary == p_minus + 6 * p_plus
        assert (no_triples.quadratic_constraints - counts.quadratic_constraints
                == inst.bin.n * (p_minus + 5 * p_plus))
        unreduced_counts = count_model(inst, reductions=False)
        assert unreduced_counts.binary - no_triples.binary == 6 * neg_pairs
        assert (unreduced_counts.quadratic_constraints - no_triples.quadratic_constraints
                == nu)

        def nonoverlap_rows(model):
            return sum(1 for c in model.constraints if c.label.startswith("nonoverlap"))

        assert (nonoverlap_rows(unreduced) - nonoverlap_rows(reduced)
                == inst.bin.n * (p_minus + 5 * p_plus) + nu)
        b_vars = lambda model: sum(1 for v in model.variables if v.tag.startswith("b_"))
        assert (b_vars(unreduced) - b_vars(reduced)
                == p_minus + 6 * p_plus + 6 * neg_pairs)

        # identical zero-violation sets across variants, which is exactly the
        # geometrically feasible packings that respect the avoid/favour sets;
        # hence identical optimal o1
        geometric = enumerate_feasible(inst)
        assert geometric, "test instance must admit feasible packings"
        best_o1 = {True: None, False: None}
        kept = 0
        for sol in geometric:
            ok = not check(inst, sol).by_rule(RELATIVE_POSITION)
            kept += ok
            for reductions_on in (True, False):
                model = reduced if reductions_on else unreduced
                asg = encode_solution(inst, sol, reductions=reductions_on)
                _, violations = evaluate(model, asg)
                assert bool(violations) == (not ok), (sol, reductions_on)
                if ok:
                    o1 = sol.bins_used
                    if best_o1[reductions_on] is None or o1 < best_o1[reductions_on]:
                        best_o1[reductions_on] = o1
        assert kept > 0 and kept < len(geometric)  # both sides exercised
        assert best_o1[True] == best_o1[False]


def test_criterion_8_format_determinism():
    with criterion(8, "format determinism and round-trips"):
        spec = GenSpec(item_count=8, seed=8, bin_dims=(30, 30, 30),
                       eta=Fraction(2), com_target=(15, 15))
        inst_a, inst_b = generate(spec), generate(spec)
        assert _dump(instance_to_dict(inst_a)) == _dump(instance_to_dict(inst_b))
        assert instance_from_dict(instance_to_dict(inst_a)) == inst_a

        cfg = SolverConfig(iterations=40, seed=4)
        r1 = solve_heuristic(inst_a, cfg)
        r2 = solve_heuristic(inst_b, cfg)
        doc1 = _dump(solution_to_dict(r1.best, energy=r1.energy, solver="heuristic",
                                      seed=4, elapsed_s=r1.elapsed,
                                      run_log=r1.run_log, iterations=40))
        doc2 = _dump(solution_to_dict(r2.best, energy=r2.energy, solver="heuristic",
                                      seed=4, elapsed_s=r2.elapsed,
                                      run_log=r2.run_log, iterations=40))
        assert doc1 == doc2
        import json
        back, meta = solution_from_dict(json.loads(doc1))
        assert back == r1.best
        assert meta["energy"] == r1.energy

        model_a, model_b = build_model(inst_a), build_model(inst_b)
        assert lp_string(model_a) == lp_string(model_b)
        assert render_svg(inst_a, r1.best) == render_svg(inst_b, r2.best)
