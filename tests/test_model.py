import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from binpack3d import (
    Affinities,
    BinSpec,
    Instance,
    Item,
    PackingSolution,
    Placement,
    Sense,
    SolverConfig,
    allowed_orientations,
    audit_counts,
    build_model,
    count_model,
    effective_dims,
    encode_solution,
    evaluate,
    objective_breakdown,
    solve_heuristic,
)
from binpack3d.validate import check, objectives

from helpers import (FEATURES, model_flags, random_instance, reference_evaluate,
                     solvable_instance)


def distinct_items(dims_list, bin_spec, **inst_kw):
    items = tuple(Item(index=i, l=l, w=w, h=h, mu=1, category=0)
                  for i, (l, w, h) in enumerate(dims_list))
    return Instance(items=items, bin=bin_spec, **inst_kw)


class TestWorkedCounts:
    def test_m3_n2_plain(self):
        inst = distinct_items([(2, 3, 5), (2, 4, 7), (3, 5, 6)], BinSpec(10, 10, 10, n=2))
        c = count_model(inst)
        assert c.as_dict() == {"binary": 44, "continuous": 9,
                               "quadratic_constraints": 38, "linear_constraints": 31}

    def test_m2_n1_plain(self):
        inst = distinct_items([(2, 3, 5), (2, 4, 7)], BinSpec(10, 10, 10, n=1))
        c = count_model(inst)
        assert c.as_dict() == {"binary": 18, "continuous": 6,
                               "quadratic_constraints": 0, "linear_constraints": 15}

    def test_m2_n1_com_optional_deltas(self):
        inst = distinct_items([(2, 3, 5), (2, 4, 7)], BinSpec(10, 10, 10, n=1),
                              com_target=(5, 5))
        c = count_model(inst)
        assert c.continuous == 10  # 3m + 2m
        assert c.linear_constraints == 23  # +4m
        assert c.continuous_optional == 4
        assert c.linear_optional == 8

    def test_m2_cubes_n1(self):
        inst = distinct_items([(2, 2, 2), (3, 3, 3)], BinSpec(10, 10, 10, n=1))
        c = count_model(inst)
        assert c.binary == 6
        assert c.continuous == 6
        assert c.linear_constraints == 13  # 7 + 8 - |I_c|=2


class TestCountAgreement:
    def test_random_instances_audit_equals_closed_form(self):
        rng = random.Random(2024)
        for trial in range(60):
            flags = [f for f in FEATURES if rng.random() < 0.4]
            inst = random_instance(rng, features=flags)
            counts = count_model(inst)
            audited = audit_counts(build_model(inst))
            assert audited.as_dict() == counts.as_dict(), (trial, flags)

    def test_reductions_off_also_agrees(self):
        rng = random.Random(77)
        for _ in range(20):
            flags = [f for f in FEATURES if rng.random() < 0.5]
            inst = random_instance(rng, features=flags)
            counts = count_model(inst, reductions=False)
            audited = audit_counts(build_model(inst, reductions=False))
            assert audited.as_dict() == counts.as_dict()


class TestBuildStructure:
    def test_variable_bounds(self):
        inst = distinct_items([(2, 3, 5)], BinSpec(10, 8, 6, n=2), com_target=(4, 4))
        model = build_model(inst)
        var, idx = model.variables, model.index
        assert var[idx.x[0]].upper == 20  # n*L
        assert var[idx.y[0]].upper == 8
        assert var[idx.z[0]].upper == 6
        assert var[idx.xt[0]].upper == 6  # max(4, 10-4)
        assert var[idx.yt[0]].upper == 4

    def test_objective_is_linear(self):
        rng = random.Random(5)
        for _ in range(10):
            inst = random_instance(rng, features=("com",))
            model = build_model(inst)
            assert not model.objective.is_quadratic

    def test_o1_absent_for_single_bin(self):
        inst = distinct_items([(2, 3, 5)], BinSpec(10, 10, 10, n=1))
        model = build_model(inst)
        assert "o1" in build_model(
            distinct_items([(2, 3, 5)], BinSpec(10, 10, 10, n=2))).objective_terms
        assert "o1" not in model.objective_terms

    def test_n1_nonoverlap_rows_are_linear(self):
        inst = distinct_items([(1, 1, 2), (2, 1, 1)], BinSpec(4, 4, 4, n=1))
        model = build_model(inst)
        for con in model.constraints:
            assert not con.expr.is_quadratic

    def test_combined_affinity_single_equality(self):
        items = tuple(Item(index=i, l=1, w=1, h=1, mu=1, category=i % 3)
                      for i in range(4))
        inst = Instance(items=items, bin=BinSpec(4, 4, 4, n=2),
                        affinities=Affinities(positive=frozenset({(0, 1)}),
                                              negative=frozenset({(1, 2)})))
        model = build_model(inst)
        labels = [c.label for c in model.constraints if c.label.startswith("affinity")]
        assert labels == ["affinity_combined"]
        con = next(c for c in model.constraints if c.label == "affinity_combined")
        assert con.sense is Sense.EQ
        assert con.expr.is_quadratic


def census(model) -> tuple[int, int]:
    """(b variables, non-overlap rows) of a built model."""
    return (sum(1 for v in model.variables if v.tag.startswith("b_")),
            sum(1 for c in model.constraints if c.label.startswith("nonoverlap")))


class TestReductionProvenance:
    """What the reductions remove, read two ways: the closed-form counts of
    the unreduced model minus those of the reduced one, and the census of
    the two built models."""

    def test_relpos_formulas(self):
        """p- = 3 avoid triples and p+ = 1 favoured pair, n = 2: p- + 6p+
        binaries and n(p- + 5p+) non-overlap rows go, and the favoured
        pair's uniqueness row."""
        items = tuple(Item(index=i, l=1 + i % 2, w=1, h=2, mu=1, category=0)
                      for i in range(4))
        full = Instance(items=items, bin=BinSpec(6, 6, 6, n=2))
        inst = dataclasses.replace(full, relpos_avoid=frozenset({(0, 1, 3), (0, 2, 3), (0, 2, 6)}),
                                   relpos_favour=frozenset({(1, 3, 1)}))
        before, after = count_model(full), count_model(inst)
        assert before.binary - after.binary == 3 + 6 * 1
        assert before.quadratic_constraints - after.quadratic_constraints == 2 * (3 + 5 * 1)
        assert before.linear_constraints - after.linear_constraints == 1
        (b_full, rows_full), (b, rows) = census(build_model(full)), census(build_model(inst))
        assert (b_full - b, rows_full - rows) == (3 + 6 * 1, 2 * (3 + 5 * 1))

    def test_negative_affinity_elimination(self):
        """Categories 0 and 1 of two items each: nu = 4 item pairs, n = 2,
        lose 6 nu binaries and 6 n nu non-overlap rows."""
        items = tuple(Item(index=i, l=1, w=1, h=1, mu=1, category=i % 2)
                      for i in range(4))
        inst = Instance(items=items, bin=BinSpec(4, 4, 4, n=2),
                        affinities=Affinities(negative=frozenset({(0, 1)})))
        before, after = count_model(inst, reductions=False), count_model(inst)
        assert before.binary - after.binary == 24
        assert before.quadratic_constraints - after.quadratic_constraints == 6 * 2 * 4
        model = build_model(inst)
        (b_full, rows_full), (b, rows) = census(build_model(inst, reductions=False)), census(model)
        assert (b_full - b, rows_full - rows) == (24, 6 * 2 * 4)
        # no b variables for eliminated pairs
        tags = {v.tag for v in model.variables}
        assert not any(t.startswith("b_0_1_") for t in tags)  # cats 0,1 -> neg pair

    def test_n1_keeps_negative_pairs(self):
        items = tuple(Item(index=i, l=1, w=1, h=1, mu=1, category=i % 2)
                      for i in range(2))
        inst = Instance(items=items, bin=BinSpec(4, 4, 4, n=1),
                        affinities=Affinities(negative=frozenset({(0, 1)})))
        assert count_model(inst, reductions=False) == count_model(inst)
        model = build_model(inst)
        assert census(build_model(inst, reductions=False)) == census(model)
        tags = {v.tag for v in model.variables}
        assert any(t.startswith("b_0_1_") for t in tags)


class TestEvaluate:
    def test_all_zero_assignment_violates_equalities(self):
        inst = distinct_items([(1, 1, 2), (2, 1, 1)], BinSpec(4, 4, 4, n=1))
        model = build_model(inst)
        assignment = {v.tag: 0 for v in model.variables}
        _, violations = evaluate(model, assignment)
        labels = {label for label, _ in violations}
        assert any(label.startswith("orientation_") for label in labels)
        assert any(label.startswith("relpos_unique_") for label in labels)

    def test_missing_variable_raises(self):
        inst = distinct_items([(1, 1, 2)], BinSpec(4, 4, 4, n=1))
        model = build_model(inst)
        with pytest.raises(ValueError, match="missing variable"):
            evaluate(model, {})

    def test_single_bin_objective_with_n2(self):
        items = (Item(0, 1, 1, 1, 1, 0), Item(1, 1, 1, 1, 1, 0))
        inst = Instance(items=items, bin=BinSpec(2, 2, 2, n=2))
        sol = PackingSolution((
            Placement(item=0, bin=1, k=1, x=0, y=0, z=0),
            Placement(item=1, bin=1, k=1, x=1, y=0, z=0),
        ))
        model = build_model(inst)
        asg = encode_solution(inst, sol)
        value, violations = evaluate(model, asg)
        assert violations == []
        # omega1*1 + omega2*(1/(mH)) * sum(z_i + z'_i)
        assert value == 1 + Fraction(2, 4)


class TestEncode:
    def test_side_by_side_picks_q1(self):
        items = (Item(0, 1, 1, 1, 1, 0), Item(1, 1, 1, 1, 1, 0))
        inst = Instance(items=items, bin=BinSpec(3, 3, 3, n=1))
        sol = PackingSolution((
            Placement(item=0, bin=1, k=1, x=0, y=0, z=0),
            Placement(item=1, bin=1, k=1, x=1, y=0, z=0),
        ))
        asg = encode_solution(inst, sol)
        assert asg["b_0_1_1"] == 1
        assert sum(asg[f"b_0_1_{q}"] for q in range(1, 7)) == 1

    def test_different_bins_tie_break_q1(self):
        items = (Item(0, 1, 1, 1, 1, 0), Item(1, 1, 1, 1, 1, 0))
        inst = Instance(items=items, bin=BinSpec(3, 3, 3, n=2))
        sol = PackingSolution((
            Placement(item=0, bin=1, k=1, x=2, y=0, z=0),
            Placement(item=1, bin=2, k=1, x=3, y=0, z=0),
        ))
        asg = encode_solution(inst, sol)
        assert asg["b_0_1_1"] == 1

    def test_centered_item_zero_deviation_vars(self):
        inst = Instance(items=(Item(0, 2, 2, 2, 1, 0),),
                        bin=BinSpec(4, 4, 4, n=1), com_target=(2, 2))
        sol = PackingSolution((Placement(item=0, bin=1, k=1, x=1, y=1, z=0),))
        asg = encode_solution(inst, sol)
        assert asg["xt_0"] == 0
        assert asg["yt_0"] == 0

    def test_overlap_errors_with_pair(self):
        items = (Item(0, 2, 2, 2, 1, 0), Item(1, 2, 2, 2, 1, 0))
        inst = Instance(items=items, bin=BinSpec(4, 4, 4, n=1))
        sol = PackingSolution((
            Placement(item=0, bin=1, k=1, x=0, y=0, z=0),
            Placement(item=1, bin=1, k=1, x=1, y=1, z=1),
        ))
        with pytest.raises(ValueError, match="items 0 and 1 overlap"):
            encode_solution(inst, sol)

    def test_noncanonical_orientation_errors(self):
        inst = Instance(items=(Item(0, 2, 2, 2, 1, 0),), bin=BinSpec(4, 4, 4, n=1))
        sol = PackingSolution((Placement(item=0, bin=1, k=4, x=0, y=0, z=0),))
        with pytest.raises(ValueError, match="outside the non-redundant set"):
            encode_solution(inst, sol)


class TestLoadBalancingLinearization:
    def test_deviation_vars_are_tight_lower_bounds(self):
        rng = random.Random(31)
        for trial in range(10):
            inst = solvable_instance(rng, features=("com",))
            result = solve_heuristic(inst, SolverConfig(iterations=20, seed=trial))
            model = build_model(inst)
            asg = dict(encode_solution(inst, result.best))
            _, violations = evaluate(model, asg)
            assert violations == []
            # any smaller xt breaks a loadbal row; larger stays feasible
            for i in range(inst.m):
                tag = f"xt_{i}"
                exact = asg[tag]
                asg[tag] = exact - Fraction(1, 2)
                _, viols = evaluate(model, asg)
                assert any(l.startswith("loadbal_x") for l, _ in viols), trial
                asg[tag] = exact + 1
                _, viols = evaluate(model, asg)
                assert not any(l.startswith("loadbal_x") for l, _ in viols)
                asg[tag] = exact

    def test_objective_terms_match_validator(self):
        rng = random.Random(32)
        for trial in range(10):
            inst = solvable_instance(rng, features=("com",))
            result = solve_heuristic(inst, SolverConfig(iterations=20, seed=trial))
            model = build_model(inst)
            asg = encode_solution(inst, result.best)
            terms = objective_breakdown(model, asg)
            o1, o2, o3 = objectives(inst, result.best)
            assert terms["o2"] == o2
            assert terms["o3"] == o3
            if "o1" in terms:
                assert terms["o1"] == o1


class TestReductionSoundness:
    def test_every_feasible_solution_encodes_cleanly_in_both_variants(self):
        rng = random.Random(404)
        for trial in range(8):
            inst = solvable_instance(rng, features=("eta", "negative"))
            result = solve_heuristic(inst, SolverConfig(iterations=15, seed=trial))
            assert result.best is not None
            assert check(inst, result.best).feasible
            for reductions in (True, False):
                model = build_model(inst, reductions=reductions)
                asg = encode_solution(inst, result.best, reductions=reductions)
                _, violations = evaluate(model, asg)
                assert violations == [], (trial, reductions)


class TestValidatorAgreement:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), moves=st.integers(0, 2))
    # a positive pair whose lower category holds the higher item index
    @example(seed=637, moves=2)
    def test_explicit_relpos_triples(self, seed, moves):
        """With explicit avoid and favour triples, the validator accepts a
        heuristic solution, or one with up to `moves` items moved against a
        face of another item, exactly when both model variants do."""
        rng = random.Random(seed)
        features = [f for f in ("overweight", "negative", "positive", "eta")
                    if rng.random() < 0.4]
        inst = solvable_instance(rng, features=features + ["avoid", "favour"])
        result = solve_heuristic(inst, SolverConfig(iterations=5, seed=seed % 1000))
        if result.best is None:
            return
        placements = list(result.best.placements)
        for _ in range(moves):
            idx = rng.randrange(len(placements))
            item = inst.items[placements[idx].item]
            k = rng.choice(sorted(allowed_orientations(item)))
            dims = effective_dims(item, k)
            other = rng.choice(placements)
            axis = rng.randrange(3)
            corner = list(other.corner)
            if rng.random() < 0.5:
                corner[axis] += effective_dims(inst.items[other.item], other.k)[axis]
            else:
                corner[axis] -= dims[axis]
            if min(corner) >= 0:
                placements[idx] = Placement(item.index, other.bin, k, *corner)
        sol = PackingSolution(tuple(placements))
        feasible = check(inst, sol).feasible
        for reductions in (True, False):
            assert feasible != model_flags(inst, sol, reductions), (reductions, sol)


def fractional_com(rng: random.Random, inst: Instance) -> Instance:
    """The instance with a CoM target whose coordinates are thirds and halves."""
    lt = Fraction(rng.randint(0, 3 * inst.bin.L), 3)
    wt = Fraction(rng.randint(0, 2 * inst.bin.W), 2)
    return dataclasses.replace(inst, com_target=(lt, wt))


class TestIntegerKernel:
    """evaluate and objective_breakdown (integer rows over one common
    denominator) against the term-by-term Fraction evaluator."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), reductions=st.booleans(),
           kind=st.sampled_from(["feasible", "perturbed", "random"]))
    def test_matches_reference(self, seed, reductions, kind):
        rng = random.Random(seed)
        weights = tuple(Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(3))
        if kind == "random":
            inst = fractional_com(rng, random_instance(rng, features=FEATURES))
            model = build_model(inst, weights, reductions=reductions)
            # whole numbers, halves and thirds from -2 to upper + 2: values out
            # of bounds and, for binaries, values other than 0 and 1
            assignment = {var.tag: Fraction(rng.randint(-6, 3 * int(var.upper) + 6),
                                            rng.randint(1, 3))
                          for var in model.variables}
        else:
            inst = fractional_com(rng, solvable_instance(
                rng, features=("overweight", "negative", "positive", "eta", "com")))
            result = solve_heuristic(inst, SolverConfig(iterations=5, seed=seed % 1000))
            if result.best is None:
                return
            model = build_model(inst, weights, reductions=reductions)
            assignment = encode_solution(inst, result.best, reductions=reductions)
            if kind == "perturbed":
                tags = sorted(assignment)
                for tag in rng.sample(tags, rng.randint(1, min(4, len(tags)))):
                    assignment[tag] += Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
        objective, violations = evaluate(model, assignment)
        ref_objective, ref_violations, ref_breakdown = reference_evaluate(model, assignment)
        assert objective == ref_objective
        assert violations == ref_violations
        assert objective_breakdown(model, assignment) == ref_breakdown
        if kind == "feasible":
            assert violations == []


class TestVariableIndex:
    @pytest.mark.parametrize("reductions", [True, False])
    def test_families_partition_variables_and_match_tags(self, reductions):
        rng = random.Random(77)
        for trial in range(40):
            inst = random_instance(rng, features=rng.sample(FEATURES, rng.randint(0, 7)))
            model = build_model(inst, reductions=reductions)
            idx = model.index
            tagged = [(vid, f"v_{j}") for j, vid in enumerate(idx.v, start=1)]
            tagged += [(vid, f"u_{i}_{j}") for i, ids in enumerate(idx.u)
                       for j, vid in enumerate(ids, start=1)]
            tagged += [(vid, f"r_{i}_{k}") for i, ks in idx.r.items() for k, vid in ks.items()]
            tagged += [(vid, f"b_{i}_{k}_{q}") for (i, k), qs in idx.b.items()
                       for q, vid in qs.items()]
            for family in ("x", "y", "z", "xt", "yt"):
                tagged += [(vid, f"{family}_{i}")
                           for i, vid in enumerate(getattr(idx, family))]
            assert sorted(vid for vid, _ in tagged) == list(range(len(model.variables))), trial
            for vid, tag in tagged:
                assert model.variables[vid].tag == tag, trial
            assert len(idx.u) == (inst.m if inst.bin.n >= 2 else 0)
            assert all(len(ids) == inst.bin.n for ids in idx.u)
            assert len(idx.xt) == (inst.m if inst.com_target is not None else 0)
