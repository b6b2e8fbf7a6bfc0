import random
from fractions import Fraction

import pytest

from binpack3d import (
    Affinities,
    BinSpec,
    Instance,
    Item,
    PackingSolution,
    Placement,
    SolverConfig,
    solve_heuristic,
)
from binpack3d.validate import (
    BAD_ORIENTATION,
    DUPLICATE_BIN,
    LOAD_BEARING,
    NEGATIVE_AFFINITY,
    NON_SEQUENTIAL_BINS,
    OUT_OF_BOUNDS,
    OVERLAP,
    OVERWEIGHT,
    POSITIVE_AFFINITY,
    RELATIVE_POSITION,
    check,
    objectives,
)

from helpers import solvable_instance


def unit_items(count, **kw):
    return tuple(Item(index=i, l=1, w=1, h=1, mu=kw.get("mu", 1),
                      category=kw.get("category", 0)) for i in range(count))


def place(item, bin=1, k=1, x=0, y=0, z=0):
    return Placement(item=item, bin=bin, k=k, x=x, y=y, z=z)


class TestCheck:
    def test_two_cubes_same_corner_overlap(self):
        inst = Instance(items=unit_items(2), bin=BinSpec(3, 3, 3, n=1))
        sol = PackingSolution((place(0), place(1)))
        report = check(inst, sol)
        rules = {v.rule for v in report.violations}
        assert rules == {OVERLAP}
        assert report.by_rule(OVERLAP)[0].indices == (0, 1)

    def test_face_contact_is_not_overlap(self):
        inst = Instance(items=unit_items(2), bin=BinSpec(3, 3, 3, n=1))
        sol = PackingSolution((place(0), place(1, x=1)))
        assert check(inst, sol).feasible

    def test_overweight_magnitude(self):
        items = (Item(0, 1, 1, 1, 600, 0), Item(1, 1, 1, 1, 500, 0))
        inst = Instance(items=items, bin=BinSpec(3, 3, 3, max_weight=1000, n=1))
        sol = PackingSolution((place(0), place(1, x=1)))
        report = check(inst, sol)
        ow = report.by_rule(OVERWEIGHT)
        assert len(ow) == 1
        assert ow[0].indices == (1,)
        assert ow[0].magnitude == 100

    def test_load_bearing_heavy_on_light(self):
        items = (Item(0, 1, 1, 1, 4, 0), Item(1, 1, 1, 1, 10, 1))
        inst = Instance(items=items, bin=BinSpec(3, 3, 3, n=1), eta=Fraction(2))
        sol = PackingSolution((place(0), place(1, z=1)))
        report = check(inst, sol)
        lb = report.by_rule(LOAD_BEARING)
        assert len(lb) == 1
        assert lb[0].indices == (0, 1)
        assert lb[0].magnitude == Fraction(10, 4) - 2

    def test_load_bearing_gap_still_counts(self):
        items = (Item(0, 1, 1, 1, 4, 0), Item(1, 1, 1, 1, 10, 1))
        inst = Instance(items=items, bin=BinSpec(3, 3, 3, n=1), eta=Fraction(2))
        sol = PackingSolution((place(0), place(1, z=2)))
        assert check(inst, sol).by_rule(LOAD_BEARING)

    def test_load_bearing_side_by_side_ok(self):
        items = (Item(0, 1, 1, 1, 4, 0), Item(1, 1, 1, 1, 10, 1))
        inst = Instance(items=items, bin=BinSpec(3, 3, 3, n=1), eta=Fraction(2))
        sol = PackingSolution((place(0), place(1, x=1)))
        assert check(inst, sol).feasible

    @pytest.mark.parametrize("dx,dy", [(-1, 0), (1, 0), (0, -1), (0, 1)])
    def test_load_bearing_footprints_touching_ok(self, dx, dy):
        """Heavy above light with footprints that only share an edge face."""
        items = (Item(0, 1, 1, 1, 4, 0), Item(1, 1, 1, 1, 10, 1))
        inst = Instance(items=items, bin=BinSpec(3, 3, 3, n=1), eta=Fraction(2))
        sol = PackingSolution((place(0, x=1, y=1), place(1, x=1 + dx, y=1 + dy, z=1)))
        assert check(inst, sol).feasible

    def test_load_bearing_light_on_heavy_ok(self):
        items = (Item(0, 1, 1, 1, 10, 0), Item(1, 1, 1, 1, 4, 1))
        inst = Instance(items=items, bin=BinSpec(3, 3, 3, n=1), eta=Fraction(2))
        sol = PackingSolution((place(0), place(1, z=1)))
        assert check(inst, sol).feasible

    def test_negative_affinity(self):
        items = (Item(0, 1, 1, 1, 1, 0), Item(1, 1, 1, 1, 1, 1))
        inst = Instance(items=items, bin=BinSpec(3, 3, 3, n=2),
                        affinities=Affinities(negative=frozenset({(0, 1)})))
        sol = PackingSolution((place(0), place(1, x=1)))
        assert check(inst, sol).by_rule(NEGATIVE_AFFINITY)
        apart = PackingSolution((place(0), place(1, bin=2, x=3)))
        assert check(inst, apart).feasible

    def test_positive_affinity_split(self):
        items = (Item(0, 1, 1, 1, 1, 0), Item(1, 1, 1, 1, 1, 1))
        inst = Instance(items=items, bin=BinSpec(3, 3, 3, n=2),
                        affinities=Affinities(positive=frozenset({(0, 1)})))
        sol = PackingSolution((place(0), place(1, bin=2, x=3)))
        assert check(inst, sol).by_rule(POSITIVE_AFFINITY)

    @pytest.mark.parametrize("triples", [
        {"relpos_avoid": frozenset({(0, 1, 3)})},
        {"relpos_favour": frozenset({(0, 1, 1)})},
    ])
    def test_relative_position(self, triples):
        """Cube 1 resting on cube 0 holds only position 3 (0 below 1), which
        avoid (0, 1, 3) forbids and favour (0, 1, 1) does not give; side by
        side, the pair holds position 1 and satisfies both."""
        inst = Instance(items=unit_items(2), bin=BinSpec(3, 3, 3, n=1), **triples)
        report = check(inst, PackingSolution((place(0), place(1, z=1))))
        assert [(v.rule, v.indices) for v in report.violations] == [(RELATIVE_POSITION, (0, 1))]
        assert check(inst, PackingSolution((place(0), place(1, x=1)))).feasible

    def test_out_of_bounds(self):
        inst = Instance(items=unit_items(1), bin=BinSpec(3, 3, 3, n=1))
        sol = PackingSolution((place(0, x=3),))
        assert check(inst, sol).by_rule(OUT_OF_BOUNDS)

    def test_wrong_bin_for_coordinates(self):
        inst = Instance(items=unit_items(2), bin=BinSpec(3, 3, 3, n=2))
        # claims bin 2 but sits in bin 1's x-range
        sol = PackingSolution((place(0), place(1, bin=2, x=1)))
        assert check(inst, sol).by_rule(OUT_OF_BOUNDS)

    def test_non_sequential_bins(self):
        inst = Instance(items=unit_items(2), bin=BinSpec(3, 3, 3, n=3))
        sol = PackingSolution((place(0), place(1, bin=3, x=6)))
        assert check(inst, sol).by_rule(NON_SEQUENTIAL_BINS)

    def test_bad_orientation(self):
        inst = Instance(items=(Item(0, 2, 2, 2, 1, 0),), bin=BinSpec(3, 3, 3, n=1))
        sol = PackingSolution((place(0, k=3),))  # cubes are fixed to k=1
        assert check(inst, sol).by_rule(BAD_ORIENTATION)

    def test_duplicate_item_reported(self):
        inst = Instance(items=unit_items(2), bin=BinSpec(3, 3, 3, n=1))
        sol = PackingSolution((place(0), place(0, x=1), place(1, x=2)))
        assert check(inst, sol).by_rule(DUPLICATE_BIN)

    def test_missing_item_raises(self):
        inst = Instance(items=unit_items(2), bin=BinSpec(3, 3, 3, n=1))
        with pytest.raises(ValueError, match="missing"):
            check(inst, PackingSolution((place(0),)))

    def test_unknown_item_raises(self):
        inst = Instance(items=unit_items(1), bin=BinSpec(3, 3, 3, n=1))
        with pytest.raises(ValueError, match="unknown"):
            check(inst, PackingSolution((place(0), place(7, x=1))))


class TestObjectives:
    def test_single_cube_fills_bin(self):
        inst = Instance(items=unit_items(1), bin=BinSpec(1, 1, 1, n=1))
        sol = PackingSolution((place(0),))
        o1, o2, o3 = objectives(inst, sol)
        assert (o1, o2, o3) == (1, Fraction(1), None)

    def test_centered_item_zero_deviation(self):
        inst = Instance(items=(Item(0, 2, 2, 2, 1, 0),),
                        bin=BinSpec(4, 4, 4, n=1), com_target=(2, 2))
        sol = PackingSolution((place(0, x=1, y=1),))
        _, _, o3 = objectives(inst, sol)
        assert o3 == 0

    def test_two_item_deviation(self):
        items = (Item(0, 2, 2, 1, 1, 0), Item(1, 2, 2, 1, 1, 0))
        inst = Instance(items=items, bin=BinSpec(4, 4, 4, n=1), com_target=(2, 2))
        # bin-local x-centers 1 and 3, y-centers on target
        sol = PackingSolution((place(0, x=0, y=1), place(1, x=2, y=1, z=1)))
        _, _, o3 = objectives(inst, sol)
        assert o3 == Fraction(1, 4)

    def test_bin_local_center_uses_mod(self):
        items = (Item(0, 2, 2, 2, 1, 0), Item(1, 2, 2, 2, 1, 1))
        inst = Instance(items=items,
                        bin=BinSpec(4, 4, 4, n=2), com_target=(2, 2),
                        affinities=Affinities(negative=frozenset({(0, 1)})))
        # both centered in their own bins; the global x of item 1 is 5
        sol = PackingSolution((
            Placement(item=0, bin=1, k=1, x=1, y=1, z=0),
            Placement(item=1, bin=2, k=1, x=5, y=1, z=0),
        ))
        _, _, o3 = objectives(inst, sol)
        assert o3 == 0

    def test_infeasible_input_rejected(self):
        inst = Instance(items=unit_items(2), bin=BinSpec(3, 3, 3, n=1))
        sol = PackingSolution((place(0), place(1)))
        with pytest.raises(ValueError, match="infeasible"):
            objectives(inst, sol)


class TestMirrorSymmetry:
    def test_x_mirror_preserves_feasibility(self):
        rng = random.Random(11)
        for trial in range(15):
            inst = solvable_instance(rng, features=("negative",) if trial % 3 else ())
            result = solve_heuristic(inst, SolverConfig(iterations=30, seed=trial))
            assert result.best is not None
            L = inst.bin.L
            mirrored = []
            for p in result.best.placements:
                from binpack3d import effective_dims
                a, _, _ = effective_dims(inst.items[p.item], p.k)
                local = p.x - (p.bin - 1) * L
                mirrored.append(Placement(
                    item=p.item, bin=p.bin, k=p.k,
                    x=(L - local - a) + (p.bin - 1) * L, y=p.y, z=p.z))
            assert check(inst, PackingSolution(tuple(mirrored))).feasible
