import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from binpack3d import (
    Affinities,
    BinSpec,
    Instance,
    Item,
    Placement,
    PackingSolution,
    allowed_orientations,
    canonical_orientation,
    default_bin_count,
    effective_dims,
    kappa,
    load_bearing_avoid,
    mirror_relpos,
    nonredundant_orientations,
)

dims_st = st.integers(min_value=1, max_value=9)


def make_item(l, w, h, mu=1, category=0, index=0):
    return Item(index=index, l=l, w=w, h=h, mu=mu, category=category)


class TestOrientations:
    @pytest.mark.parametrize("dims,expected", [
        ((4, 4, 4), set()),
        ((2, 3, 3), {1, 3, 4}),
        ((3, 2, 3), {1, 2, 3}),
        ((3, 3, 2), {1, 2, 5}),
        ((2, 3, 5), {1, 2, 3, 4, 5, 6}),
    ])
    def test_nonredundant_sets(self, dims, expected):
        assert set(nonredundant_orientations(make_item(*dims))) == expected

    @pytest.mark.parametrize("k,expected", [
        (1, (2, 3, 5)),
        (2, (2, 5, 3)),
        (3, (3, 2, 5)),
        (4, (3, 5, 2)),
        (5, (5, 2, 3)),
        (6, (5, 3, 2)),
    ])
    def test_effective_dims_table(self, k, expected):
        assert effective_dims(make_item(2, 3, 5), k) == expected

    def test_bad_orientation_rejected(self):
        with pytest.raises(ValueError):
            effective_dims(make_item(1, 2, 3), 7)

    @given(dims_st, dims_st, dims_st, st.integers(min_value=1, max_value=6))
    def test_effective_dims_is_permutation(self, l, w, h, k):
        assert sorted(effective_dims(make_item(l, w, h), k)) == sorted((l, w, h))

    @given(dims_st, dims_st, dims_st)
    def test_nonredundant_triples_cover_all(self, l, w, h):
        item = make_item(l, w, h)
        all_triples = {effective_dims(item, k) for k in range(1, 7)}
        ks = allowed_orientations(item)
        reduced = {effective_dims(item, k) for k in ks}
        assert reduced == all_triples
        # non-redundant means pairwise distinct
        assert len(reduced) == len(ks)

    def test_distinct_dims_give_six_triples(self):
        item = make_item(2, 3, 5)
        triples = [effective_dims(item, k) for k in range(1, 7)]
        assert len(set(triples)) == 6

    @given(dims_st, dims_st, dims_st, st.integers(0, 100), st.integers(0, 5))
    def test_relabeling_invariance(self, l, w, h, index, category):
        a = make_item(l, w, h)
        b = Item(index=index, l=l, w=w, h=h, mu=3, category=category)
        assert nonredundant_orientations(a) == nonredundant_orientations(b)

    @given(dims_st, dims_st, dims_st, st.integers(min_value=1, max_value=6))
    def test_canonical_orientation_matches_dims(self, l, w, h, k):
        item = make_item(l, w, h)
        canon = canonical_orientation(item, k)
        assert canon in allowed_orientations(item)
        assert effective_dims(item, canon) == effective_dims(item, k)


class TestKappa:
    def test_two_cubes(self):
        inst = Instance(items=(make_item(2, 2, 2), Item(1, 3, 3, 3, 1)),
                        bin=BinSpec(5, 5, 5, n=1))
        assert kappa(inst) == 0

    def test_mixed(self):
        inst = Instance(items=(make_item(2, 3, 5), Item(1, 4, 4, 4, 1)),
                        bin=BinSpec(6, 6, 6, n=1))
        assert kappa(inst) == 6

    def test_two_degenerate(self):
        inst = Instance(items=(make_item(2, 3, 3), Item(1, 1, 1, 7, 1)),
                        bin=BinSpec(9, 9, 9, n=1))
        assert kappa(inst) == 6


class TestMirror:
    def test_pairs(self):
        assert [mirror_relpos(q) for q in range(1, 7)] == [4, 5, 6, 1, 2, 3]


class TestInstanceValidation:
    def test_item_must_fit_somehow(self):
        with pytest.raises(ValueError, match="fits in no orientation"):
            Instance(items=(make_item(9, 9, 9),), bin=BinSpec(2, 9, 9, n=1))

    def test_rotated_fit_is_enough(self):
        Instance(items=(make_item(9, 1, 1),), bin=BinSpec(2, 9, 9, n=1))

    def test_item_over_weight_cap(self):
        item = make_item(1, 1, 1, mu=3)
        with pytest.raises(ValueError, match="item 0 weighs 3, over the bin cap M=2"):
            Instance(items=(item,), bin=BinSpec(2, 2, 2, max_weight=2, n=4))
        Instance(items=(item,), bin=BinSpec(2, 2, 2, max_weight=3, n=1))

    def test_affinity_contradiction(self):
        with pytest.raises(ValueError, match="both positive and negative"):
            Affinities(positive=frozenset({(1, 2)}), negative=frozenset({(2, 1)}))

    def test_self_negative_with_two_items(self):
        items = (make_item(1, 1, 1, category=3),
                 Item(1, 1, 1, 1, 1, category=3))
        with pytest.raises(ValueError, match="negative with itself"):
            Instance(items=items, bin=BinSpec(3, 3, 3, n=1),
                     affinities=Affinities(negative=frozenset({(3, 3)})))

    def test_self_negative_with_one_item_is_fine(self):
        items = (make_item(1, 1, 1, category=3), Item(1, 1, 1, 1, 1, category=0))
        Instance(items=items, bin=BinSpec(3, 3, 3, n=1),
                 affinities=Affinities(negative=frozenset({(3, 3)})))

    def test_avoid_favour_pair_disjoint(self):
        items = (make_item(1, 1, 2), Item(1, 1, 1, 2, 1))
        with pytest.raises(ValueError, match="both avoid and favour"):
            Instance(items=items, bin=BinSpec(4, 4, 4, n=1),
                     relpos_avoid=frozenset({(0, 1, 3)}),
                     relpos_favour=frozenset({(0, 1, 1)}))

    def test_contradictory_favour_raises(self):
        items = (Item(0, 1, 1, 2, 1, 0), Item(1, 2, 1, 1, 1, 1))
        with pytest.raises(ValueError, match=r"pair \(0, 1\) is favoured in 2 relative"):
            Instance(items=items, bin=BinSpec(4, 4, 4, n=1),
                     relpos_favour=frozenset({(0, 1, 1), (0, 1, 2)}))

    def test_all_six_avoided_raises(self):
        items = (Item(0, 1, 1, 2, 1, 0), Item(1, 2, 1, 1, 1, 1))
        with pytest.raises(ValueError, match=r"pair \(0, 1\) has all six"):
            Instance(items=items, bin=BinSpec(4, 4, 4, n=1),
                     relpos_avoid=frozenset((0, 1, q) for q in range(1, 7)))

    def test_all_six_avoided_counts_eta_triples(self):
        """Five explicit avoids and the eta-derived (0, 1, 3) cover all six."""
        items = (make_item(1, 1, 1, mu=1), Item(1, 1, 1, 1, mu=5))
        five = frozenset((0, 1, q) for q in (1, 2, 4, 5, 6))
        Instance(items=items, bin=BinSpec(4, 4, 4, n=1), relpos_avoid=five)
        with pytest.raises(ValueError, match=r"pair \(0, 1\) has all six"):
            Instance(items=items, bin=BinSpec(4, 4, 4, n=1), relpos_avoid=five,
                     eta=Fraction(2))

    def test_eta_derives_avoid_triples(self):
        items = (make_item(1, 1, 1, mu=2), Item(1, 1, 1, 1, mu=10))
        inst = Instance(items=items, bin=BinSpec(4, 4, 4, n=1), eta=Fraction(2))
        assert (0, 1, 3) in inst.relpos_avoid  # heavy item 1 must not sit above 0
        assert (0, 1, 6) not in inst.relpos_avoid

    def test_eta_must_exceed_one(self):
        with pytest.raises(ValueError, match="eta"):
            Instance(items=(make_item(1, 1, 1),), bin=BinSpec(2, 2, 2, n=1),
                     eta=Fraction(1))

    def test_load_bearing_avoid_both_directions(self):
        items = (make_item(1, 1, 1, mu=9), Item(1, 1, 1, 2, 1))
        got = load_bearing_avoid(items, 2)
        assert got == {(0, 1, 6)}  # item 0 is the heavy one here

    @given(st.lists(st.integers(1, 30), min_size=2, max_size=6),
           st.fractions(min_value=Fraction(8, 7), max_value=5, max_denominator=7))
    def test_load_bearing_avoid_matches_ratio_rule(self, weights, eta):
        """A triple exactly where one weight exceeds eta times the other."""
        items = tuple(make_item(1, 1, 1, mu=mu, index=i) for i, mu in enumerate(weights))
        want = set()
        for i, a in enumerate(weights):
            for k in range(i + 1, len(weights)):
                b = weights[k]
                if Fraction(b, a) > eta:
                    want.add((i, k, 3))
                if Fraction(a, b) > eta:
                    want.add((i, k, 6))
        assert load_bearing_avoid(items, eta) == want


class TestDefaultBinCount:
    def test_volume_bound(self):
        items = [make_item(2, 2, 2), Item(1, 2, 2, 2, 1)]
        assert default_bin_count(items, 2, 2, 2) == 3  # ceil(16/8)+1

    def test_weight_bound_dominates(self):
        items = [make_item(1, 1, 1, mu=50), Item(1, 1, 1, 1, mu=50)]
        assert default_bin_count(items, 10, 10, 10, max_weight=30) == 5


class TestPackingSolution:
    def test_bins_used(self):
        sol = PackingSolution((
            Placement(item=0, bin=1, k=1, x=0, y=0, z=0),
            Placement(item=1, bin=2, k=1, x=5, y=0, z=0),
        ))
        assert sol.bins_used == 2

    def test_placement_field_checks(self):
        with pytest.raises(ValueError):
            Placement(item=0, bin=0, k=1, x=0, y=0, z=0)
        with pytest.raises(ValueError):
            Placement(item=0, bin=1, k=9, x=0, y=0, z=0)
        with pytest.raises(ValueError):
            Placement(item=0, bin=1, k=1, x=-1, y=0, z=0)
