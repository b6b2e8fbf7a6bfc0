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
    default_bin_count,
    effective_dims,
    kappa,
    load_bearing_avoid,
    mirror_relpos,
    nonredundant_orientations,
)
from binpack3d.fileio import instance_from_dict, instance_to_dict

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
           st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7))
    def test_load_bearing_avoid_matches_ratio_rule(self, weights, eta):
        """A triple exactly where one weight exceeds eta times the other, also
        for an eta <= 1, which Instance refuses (both triples of a pair)."""
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


def unit_items(weights):
    return tuple(Item(i, 1, 1, 1, mu, i % 3) for i, mu in enumerate(weights))


def reference_outcome(items, eta, avoid, favour):
    """What Instance makes of the triples, by a full table over every pair:
    the stored avoid set, or the ValueError text. The union and the favour
    set are built as Instance builds them, so the first out-of-range triple
    is the same one."""
    m = len(items)
    derived = set()
    if eta is not None:
        p, q = eta.numerator, eta.denominator
        for i in range(m):
            for k in range(i + 1, m):
                if items[k].mu * q > p * items[i].mu:
                    derived.add((i, k, 3))
                if items[i].mu * q > p * items[k].mu:
                    derived.add((i, k, 6))
    union = set(tuple(t) for t in avoid)
    union |= derived
    favour = frozenset(tuple(t) for t in favour)
    for tri in list(union) + list(favour):
        i, k, q = tri
        if not (0 <= i < k < m):
            return f"relpos triple {tri}: need 0 <= i < k < m"
        if not 1 <= q <= 6:
            return f"relpos triple {tri}: q must be in 1..6"
    table = {}
    for i, k, q in union:
        allowed, required = table.get((i, k), (0b1111110, 0))
        table[i, k] = (allowed & ~(1 << q), required)
    for i, k, q in favour:
        allowed, required = table.get((i, k), (0b1111110, 0))
        table[i, k] = (allowed, required | 1 << q)
    clash = sorted(pr for pr, (allowed, required) in table.items()
                   if required and allowed != 0b1111110)
    if clash:
        return f"pairs in both avoid and favour sets: {clash}"
    twice = sorted(pr for pr, (_, required) in table.items() if bin(required).count("1") > 1)
    if twice:
        return (f"pair {twice[0]} is favoured in {bin(table[twice[0]][1]).count('1')} "
                "relative positions")
    blocked = sorted(pr for pr, (allowed, _) in table.items() if not allowed)
    if blocked:
        return f"pair {blocked[0]} has all six relative positions avoided"
    return frozenset(union)


class TestEtaInstanceChecks:
    """Instance checks only the triples eta does not derive, each pair they
    touch with its derived bits; the messages are those of a check over
    every triple."""

    @pytest.mark.parametrize("weights,eta,avoid,favour,message", [
        # favours that clash with derived avoids: (0, 1, 3) and (2, 3, 3)
        ((1, 5), 2, (), {(0, 1, 1)}, "pairs in both avoid and favour sets: [(0, 1)]"),
        ((1, 5, 1, 30), 2, (), {(0, 1, 2), (2, 3, 5), (0, 2, 4)},
         "pairs in both avoid and favour sets: [(0, 1), (2, 3)]"),
        # five explicit avoids and the derived one block a pair
        ((1, 5, 1, 30), 2, {(k, k + 1, q) for k in (0, 2) for q in (1, 2, 4, 5, 6)}, (),
         "pair (0, 1) has all six relative positions avoided"),
        ((1, 5), 2, {(0, 5, 1)}, (), "relpos triple (0, 5, 1): need 0 <= i < k < m"),
        ((1, 5), 2, (), {(0, 1, 7)}, "relpos triple (0, 1, 7): q must be in 1..6"),
        # several out-of-range triples among 57 derived ones: the first in
        # the union's order is reported
        ((1, 5, 1, 30, 2, 9, 3, 60, 4, 7, 11, 2), Fraction(3, 2),
         {(3, 2, 1), (0, 40, 2), (5, 5, 6), (1, 2, 9), (7, 11, 0), (-1, 4, 2)}, (),
         "relpos triple (7, 11, 0): q must be in 1..6"),
    ])
    def test_messages(self, weights, eta, avoid, favour, message):
        with pytest.raises(ValueError) as exc:
            Instance(items=unit_items(weights), bin=BinSpec(4, 4, 4, n=1), eta=Fraction(eta),
                     relpos_avoid=frozenset(avoid), relpos_favour=frozenset(favour))
        assert str(exc.value) == message

    def test_first_bad_triple_of_a_loaded_file(self):
        """A file holds the derived triples too; its bad ones, read in the
        file's order, are reported as before."""
        base = Instance(items=unit_items((1, 5, 1, 30, 2, 9, 3, 60, 4, 7, 11, 2)),
                        bin=BinSpec(4, 4, 4, n=1), eta=Fraction(3, 2))
        doc = instance_to_dict(base)
        doc["relpos"]["avoid"] = ([[3, 2, 1], [0, 40, 2]] + doc["relpos"]["avoid"]
                                  + [[5, 5, 6], [1, 2, 9], [7, 11, 0], [-1, 4, 2]])
        with pytest.raises(ValueError) as exc:
            instance_from_dict(doc)
        assert str(exc.value) == "relpos triple (3, 2, 1): need 0 <= i < k < m"

    @given(st.lists(st.integers(1, 40), min_size=2, max_size=7),
           st.none() | st.fractions(min_value=Fraction(5, 4), max_value=4, max_denominator=4),
           st.data())
    def test_matches_full_table(self, weights, eta, data):
        m = len(weights)
        index = st.integers(-1, m) if data.draw(st.booleans()) else st.integers(0, m - 1)
        triple = st.tuples(index, index, st.integers(0, 7) | st.integers(1, 6))
        avoid = data.draw(st.frozensets(triple, max_size=8))
        favour = data.draw(st.frozensets(triple, max_size=3))
        items = unit_items(weights)
        want = reference_outcome(items, eta, avoid, favour)
        try:
            got = Instance(items=items, bin=BinSpec(4, 4, 4, n=1), eta=eta,
                           relpos_avoid=avoid, relpos_favour=favour).relpos_avoid
        except ValueError as exc:
            got = str(exc)
        assert got == want


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
