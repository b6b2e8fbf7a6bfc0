import hashlib
from fractions import Fraction

import pytest

from binpack3d import (
    ARCHETYPE_MODEL_SIZES,
    GenSpec,
    archetype,
    archetypes,
    count_model,
    generate,
)
from binpack3d.datagen import ARCHETYPE_FLAGS
from binpack3d.fileio import instance_to_dict, _dump


ARCHETYPE_ITEM_COUNTS = (51, 51, 52, 52, 53, 53, 46, 46, 47, 51, 38, 38)


class TestGenerate:
    def test_deterministic_in_seed(self):
        spec = GenSpec(item_count=10, seed=5, bin_dims=(100, 100, 100))
        a = generate(spec)
        b = generate(spec)
        assert a == b
        assert _dump(instance_to_dict(a)) == _dump(instance_to_dict(b))

    def test_different_seeds_differ(self):
        a = generate(GenSpec(item_count=10, seed=1, bin_dims=(100, 100, 100)))
        b = generate(GenSpec(item_count=10, seed=2, bin_dims=(100, 100, 100)))
        assert a != b

    def test_eta_derives_full_avoid_sets(self):
        spec = GenSpec(item_count=12, seed=3, bin_dims=(100, 100, 100),
                       eta=Fraction(2))
        inst = generate(spec)
        for i in range(inst.m):
            for k in range(i + 1, inst.m):
                hi, lo = inst.items[k].mu, inst.items[i].mu
                if Fraction(hi, lo) > 2:
                    assert (i, k, 3) in inst.relpos_avoid
                if Fraction(lo, hi) > 2:
                    assert (i, k, 6) in inst.relpos_avoid

    def test_default_bin_count_heuristic(self):
        spec = GenSpec(item_count=8, seed=4, bin_dims=(50, 50, 50))
        inst = generate(spec)
        total = sum(it.volume for it in inst.items)
        assert inst.bin.n == -(-total // (50 * 50 * 50)) + 1

    def test_affinity_sampling_disjoint(self):
        spec = GenSpec(item_count=30, seed=6, bin_dims=(100, 100, 100),
                       positive_affinities=3, negative_affinities=3)
        inst = generate(spec)
        assert len(inst.affinities.positive) == 3
        assert len(inst.affinities.negative) == 3
        assert not (inst.affinities.positive & inst.affinities.negative)

    def test_weight_guard_with_explicit_bins(self):
        spec = GenSpec(item_count=40, seed=7, bin_dims=(100, 100, 100),
                       max_weight=50, bins_upper=2, weight_scale=100000)
        inst = generate(spec)
        assert sum(it.mu for it in inst.items) <= 2 * 50


class TestGenerateGolden:
    def test_affinity_grid_bytes(self):
        """Pinned output over seeds x category counts x affinity mixes, with
        the ValueError message of every spec that cannot be sampled (too few
        category pairs, or no contradiction-free positive pairs)."""
        digest = hashlib.sha256()
        for seed in range(40):
            for categories in (4, 6, 8):
                for pos, neg in ((1, 1), (3, 1), (2, 3), (4, 2), (6, 3), (9, 4)):
                    spec = GenSpec(item_count=20, seed=seed, bin_dims=(100, 100, 100),
                                   positive_affinities=pos, negative_affinities=neg,
                                   category_count=categories)
                    try:
                        digest.update(_dump(instance_to_dict(generate(spec))).encode())
                    except ValueError as exc:
                        digest.update(f"ValueError: {exc}\n".encode())
        assert digest.hexdigest() == (
            "42e9d1b2a401bb929eaef63e14f3efd09034c395078b9e38125e9e7cf0c9bc12")


class TestArchetypes:
    def test_item_counts(self):
        for spec, expected in zip(archetypes(), ARCHETYPE_ITEM_COUNTS):
            assert spec.item_count == expected

    def test_flags_match_rows(self):
        for row, spec in enumerate(archetypes(), start=1):
            flags = ARCHETYPE_FLAGS[row]
            assert (spec.max_weight is not None) == ("OW" in flags), row
            assert (spec.positive_affinities > 0) == ("PA" in flags), row
            assert (spec.negative_affinities > 0) == ("INC" in flags), row
            assert (spec.eta is not None) == ("LB" in flags), row
            assert (spec.com_target is not None) == ("CM" in flags), row

    def test_pinned_parameters(self):
        specs = archetypes()
        assert specs[1].max_weight == 1000
        assert specs[3].eta == 2
        assert specs[8].com_target == (750, 750)
        assert specs[9].com_target == (900, 500)
        assert specs[10].max_weight == 800 and specs[10].eta == 2
        assert specs[10].com_target == (750, 750)
        assert specs[11].max_weight == 900 and specs[11].com_target == (500, 500)
        assert specs[11].bin_dims == (1000, 1000, 1000)

    def test_model_sizes_within_band(self):
        for row, spec in enumerate(archetypes(), start=1):
            inst = generate(spec)
            counts = count_model(inst)
            ref_vars, ref_cons = ARCHETYPE_MODEL_SIZES[row]
            assert abs(counts.variables - ref_vars) <= 0.25 * ref_vars, row
            assert abs(counts.total_constraints - ref_cons) <= 0.25 * ref_cons, row

    def test_total_weight_magnitude(self):
        inst = archetype(1)
        total = sum(it.mu for it in inst.items)
        # reference magnitude for the 51-item unrestricted row is 1776
        assert 900 <= total <= 3600

    def test_archetype_out_of_range(self):
        with pytest.raises(ValueError, match="1..12"):
            archetype(13)

    def test_archetype_seed_override(self):
        assert archetype(1, seed=1) != archetype(1, seed=2)

    def test_every_item_fits(self):
        for spec in archetypes():
            inst = generate(spec)  # Instance construction enforces fit
            assert inst.m == spec.item_count
