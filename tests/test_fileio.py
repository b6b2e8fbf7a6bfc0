import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from binpack3d import GenSpec, SolverConfig, archetype, generate, solve_heuristic
from binpack3d.core import BinSpec, Instance, Item, PackingSolution, Placement
from binpack3d.fileio import (
    _dump,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_solution,
    rational_from_json,
    rational_to_json,
    save_instance,
    save_solution,
    solution_from_dict,
    solution_to_dict,
)

from helpers import solvable_instance


class TestRationals:
    @pytest.mark.parametrize("value,expected", [
        (3, 3), (Fraction(4, 2), 2), (Fraction(3, 4), "3/4"), (Fraction(-1, 3), "-1/3"),
    ])
    def test_to_json(self, value, expected):
        assert rational_to_json(value) == expected

    @pytest.mark.parametrize("raw,expected", [
        (3, Fraction(3)), ("3/4", Fraction(3, 4)), (1.5, Fraction(3, 2)),
        ("2.1", Fraction(21, 10)),
    ])
    def test_from_json(self, raw, expected):
        assert rational_from_json(raw) == expected

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            rational_from_json(True)


class TestInstanceFormat:
    def test_round_trip(self):
        rng = random.Random(12)
        for trial in range(10):
            inst = solvable_instance(rng, features=("overweight", "negative", "eta", "com"))
            assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_bytes_deterministic(self, tmp_path):
        inst = generate(GenSpec(item_count=6, seed=1, bin_dims=(20, 20, 20),
                                eta=Fraction(2)))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(inst, p1)
        save_instance(inst, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert load_instance(p1) == inst

    def test_fractional_eta_round_trips(self):
        inst = Instance(items=(Item(0, 1, 1, 1, 2, 0), Item(1, 1, 1, 1, 5, 1)),
                        bin=BinSpec(4, 4, 4, n=1), eta=Fraction(3, 2))
        doc = instance_to_dict(inst)
        assert doc["eta"] == "3/2"
        assert instance_from_dict(doc) == inst

    def test_unknown_key_rejected(self):
        doc = instance_to_dict(Instance(items=(Item(0, 1, 1, 1, 1, 0),),
                                        bin=BinSpec(2, 2, 2, n=1)))
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown keys"):
            instance_from_dict(doc)

    def test_unknown_nested_key_rejected(self):
        doc = instance_to_dict(Instance(items=(Item(0, 1, 1, 1, 1, 0),),
                                        bin=BinSpec(2, 2, 2, n=1)))
        doc["bin"]["D"] = 4
        with pytest.raises(ValueError, match="instance.bin"):
            instance_from_dict(doc)

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing keys"):
            instance_from_dict({"bin": {"L": 2, "W": 2, "H": 2}, "items": []})

    def test_item_id_must_match_position(self):
        doc = instance_to_dict(Instance(items=(Item(0, 1, 1, 1, 1, 0),),
                                        bin=BinSpec(2, 2, 2, n=1)))
        doc["items"][0]["id"] = 5
        with pytest.raises(ValueError, match="ids must be 0-based"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_item_id_must_be_an_integer(self, value):
        """True == 1 and 1.0 == 1, but an id is an integer like every other field."""
        doc = instance_to_dict(Instance(items=(Item(0, 1, 1, 1, 1, 0), Item(1, 1, 1, 1, 1, 0)),
                                        bin=BinSpec(2, 2, 2, n=1)))
        doc["items"][1]["id"] = value
        with pytest.raises(ValueError) as exc:
            instance_from_dict(doc)
        assert str(exc.value) == f"items[1].id must be an integer, got {value!r}"

    def test_n_defaulted_when_absent(self):
        doc = instance_to_dict(Instance(items=(Item(0, 1, 1, 1, 1, 0),),
                                        bin=BinSpec(2, 2, 2, n=1)))
        del doc["bin"]["n"]
        inst = instance_from_dict(doc)
        assert inst.bin.n == 2  # ceil(1/8) + 1

    def test_derived_avoid_triples_are_emitted(self):
        inst = Instance(items=(Item(0, 1, 1, 1, 2, 0), Item(1, 1, 1, 1, 9, 1)),
                        bin=BinSpec(4, 4, 4, n=1), eta=Fraction(2))
        doc = instance_to_dict(inst)
        assert [0, 1, 3] in doc["relpos"]["avoid"]


class TestJsonBytesGolden:
    def test_archetype_instances_and_solutions(self, tmp_path):
        """Pinned bytes of save_instance on archetypes 1-12 x seeds 0-2 and of
        save_solution for a 20-iteration heuristic solve of each."""
        digest = hashlib.sha256()
        inst_path, sol_path = tmp_path / "i.json", tmp_path / "s.json"
        for number in range(1, 13):
            for seed in range(3):
                inst = archetype(number, seed=seed)
                save_instance(inst, inst_path)
                result = solve_heuristic(inst, SolverConfig(iterations=20, seed=seed))
                save_solution(result.best, sol_path, energy=result.energy,
                              solver="heuristic", seed=seed, elapsed_s=0.0, iterations=20,
                              run_log=result.run_log, instance_name=f"a{number}")
                digest.update(inst_path.read_bytes())
                digest.update(sol_path.read_bytes())
        assert digest.hexdigest() == (
            "6c8f48f24e1ca491cc4809555f42f9a76201bf33c3bfabd9f6393bb2c4ee302b")


class TestSolutionFormat:
    def make_solution(self):
        return PackingSolution(
            (Placement(item=0, bin=1, k=1, x=0, y=0, z=0),
             Placement(item=1, bin=1, k=3, x=2, y=0, z=0)),
            o1=1, o2=Fraction(3, 4), o3=None)

    def test_round_trip(self):
        sol = self.make_solution()
        doc = solution_to_dict(sol, energy=Fraction(7, 4), solver="heuristic",
                               seed=42, elapsed_s=0.0, time_limit=5.0,
                               run_log=[Fraction(7, 4), 2], instance_name="toy")
        back, meta = solution_from_dict(doc)
        assert back == sol
        assert meta["energy"] == Fraction(7, 4)
        assert meta["run_log"] == [Fraction(7, 4), 2]
        assert meta["time_limit"] == 5.0
        assert meta["instance"] == "toy"

    def test_bytes_deterministic(self, tmp_path):
        sol = self.make_solution()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_solution(sol, p1, energy=Fraction(7, 4), solver="heuristic", seed=0)
        save_solution(sol, p2, energy=Fraction(7, 4), solver="heuristic", seed=0)
        assert p1.read_bytes() == p2.read_bytes()
        back, _ = load_solution(p1)
        assert back == sol

    def test_unknown_key_rejected(self):
        doc = solution_to_dict(self.make_solution())
        doc["extra"] = []
        with pytest.raises(ValueError, match="unknown keys"):
            solution_from_dict(doc)

    def test_unknown_placement_key_rejected(self):
        doc = solution_to_dict(self.make_solution())
        doc["placements"][0]["w"] = 1
        with pytest.raises(ValueError, match="placements"):
            solution_from_dict(doc)


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


class TestDump:
    @given(JSON_DOCS)
    def test_matches_json_dumps(self, doc):
        """The writer's bytes equal json.dumps(doc, indent=2, sort_keys=True)
        and a newline: strings of any code point, every float (NaN and the
        infinities too), empty and nested lists and objects."""
        assert _dump(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @given(st.data())
    def test_row_shapes_match_json_dumps(self, data):
        """Lists of int lists and lists of objects of ints are written through
        one row template; the shapes near them must be refused and written
        as json writes them: bools among the ints, negative and huge ints,
        unequal, empty and tuple rows, objects with differing keys, empty
        objects and non-int values, keys with %, quotes or non-ASCII."""
        number = st.integers(-3, 3) | st.integers(-2**70, 2**70)
        if data.draw(st.booleans()):  # a value the templates refuse, among the ints
            number |= st.just(data.draw(st.sampled_from([True, False, 1.5, None, "7"])))
        if data.draw(st.booleans()):
            width = data.draw(st.integers(0, 4))
            row = st.lists(number, min_size=width, max_size=width)
            if data.draw(st.booleans()):  # unequal widths, tuples
                row |= st.lists(number, max_size=4) | row.map(tuple)
        else:
            key = st.text(st.sampled_from('ab%"\\\u00e9\u2603'), max_size=3)
            keys = data.draw(st.lists(key, max_size=4, unique=True))
            row = st.fixed_dictionaries({k: number for k in keys})
            if data.draw(st.booleans()):  # differing keys
                row |= st.dictionaries(key, number, max_size=3)
        rows = data.draw(st.lists(row, min_size=1, max_size=5))
        doc = data.draw(st.sampled_from([rows, {"rows": rows}, [[rows]]]))
        assert _dump(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
