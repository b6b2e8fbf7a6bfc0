import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from binpack3d.cli import main
from binpack3d.solver import SolverConfig
from binpack3d.solver.config import BACKENDS
from binpack3d.fileio import (
    instance_to_dict,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
    solution_to_dict,
)
from binpack3d.core import Affinities, BinSpec, Instance, Item, PackingSolution, Placement

from helpers import subprocess_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY = Instance(items=(Item(0, 1, 1, 2, 1, 0), Item(1, 2, 1, 1, 1, 0)),
                bin=BinSpec(2, 1, 2, n=1))


@pytest.fixture
def tiny_instance(tmp_path):
    path = tmp_path / "tiny.json"
    save_instance(TINY, path)
    return path


def tiny_solution_doc():
    """A feasible solution of TINY."""
    return solution_to_dict(PackingSolution((
        Placement(item=0, bin=1, k=5, x=0, y=0, z=0),
        Placement(item=1, bin=1, k=1, x=0, y=0, z=1))))


def with_node(doc, path, value):
    """A copy of a JSON document with the node at the key path replaced."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


class TestGenerate:
    def test_archetype_writes_expected_item_count(self, capsys, tmp_path):
        out = tmp_path / "a1.json"
        code, stdout, _ = run(capsys, "generate", "--archetype", "1",
                              "--seed", "7", "--out", str(out))
        assert code == 0
        inst = load_instance(out)
        assert inst.m == 51

    def test_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "generate", "--archetype", "2", "--seed", "3",
                   "--out", str(a))[0] == 0
        assert run(capsys, "generate", "--archetype", "2", "--seed", "3",
                   "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_archetype_13_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--archetype", "13",
                           "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "1..12" in err

    @pytest.mark.parametrize("flags,message", [
        (["--bin", "5", "5", "5", "--eta", "1/0"], "expected a rational, got '1/0'"),
        (["--bin", "0", "5", "5"], "bin dims must be >= 1"),
        (["--bin", "5", "5", "5", "--max-weight", "0"], "max_weight must be >= 1"),
        (["--bin", "5", "5", "5", "--bins", "1", "--max-weight", "1"],
         "total weight 3 exceeds M * n = 1"),
    ])
    def test_malformed_spec_exits_2(self, capsys, tmp_path, flags, message):
        code, _, err = run(capsys, "generate", "--items", "3", *flags,
                           "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert message in err

    def test_small_weight_cap_clamps_weights(self, capsys, tmp_path):
        """Weights drawn over a small cap (7, 4 and 26 here) are clamped to
        it, and the instance solves."""
        out = tmp_path / "capped.json"
        code, _, _ = run(capsys, "generate", "--items", "3", "--bin", "100", "100", "100",
                         "--max-weight", "2", "--seed", "1", "--out", str(out))
        assert code == 0
        assert all(it.mu <= 2 for it in load_instance(out).items)
        code, _, _ = run(capsys, "solve", "--instance", str(out), "--iterations", "5",
                         "--out", str(tmp_path / "capped.sol.json"))
        assert code == 0

    def test_custom_spec(self, capsys, tmp_path):
        out = tmp_path / "c.json"
        code, _, _ = run(capsys, "generate", "--items", "5", "--bin", "30", "30", "30",
                         "--eta", "2", "--seed", "1", "--out", str(out))
        assert code == 0
        inst = load_instance(out)
        assert inst.m == 5
        assert inst.eta == 2


class TestBuild:
    def test_counts_json(self, capsys, tiny_instance):
        code, stdout, _ = run(capsys, "build", "--instance", str(tiny_instance),
                              "--counts-only")
        assert code == 0
        assert json.loads(stdout) == {"binary": 12, "continuous": 6,
                                      "quadratic_constraints": 0,
                                      "linear_constraints": 15}

    def test_full_build_matches_counts_only(self, capsys, tiny_instance):
        _, full, _ = run(capsys, "build", "--instance", str(tiny_instance))
        _, fast, _ = run(capsys, "build", "--instance", str(tiny_instance),
                         "--counts-only")
        assert json.loads(full.splitlines()[0]) == json.loads(fast)

    def test_export_lp(self, capsys, tiny_instance, tmp_path):
        lp = tmp_path / "model.lp"
        code, _, _ = run(capsys, "build", "--instance", str(tiny_instance),
                         "--export-lp", str(lp))
        assert code == 0
        text = lp.read_text()
        assert text.startswith("Minimize")
        code2, _, _ = run(capsys, "build", "--instance", str(tiny_instance),
                          "--export-lp", str(tmp_path / "model2.lp"))
        assert (tmp_path / "model2.lp").read_text() == text


class TestSolve:
    def test_solve_writes_solution_and_stats(self, capsys, tiny_instance, tmp_path):
        out = tmp_path / "sol.json"
        code, stdout, _ = run(capsys, "solve", "--instance", str(tiny_instance),
                              "--iterations", "30", "--runs", "3", "--seed", "5",
                              "--out", str(out))
        assert code == 0
        stats = json.loads(stdout)
        assert {"energy", "mean", "std", "sigma_bar", "min", "max"} <= set(stats)
        sol, meta = load_solution(out)
        assert len(sol.placements) == 2
        assert len(meta["run_log"]) == 3

    def test_solution_bytes_deterministic(self, capsys, tiny_instance, tmp_path):
        """Every backend, the oracle included, pins elapsed_s in iteration mode."""
        for backend, iterations in (("heuristic", "25"), ("annealer", "3000"),
                                    ("oracle", "25")):
            a, b = tmp_path / f"{backend}_a.json", tmp_path / f"{backend}_b.json"
            for out in (a, b):
                code, _, _ = run(capsys, "solve", "--instance", str(tiny_instance),
                                 "--backend", backend, "--iterations", iterations,
                                 "--seed", "9", "--out", str(out))
                assert code == 0, backend
            assert a.read_bytes() == b.read_bytes(), backend

    def test_infeasible_exits_3(self, capsys, tmp_path):
        from binpack3d.core import Affinities
        items = (Item(0, 2, 2, 2, 1, 0), Item(1, 2, 2, 2, 1, 1))
        inst = Instance(items=items, bin=BinSpec(2, 2, 2, n=1),
                        affinities=Affinities(negative=frozenset({(0, 1)})))
        path = tmp_path / "bad.json"
        save_instance(inst, path)
        code, _, err = run(capsys, "solve", "--instance", str(path),
                           "--iterations", "10")
        assert code == 3
        assert "infeasible" in err

    def test_oracle_cap_exits_2(self, capsys, tmp_path):
        items = tuple(Item(i, 1, 1, 1, 1, 0) for i in range(5))
        inst = Instance(items=items, bin=BinSpec(2, 2, 2, n=1))
        path = tmp_path / "five.json"
        save_instance(inst, path)
        code, _, err = run(capsys, "solve", "--instance", str(path),
                           "--backend", "oracle")
        assert code == 2
        assert "oracle refused" in err

    def test_oracle_backend_solves(self, capsys, tiny_instance, tmp_path):
        out = tmp_path / "o.json"
        code, _, _ = run(capsys, "solve", "--instance", str(tiny_instance),
                         "--backend", "oracle", "--out", str(out))
        assert code == 0
        sol, meta = load_solution(out)
        assert meta["energy"] == Fraction(3, 4)


class TestMalformedInstance:
    @pytest.mark.parametrize("path,value,message", [
        (("items", 0, "l"), 2.5, "l must be an integer, got 2.5"),
        (("items", 0, "l"), True, "l must be an integer, got True"),
        (("items", 1, "category"), 1.5, "category must be an integer, got 1.5"),
        (("affinities", "positive"), [[1]], "lists of 2 integers, got [1]"),
        (("relpos", "avoid"), [[0, 1]], "lists of 3 integers, got [0, 1]"),
        # without n the default bin count would compute with L
        (("bin",), {"L": "2", "W": 1, "H": 2}, "bin L must be an integer, got '2'"),
        (("items", 0), 7, "items[0] must be an object, got 7"),
        # two unit cubes, the pair favoured in two positions
        ((), {"bin": {"L": 2, "W": 1, "H": 2, "n": 1},
              "items": [{"id": i, "l": 1, "w": 1, "h": 1, "mu": 1, "category": 0}
                        for i in range(2)],
              "affinities": {"positive": [], "negative": []},
              "relpos": {"avoid": [], "favour": [[0, 1, 1], [0, 1, 3]]}},
         "pair (0, 1) is favoured in 2 relative positions"),
        (("relpos", "avoid"), [[0, 1, True]], "relpos.avoid: expected lists of 3 integers, "
                                              "got [0, 1, True]"),
        (("relpos", "favour"), [[0, 1, 2], [0, 1.0, 3]],
         "relpos.favour: expected lists of 3 integers, got [0, 1.0, 3]"),
        (("relpos", "avoid"), [[0, 1, 3, 4]], "lists of 3 integers, got [0, 1, 3, 4]"),
        (("relpos", "avoid"), ["013"], "lists of 3 integers, got '013'"),
        (("affinities", "negative"), [[0, "1"]],
         "affinities.negative: expected lists of 2 integers, got [0, '1']"),
        (("affinities", "positive"), [[0, False]], "lists of 2 integers, got [0, False]"),
        (("items", 1, "id"), True, "items[1].id must be an integer, got True"),
        (("items", 1, "id"), 1.0, "items[1].id must be an integer, got 1.0"),
    ])
    def test_solve_exits_2_with_message(self, capsys, tiny_instance, path, value, message):
        """build and solve with each backend refuse the file the same way."""
        doc = with_node(json.loads(tiny_instance.read_text()), path, value)
        tiny_instance.write_text(json.dumps(doc))
        commands = [["build"]] + [["solve", "--iterations", "5", "--backend", backend]
                                  for backend in BACKENDS]
        for command in commands:
            code, _, err = run(capsys, *command, "--instance", str(tiny_instance))
            assert code == 2, command
            assert message in err and "Traceback" not in err, command


class TestMalformedSolution:
    @pytest.mark.parametrize("path,value,message", [
        (("placements", 0, "x"), 0.5, "placement x must be an integer, got 0.5"),
        (("placements", 0, "k"), True, "placement k must be an integer, got True"),
        (("placements", 0, "x"), "a", "placement x must be an integer, got 'a'"),
        (("placements", 0), 5, "placements[0] must be an object, got 5"),
        (("placements",), 5, "solution.placements must be a list, got 5"),
    ])
    def test_validate_exits_2_with_message(self, capsys, tiny_instance, tmp_path,
                                           path, value, message):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(with_node(tiny_solution_doc(), path, value)))
        code, _, err = run(capsys, "validate", "--instance", str(tiny_instance),
                           "--solution", str(sol))
        assert code == 2
        assert message in err


class TestDeeplyNestedJson:
    """A file of 100,000 nested "[" overflows the JSON parser's recursion:
    each command that reads it exits 2 with a message, not a traceback."""

    @pytest.mark.parametrize("command", ["solve", "validate", "stats"])
    def test_exits_2_with_message(self, capsys, tiny_instance, tmp_path, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = {"solve": ["solve", "--instance", str(deep), "--iterations", "5"],
                "validate": ["validate", "--instance", str(tiny_instance),
                             "--solution", str(deep)],
                "stats": ["stats", "--runlogs", str(deep)]}[command]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"{deep}: JSON nested too deeply" in err and "Traceback" not in err


def json_paths(doc, prefix=()):
    """Every node of a JSON document as a key path; () is the root."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from json_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for idx, value in enumerate(doc):
            yield from json_paths(value, prefix + (idx,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)

# every instance feature that fileio parses, on a document small enough to solve
FUZZ_INSTANCE_DOC = instance_to_dict(
    Instance(items=(Item(0, 1, 1, 2, 1, 0), Item(1, 2, 1, 1, 1, 1)),
             bin=BinSpec(2, 1, 2, n=2), eta=Fraction(3, 2),
             com_target=(Fraction(1), Fraction(1, 2)),
             affinities=Affinities(negative=frozenset({(0, 1)}))))


def quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# a run log with every metadata field that stats reads
RUNLOG_DOC = solution_to_dict(
    PackingSolution((
        Placement(item=0, bin=1, k=5, x=0, y=0, z=0),
        Placement(item=1, bin=1, k=1, x=0, y=0, z=1)), o1=1, o2=Fraction(3, 4)),
    energy=Fraction(3, 4), solver="heuristic", seed=1, elapsed_s=0.25, time_limit=5,
    iterations=10, run_log=[Fraction(3, 4), 1], instance_name="tiny")

SETTING_VALUES = (st.none() | st.booleans() | st.integers(-2, 10 ** 6)
                  | st.floats(allow_nan=True, allow_infinity=True) | st.fractions()
                  | st.text(max_size=3))
FLAG_VALUES = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1", "0", "1", "2",
                               "0.5", "1.5", "true", "x", ""])
SMALL_INTS = st.sampled_from(["-1", "0", "1", "2", "3"])
GENERATE_VALUES = SMALL_INTS | st.sampled_from(["1/0", "3/2", "nan", "x", ""])


class TestFuzzJsonBoundary:
    """One node of a valid instance or solution document replaced by a random
    JSON value: the command exits with a documented code and never raises."""

    def run_quietly(self, instance_doc, solution_doc=None, command="validate"):
        with tempfile.TemporaryDirectory() as tmp:
            inst = Path(tmp) / "inst.json"
            inst.write_text(json.dumps(instance_doc))
            if solution_doc is None:
                argv = ["solve", "--instance", str(inst), "--iterations", "5"]
            else:
                sol = Path(tmp) / "sol.json"
                sol.write_text(json.dumps(solution_doc))
                argv = [command, "--instance", str(inst), "--solution", str(sol)]
                if command == "render":
                    argv += ["--out", str(Path(tmp) / "out.svg")]
            return quietly(argv)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(list(json_paths(FUZZ_INSTANCE_DOC))), JSON_VALUES)
    def test_solve_instance_node(self, path, value):
        assert self.run_quietly(with_node(FUZZ_INSTANCE_DOC, path, value)) in (0, 1, 2, 3)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(list(json_paths(tiny_solution_doc()))), JSON_VALUES)
    def test_validate_solution_node(self, path, value):
        doc = with_node(tiny_solution_doc(), path, value)
        assert self.run_quietly(instance_to_dict(TINY), doc) in (0, 1, 2, 3)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(list(json_paths(tiny_solution_doc()))), JSON_VALUES)
    def test_render_solution_node(self, path, value):
        doc = with_node(tiny_solution_doc(), path, value)
        assert self.run_quietly(instance_to_dict(TINY), doc, "render") in (0, 2)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(list(json_paths(RUNLOG_DOC))), JSON_VALUES)
    def test_stats_runlog_node(self, path, value):
        """Beside an intact log of the same instance, so rows are compared."""
        with tempfile.TemporaryDirectory() as tmp:
            logs = [Path(tmp) / "a.json", Path(tmp) / "b.json"]
            logs[0].write_text(json.dumps(RUNLOG_DOC))
            logs[1].write_text(json.dumps(with_node(RUNLOG_DOC, path, value)))
            assert quietly(["stats", "--runlogs", *map(str, logs)]) in (0, 2)


class TestSolverSettings:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_time_limit_exits_2(self, tiny_instance, value):
        """Without the check the deadline is never reached and solve hangs."""
        proc = subprocess.run(
            [sys.executable, "-m", "binpack3d", "solve", "--instance", str(tiny_instance),
             "--time-limit", value],
            capture_output=True, text=True, timeout=60, env=subprocess_env())
        assert proc.returncode == 2
        assert f"time_limit must be a finite number, got {value}" in proc.stderr

    @pytest.mark.parametrize("field,value", [
        ("runs", 1.5), ("runs", True), ("iterations", 2.5), ("seed", "1"),
        ("time_limit", float("nan")), ("time_limit", float("-inf")), ("time_limit", "5"),
        ("weights", (None, 1, 1)), ("weights", (1, 1)), ("weights", (True, 1, 1)),
        ("weights", (1, float("nan"), 1)), ("weights", [1, 1, 1]),
    ])
    def test_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            SolverConfig(**{field: value})

    @given(time_limit=SETTING_VALUES, seed=SETTING_VALUES, runs=SETTING_VALUES,
           iterations=SETTING_VALUES,
           weights=SETTING_VALUES | st.lists(SETTING_VALUES, max_size=4).map(tuple))
    def test_config_fuzz(self, time_limit, seed, runs, iterations, weights):
        """A SolverConfig either raises ValueError or holds usable values."""
        try:
            cfg = SolverConfig(time_limit=time_limit, seed=seed, runs=runs,
                               iterations=iterations, weights=weights)
        except ValueError:
            return
        assert len(cfg.weights) == 3
        assert all(type(w) is int or type(w) is Fraction for w in cfg.weights)
        assert type(cfg.seed) is int and type(cfg.runs) is int and cfg.runs >= 1
        assert cfg.iterations is None or type(cfg.iterations) is int and cfg.iterations >= 0
        assert not isinstance(cfg.time_limit, bool)
        assert math.isfinite(cfg.time_limit) and cfg.time_limit > 0

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(st.sampled_from(["--time-limit", "--runs", "--seed"]), FLAG_VALUES),
           st.sampled_from(["heuristic", "annealer", "oracle"]), FLAG_VALUES)
    def test_solve_flags_fuzz(self, flags, backend, iterations):
        """Random flag strings: solve exits with a documented code, never
        raises. --iterations is always passed, so no run waits on the clock."""
        with tempfile.TemporaryDirectory() as tmp:
            inst = Path(tmp) / "inst.json"
            save_instance(TINY, inst)
            argv = ["solve", "--instance", str(inst), "--backend", backend,
                    "--iterations", iterations]
            for flag, value in flags.items():
                argv += [flag, value]
            try:
                code = quietly(argv)
            except SystemExit as exc:  # argparse refuses a malformed number
                code = exc.code
            assert code in (0, 2, 3)


    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(st.sampled_from(["--eta", "--max-weight", "--pos-affinities",
                                            "--neg-affinities", "--categories", "--bins",
                                            "--seed"]), GENERATE_VALUES),
           st.lists(SMALL_INTS, min_size=3, max_size=3), SMALL_INTS)
    def test_generate_flags_fuzz(self, flags, bin_dims, items):
        """Random generate flags: exit 0 or 2, never a traceback. Every value
        is small, so no instance grows large."""
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["generate", "--items", items, "--bin", *bin_dims,
                    "--out", str(Path(tmp) / "inst.json")]
            for flag, value in flags.items():
                argv += [flag, value]
            try:
                code = quietly(argv)
            except SystemExit as exc:  # argparse refuses a malformed number
                code = exc.code
            assert code in (0, 2)


class TestValidate:
    def test_feasible_solution(self, capsys, tiny_instance, tmp_path):
        out = tmp_path / "sol.json"
        run(capsys, "solve", "--instance", str(tiny_instance),
            "--iterations", "10", "--out", str(out))
        code, stdout, _ = run(capsys, "validate", "--instance", str(tiny_instance),
                              "--solution", str(out))
        assert code == 0
        assert json.loads(stdout) == []

    def test_overlap_exits_1(self, capsys, tiny_instance, tmp_path):
        sol = PackingSolution((Placement(item=0, bin=1, k=1, x=0, y=0, z=0),
                               Placement(item=1, bin=1, k=1, x=0, y=0, z=0)))
        path = tmp_path / "overlap.json"
        save_solution(sol, path)
        code, stdout, _ = run(capsys, "validate", "--instance", str(tiny_instance),
                              "--solution", str(path))
        assert code == 1
        report = json.loads(stdout)
        assert any(v["rule"] == "Overlap" for v in report)

    @pytest.mark.parametrize("command", ["validate", "render"])
    def test_unknown_item_exits_2(self, capsys, tiny_instance, tmp_path, command):
        sol = PackingSolution((Placement(item=0, bin=1, k=1, x=0, y=0, z=0),
                               Placement(item=7, bin=1, k=1, x=1, y=0, z=0)))
        path = tmp_path / "unknown.json"
        save_solution(sol, path)
        out = ["--out", str(tmp_path / "unknown.svg")] if command == "render" else []
        code, _, err = run(capsys, command, "--instance", str(tiny_instance),
                           "--solution", str(path), *out)
        assert code == 2
        assert "unknown item 7" in err


class TestRender:
    def test_render_deterministic(self, capsys, tiny_instance, tmp_path):
        sol_path = tmp_path / "sol.json"
        run(capsys, "solve", "--instance", str(tiny_instance),
            "--iterations", "10", "--out", str(sol_path))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(capsys, "render", "--instance", str(tiny_instance),
                   "--solution", str(sol_path), "--out", str(a))[0] == 0
        assert run(capsys, "render", "--instance", str(tiny_instance),
                   "--solution", str(sol_path), "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("<svg")


class TestNoInputMutation:
    def test_commands_leave_inputs_untouched(self, capsys, tiny_instance, tmp_path):
        before = tiny_instance.read_bytes()
        sol = tmp_path / "sol.json"
        run(capsys, "build", "--instance", str(tiny_instance))
        run(capsys, "solve", "--instance", str(tiny_instance),
            "--iterations", "10", "--out", str(sol))
        sol_before = sol.read_bytes()
        run(capsys, "validate", "--instance", str(tiny_instance), "--solution", str(sol))
        run(capsys, "render", "--instance", str(tiny_instance), "--solution", str(sol),
            "--out", str(tmp_path / "r.svg"))
        run(capsys, "stats", "--runlogs", str(sol))
        assert tiny_instance.read_bytes() == before
        assert sol.read_bytes() == sol_before


class TestStats:
    def write_runlog(self, tmp_path, name, energies, time_limit, iterations=None):
        sol = PackingSolution((Placement(item=0, bin=1, k=1, x=0, y=0, z=0),), o1=1)
        doc = solution_to_dict(sol, energy=energies[0], solver="heuristic", seed=0,
                               time_limit=time_limit, iterations=iterations,
                               run_log=energies, instance_name=name)
        path = tmp_path / f"{name}_{time_limit}_{iterations}.json"
        path.write_text(json.dumps(doc))
        return path

    def test_hand_computed_sigma_bar(self, capsys, tmp_path):
        path = self.write_runlog(tmp_path, "toy", [1, 3], 5.0)
        code, stdout, _ = run(capsys, "stats", "--runlogs", str(path))
        assert code == 0
        line = [ln for ln in stdout.splitlines() if ln.startswith("toy")][0]
        assert "0.5" in line  # sigma_bar of {1,3}

    def test_mistyped_time_limit_exits_2(self, capsys, tmp_path):
        good = self.write_runlog(tmp_path, "toy", [1, 3], 5)
        bad = self.write_runlog(tmp_path, "toy", [1, 3], "x")
        code, _, err = run(capsys, "stats", "--runlogs", str(good), str(bad))
        assert code == 2
        assert "solution.time_limit must be a finite number, got 'x'" in err

    def test_time_and_iteration_budgets_get_own_rows(self, capsys, tmp_path):
        """A 5-second log and a 5-iteration log of one instance are two rows."""
        seconds = self.write_runlog(tmp_path, "toy", [1, 1], 5)
        iterations = self.write_runlog(tmp_path, "toy", [3, 3], None, iterations=5)
        code, stdout, _ = run(capsys, "stats", "--runlogs", str(seconds), str(iterations))
        assert code == 0
        rows = [ln.split() for ln in stdout.splitlines() if ln.startswith("toy")]
        assert rows == [["toy", "5", "1.0", "0.0", "0.0", "1.0", "1.0"],
                        ["toy", "5", "iterations", "3.0", "0.0", "0.0", "3.0", "3.0"]]

    def test_rows_per_time_limit_and_csv(self, capsys, tmp_path):
        paths = [self.write_runlog(tmp_path, "toy", [2, 2, 2], tl)
                 for tl in (5.0, 10.0, 30.0, 60.0)]
        csv = tmp_path / "out.csv"
        code, stdout, _ = run(capsys, "stats", "--runlogs", *map(str, paths),
                              "--csv", str(csv))
        assert code == 0
        rows = [ln for ln in stdout.splitlines() if ln.startswith("toy")]
        assert len(rows) == 4
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "instance,time_limit,mean,std,sigma_bar,min,max"
        assert len(lines) == 5
