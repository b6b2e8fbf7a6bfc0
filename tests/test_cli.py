import json
from fractions import Fraction

import pytest

from binpack3d.cli import main
from binpack3d.fileio import (
    load_instance,
    load_solution,
    save_instance,
    save_solution,
    solution_to_dict,
)
from binpack3d.core import BinSpec, Instance, Item, PackingSolution, Placement


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tiny_instance(tmp_path):
    inst = Instance(items=(Item(0, 1, 1, 2, 1, 0), Item(1, 2, 1, 1, 1, 0)),
                    bin=BinSpec(2, 1, 2, n=1))
    path = tmp_path / "tiny.json"
    save_instance(inst, path)
    return path


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
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run(capsys, "solve", "--instance", str(tiny_instance),
                             "--iterations", "25", "--seed", "9", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

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
    ])
    def test_solve_exits_2_with_message(self, capsys, tiny_instance, path, value, message):
        doc = json.loads(tiny_instance.read_text())
        *parents, key = path
        target = doc
        for step in parents:
            target = target[step]
        target[key] = value
        tiny_instance.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--instance", str(tiny_instance),
                           "--iterations", "5")
        assert code == 2
        assert message in err


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

    def test_unknown_item_exits_2(self, capsys, tiny_instance, tmp_path):
        sol = PackingSolution((Placement(item=0, bin=1, k=1, x=0, y=0, z=0),
                               Placement(item=7, bin=1, k=1, x=1, y=0, z=0)))
        path = tmp_path / "unknown.json"
        save_solution(sol, path)
        code, _, err = run(capsys, "validate", "--instance", str(tiny_instance),
                           "--solution", str(path))
        assert code == 2
        assert "unknown" in err


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
    def write_runlog(self, tmp_path, name, energies, time_limit):
        sol = PackingSolution((Placement(item=0, bin=1, k=1, x=0, y=0, z=0),), o1=1)
        doc = solution_to_dict(sol, energy=energies[0], solver="heuristic", seed=0,
                               time_limit=time_limit, run_log=energies,
                               instance_name=name)
        path = tmp_path / f"{name}_{time_limit}.json"
        path.write_text(json.dumps(doc))
        return path

    def test_hand_computed_sigma_bar(self, capsys, tmp_path):
        path = self.write_runlog(tmp_path, "toy", [1, 3], 5.0)
        code, stdout, _ = run(capsys, "stats", "--runlogs", str(path))
        assert code == 0
        line = [ln for ln in stdout.splitlines() if ln.startswith("toy")][0]
        assert "0.5" in line  # sigma_bar of {1,3}

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
