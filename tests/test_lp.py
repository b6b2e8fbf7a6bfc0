import hashlib
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from binpack3d import (
    BinSpec,
    Instance,
    Item,
    archetype,
    audit_counts,
    build_model,
    count_model,
    lp_string,
    solve_oracle,
)

from helpers import FEATURES, random_instance


def two_item_instance(n=1):
    return Instance(items=(Item(0, 1, 1, 2, 1, 0), Item(1, 2, 1, 1, 1, 0)),
                    bin=BinSpec(2, 1, 2, n=n))


def parse_lp(text: str):
    """Minimal LP reader for the writer's own linear output."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    section = None
    objective: dict[str, float] = {}
    obj_const = 0.0
    constraints = []  # (name, {var: coef}, sense, rhs)
    bounds: dict[str, tuple[float, float]] = {}
    binaries: set[str] = set()

    def parse_terms(src: str):
        tokens = src.replace("+", " + ").replace("- ", " - ").split()
        terms: dict[str, float] = {}
        const = 0.0
        sign = 1.0
        pending: float | None = None
        for tok in tokens:
            if tok == "+":
                sign = 1.0
            elif tok == "-":
                sign = -1.0
            else:
                try:
                    val = float(tok)
                except ValueError:
                    assert pending is not None, f"bare variable {tok}"
                    terms[tok] = terms.get(tok, 0.0) + sign * pending
                    pending = None
                    sign = 1.0
                    continue
                if pending is not None:
                    const += sign * pending
                pending = val
        if pending is not None:
            const += sign * pending
        return terms, const

    for line in lines:
        if line in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            section = line
            continue
        if section == "Minimize":
            body = line.split(":", 1)[1]
            objective, obj_const = parse_terms(body)
        elif section == "Subject To":
            name, body = line.split(":", 1)
            match = re.match(r"(.*?)(<=|>=|=)\s*([-\d./e+]+)$", body.strip())
            assert match, body
            terms, const = parse_terms(match.group(1))
            assert const == 0.0
            constraints.append((name.strip(), terms, match.group(2),
                                float(match.group(3))))
        elif section == "Bounds":
            lo, var, hi = re.match(r"([-\d.e+]+) <= (\S+) <= ([-\d.e+]+)", line).groups()
            bounds[var] = (float(lo), float(hi))
        elif section == "Binary":
            binaries.add(line)
    return objective, obj_const, constraints, bounds, binaries


class TestLpFormat:
    def test_deterministic_bytes(self):
        inst = two_item_instance()
        assert lp_string(build_model(inst)) == lp_string(build_model(inst))

    def test_constraint_row_count_matches_counts(self):
        inst = two_item_instance()
        text = lp_string(build_model(inst))
        counts = count_model(inst)
        _, _, constraints, _, _ = parse_lp(text)
        assert len(constraints) == counts.total_constraints == 15

    def test_quadratic_bracket_syntax(self):
        inst = two_item_instance(n=2)
        text = lp_string(build_model(inst))
        assert "[ " in text and " ]" in text
        assert re.search(r"\[ [^]]*u_0_1 \* u_0_2[^]]*\]|\[ [^]]*\*[^]]*\]", text)

    def test_sections_present(self):
        text = lp_string(build_model(two_item_instance()))
        for section in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            assert section in text

    def test_single_cube_has_boundary_rows_only(self):
        inst = Instance(items=(Item(0, 2, 2, 2, 1, 0),), bin=BinSpec(3, 3, 3, n=1))
        text = lp_string(build_model(inst))
        _, _, constraints, bounds, binaries = parse_lp(text)
        assert [name for name, *_ in constraints] == [
            "boundary_x_0_1", "boundary_y_0_1", "boundary_z_0_1"]
        assert set(bounds) == {"x_0", "y_0", "z_0"}
        assert binaries == set()

    def test_empty_constraint_model(self):
        model = build_model(
            Instance(items=(Item(0, 2, 2, 2, 1, 0),), bin=BinSpec(3, 3, 3, n=1)))
        model.constraints.clear()
        text = lp_string(model)
        assert "Subject To\nBounds" in text  # header + objective + bounds only
        assert "Binary" not in text


class TestMilpRoundTrip:
    def test_external_solver_matches_oracle(self):
        inst = two_item_instance()
        model = build_model(inst)
        text = lp_string(model)
        objective, obj_const, constraints, bounds, binaries = parse_lp(text)

        variables = sorted(set(objective) | set(bounds) | set(binaries)
                           | {v for _, terms, _, _ in constraints for v in terms})
        index = {v: i for i, v in enumerate(variables)}
        c = np.zeros(len(variables))
        for var, coef in objective.items():
            c[index[var]] = coef
        lin_cons = []
        for _, terms, sense, rhs in constraints:
            row = np.zeros(len(variables))
            for var, coef in terms.items():
                row[index[var]] = coef
            if sense == "<=":
                lin_cons.append(LinearConstraint(row, -np.inf, rhs))
            elif sense == ">=":
                lin_cons.append(LinearConstraint(row, rhs, np.inf))
            else:
                lin_cons.append(LinearConstraint(row, rhs, rhs))
        lb = np.zeros(len(variables))
        ub = np.ones(len(variables))
        integrality = np.zeros(len(variables))
        for var in variables:
            if var in binaries:
                integrality[index[var]] = 1
            else:
                lb[index[var]], ub[index[var]] = bounds[var]
        res = milp(c=c, constraints=lin_cons,
                   bounds=Bounds(lb, ub), integrality=integrality)
        assert res.success
        oracle = solve_oracle(inst)
        assert math.isclose(res.fun + obj_const, float(oracle.energy), abs_tol=1e-9)


class TestLpGolden:
    """The compiler's output, pinned byte for byte: one sha256 over the LP
    text, the closed-form counts and the audit of both reductions variants
    on seeded random instances (one to eight items, one to three bins, any
    subset of FEATURES), then of the reduced model of archetype 12."""

    DIGEST = "561e3dc6e2fc4a8b7d2f9bc60e200f28c002606055d9b611f54bd296b714110f"

    def test_output_pinned(self):
        rng = random.Random(20261024)
        cases = [(random_instance(rng, [f for f in FEATURES if rng.random() < 0.5]), r)
                 for _ in range(40) for r in (True, False)]
        cases.append((archetype(12, seed=0), True))
        h = hashlib.sha256()
        for inst, reductions in cases:
            model = build_model(inst, reductions=reductions)
            for text in (lp_string(model), repr(count_model(inst, reductions=reductions)),
                         repr(audit_counts(model))):
                h.update(text.encode())
        assert h.hexdigest() == self.DIGEST
