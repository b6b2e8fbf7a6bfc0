"""LP-format export of a compiled model.

Variable names are the structured tags; each coefficient is printed from
its row's integer form as c / scale, an integer when exact and else the
nearest float. The objective is linear (the model puts quadratics only in
constraints), quadratic constraint terms use the bracketed `[ c a * b ]`
syntax. Output is byte-deterministic: terms sorted by tag, constraints in
model order, bounds and binaries sorted by tag.

Two liberties vs. strict CPLEX-LP, noted for consumers: quadratic equality
rows keep `=` (strict LP allows only <=/>= there), and a nonzero objective
constant is written as a literal leading term.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .model import QuadExpr, QuadraticModel, Sense


def _num(c: int, scale: int = 1) -> str:
    """c / scale: an integer when it is one, else the nearest float."""
    if c % scale == 0:
        return str(c // scale)
    return repr(c / scale)


def _join(pieces: list[tuple[str, bool]]) -> str:
    out = []
    for idx, (text, negative) in enumerate(pieces):
        prefix = "- " if negative else ("" if idx == 0 else "+ ")
        out.append(prefix + text)
    return " ".join(out)


def _terms(model: QuadraticModel, expr: QuadExpr) -> str:
    s = expr.scale
    pieces: list[tuple[str, bool]] = []
    if expr.constant != 0:
        pieces.append((_num(abs(expr.constant), s), expr.constant < 0))
    for tag, c in sorted((model.variables[v].tag, c) for v, c in expr.linear):
        pieces.append((f"{_num(abs(c), s)} {tag}", c < 0))
    quad = sorted(
        (model.variables[a].tag, model.variables[b].tag, c)
        for a, b, c in expr.quad
    )
    if quad:
        inner = _join([(f"{_num(abs(c), s)} {ta} * {tb}", c < 0) for ta, tb, c in quad])
        pieces.append((f"[ {inner} ]", False))
    return _join(pieces) if pieces else "0"


def lp_string(model: QuadraticModel) -> str:
    lines = ["Minimize", f" obj: {_terms(model, model.objective)}", "Subject To"]
    for con in model.constraints:
        sense = {Sense.LE: "<=", Sense.EQ: "=", Sense.GE: ">="}[con.sense]
        rhs = _num(con.rhs, con.expr.scale)
        lines.append(f" {con.label}: {_terms(model, con.expr)} {sense} {rhs}")
    lines.append("Bounds")
    for var in sorted(model.variables, key=lambda v: v.tag):
        if not var.binary:
            lower = _num(*var.lower.as_integer_ratio())
            upper = _num(*var.upper.as_integer_ratio())
            lines.append(f" {lower} <= {var.tag} <= {upper}")
    binaries = sorted(v.tag for v in model.variables if v.binary)
    if binaries:
        lines.append("Binary")
        for tag in binaries:
            lines.append(f" {tag}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_lp(model: QuadraticModel, path: Union[str, Path]) -> None:
    Path(path).write_text(lp_string(model), encoding="utf-8")
