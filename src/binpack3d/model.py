"""Compile an instance into an explicit constrained quadratic model.

The model follows the big-M mixed formulation exactly as printed: binary
bin-use variables v_j, assignment variables u_{i,j}, orientation variables
r_{i,k} over the non-redundant sets, pairwise relative-position variables
b_{i,k,q}, and continuous corner coordinates. Quadratic terms appear only in
constraints (u*u in the non-overlap rows, v*u in bin activation, u*u in the
affinity equality); the objective is linear in the variables.

Three reductions are applied when ``reductions=True`` (the default):

* cube items contribute no orientation variables (their effective dims are
  constants),
* every item pair joined by a negative affinity loses its six b variables,
  its position-uniqueness row and its 6n non-overlap rows (they are
  pre-satisfied because the pair can never share a bin),
* avoid triples fix single b variables to 0 and drop their non-overlap
  rows; favour pairs fix all six b variables and keep only the favoured
  row per bin.

With ``reductions=False`` every variable exists and the avoid/favour
preferences are enforced through explicit ``relpos_fix`` equality rows
instead, which is useful for reduction-soundness testing.

All coefficients, bounds and evaluations are exact rationals. Each row and
objective term is stored once, as integers over a positive scale (the lcm
of its denominators), and one integer kernel evaluates it: ``evaluate`` and
``objective_breakdown`` put the assignment over one common denominator, the
annealer's integer states go through ``energy_terms``. Variable tags are
private to this module and the LP writer; other code uses ``VariableIndex``.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .core import (
    ALL_RELPOS,
    RELPOS,
    Instance,
    PackingSolution,
    allowed_orientations,
    effective_dims,
    kappa,
    nonredundant_orientations,
    relpos_masks,
    separation_mask,
)

Number = Union[int, Fraction]


class Sense(enum.Enum):
    LE = "<="
    EQ = "="
    GE = ">="


@dataclass(frozen=True)
class VariableRef:
    id: int
    tag: str
    binary: bool
    lower: Fraction
    upper: Fraction


class QuadExpr(NamedTuple):
    """(constant + sum(c_i * x_i) + sum(c_ab * x_a * x_b)) / scale, with
    integer coefficients, none zero, and quadratic keys a <= b."""

    linear: tuple[tuple[int, int], ...]
    quad: tuple[tuple[int, int, int], ...]
    constant: int
    scale: int

    @property
    def is_quadratic(self) -> bool:
        return bool(self.quad)


class Constraint(NamedTuple):
    """expr <sense> rhs, with rhs an integer over the scale of expr (whose
    constant is always 0: build_model moves it into rhs)."""

    label: str
    expr: QuadExpr
    sense: Sense
    rhs: int


class _Terms:
    """Build-time accumulator of exact terms, compiled once into a QuadExpr."""

    __slots__ = ("constant", "linear", "quad")

    def __init__(self) -> None:
        self.constant: Fraction = Fraction(0)
        self.linear: dict[int, Fraction] = {}
        self.quad: dict[tuple[int, int], Fraction] = {}

    def add_linear(self, var: int, c: Number) -> None:
        self.linear[var] = self.linear.get(var, Fraction(0)) + Fraction(c)

    def add_quad(self, a: int, b: int, c: Number) -> None:
        key = (a, b) if a <= b else (b, a)
        self.quad[key] = self.quad.get(key, Fraction(0)) + Fraction(c)

    def compile(self, rhs: Fraction = Fraction(0)) -> tuple[QuadExpr, int]:
        """The integer form, scaled by the lcm of every denominator (rhs's
        too), and rhs over the same scale. Zero terms are dropped."""
        linear = [(v, c) for v, c in self.linear.items() if c]
        quad = [(a, b, c) for (a, b), c in self.quad.items() if c]
        scale = math.lcm(self.constant.denominator, rhs.denominator,
                         *(c.denominator for _, c in linear),
                         *(c.denominator for _, _, c in quad))

        def scaled(c: Fraction) -> int:
            return c.numerator * (scale // c.denominator)

        return QuadExpr(tuple((v, scaled(c)) for v, c in linear),
                        tuple((a, b, scaled(c)) for a, b, c in quad),
                        scaled(self.constant), scale), scaled(rhs)


@dataclass
class VariableIndex:
    """Variable ids by family, filled as build_model adds the variables:
    v[j-1], u[i][j-1], r[i][k], b[(i, k)][q], x[i], y[i], z[i], xt[i] and
    yt[i]. r holds only items with orientation variables and b only pairs
    with relative-position variables, both in id order."""

    v: list[int] = field(default_factory=list)
    u: list[list[int]] = field(default_factory=list)
    r: dict[int, dict[int, int]] = field(default_factory=dict)
    b: dict[tuple[int, int], dict[int, int]] = field(default_factory=dict)
    x: list[int] = field(default_factory=list)
    y: list[int] = field(default_factory=list)
    z: list[int] = field(default_factory=list)
    xt: list[int] = field(default_factory=list)
    yt: list[int] = field(default_factory=list)


@dataclass
class QuadraticModel:
    variables: list[VariableRef]
    objective: QuadExpr
    objective_terms: dict[str, QuadExpr]
    constraints: list[Constraint]
    weights: tuple[Fraction, Fraction, Fraction]
    m: int
    n: int
    index: VariableIndex = field(default_factory=VariableIndex)
    row_scale: int = 1  # lcm of the rows' scales: a common unit for violations


@dataclass(frozen=True)
class ModelCounts:
    """Closed-form model size. The mandatory/optional split follows the
    size tables (optional deltas are signed); totals are what an audit of a
    built model reproduces."""

    binary_mandatory: int
    binary_optional: int
    continuous_mandatory: int
    continuous_optional: int
    quadratic_mandatory: int
    quadratic_optional: int
    linear_mandatory: int
    linear_optional: int

    @property
    def binary(self) -> int:
        return self.binary_mandatory + self.binary_optional

    @property
    def continuous(self) -> int:
        return self.continuous_mandatory + self.continuous_optional

    @property
    def quadratic_constraints(self) -> int:
        return self.quadratic_mandatory + self.quadratic_optional

    @property
    def linear_constraints(self) -> int:
        return self.linear_mandatory + self.linear_optional

    @property
    def variables(self) -> int:
        return self.binary + self.continuous

    @property
    def total_constraints(self) -> int:
        return self.quadratic_constraints + self.linear_constraints

    def as_dict(self) -> dict[str, int]:
        return {
            "binary": self.binary,
            "continuous": self.continuous,
            "quadratic_constraints": self.quadratic_constraints,
            "linear_constraints": self.linear_constraints,
        }


# ---------------------------------------------------------------------------
# reduction planning (shared by build_model / count_model / encode_solution)

def _bits(mask: int) -> tuple[int, ...]:
    """The positions q whose bit is set in mask, ascending."""
    return tuple(q for q in RELPOS if mask >> q & 1)


@dataclass(frozen=True)
class _Plan:
    eliminated_pairs: frozenset[tuple[int, int]]
    # relpos_masks less the eliminated pairs; empty without reductions
    relpos: dict[tuple[int, int], tuple[int, int]]
    neg_item_pairs: tuple[tuple[int, int], ...]
    pos_item_pairs: tuple[tuple[int, int], ...]

    def b_free(self, pair: tuple[int, int]) -> tuple[int, ...]:
        """The pair's b variables: none when eliminated or favoured (all six
        fixed), else the positions not avoided."""
        if pair in self.eliminated_pairs:
            return ()
        allowed, required = self.relpos.get(pair, (ALL_RELPOS, 0))
        return () if required else _bits(allowed)

    def kept_rows(self, pair: tuple[int, int]) -> tuple[int, ...]:
        """The pair's non-overlap positions: the favoured one, else those
        not avoided."""
        if pair in self.eliminated_pairs:
            return ()
        allowed, required = self.relpos.get(pair, (ALL_RELPOS, 0))
        return _bits(required or allowed)


def _category_item_pairs(instance: Instance,
                         cat_pairs: frozenset[tuple[int, int]]) -> list[tuple[int, int]]:
    out = set()
    for a, b in cat_pairs:
        ia = [it.index for it in instance.items if it.category == a]
        ib = [it.index for it in instance.items if it.category == b]
        for i in ia:
            for k in ib:
                if i != k:
                    out.add((min(i, k), max(i, k)))
    return sorted(out)


def _plan(instance: Instance, reductions: bool,
          table: Optional[dict[tuple[int, int], tuple[int, int]]] = None) -> _Plan:
    """The reduction plan; table is relpos_masks(instance) when the caller
    has already built it."""
    neg_item_pairs = tuple(_category_item_pairs(instance, instance.affinities.negative))
    pos_item_pairs = tuple(_category_item_pairs(instance, instance.affinities.positive))
    if not reductions:
        return _Plan(frozenset(), {}, neg_item_pairs, pos_item_pairs)
    eliminated = frozenset(neg_item_pairs) if instance.n >= 2 else frozenset()
    if table is None:
        table = relpos_masks(instance)
    relpos = {pair: masks for pair, masks in table.items() if pair not in eliminated}
    return _Plan(eliminated, relpos, neg_item_pairs, pos_item_pairs)


# ---------------------------------------------------------------------------
# building

def _big_m(q: int, instance: Instance) -> int:
    if q in (1, 4):
        return instance.bin.n * instance.bin.L
    if q in (2, 5):
        return instance.bin.W
    return instance.bin.H


def build_model(instance: Instance,
                weights: tuple[Number, Number, Number] = (1, 1, 1),
                *, reductions: bool = True) -> QuadraticModel:
    """Compile the instance."""
    plan = _plan(instance, reductions)
    n, m = instance.n, instance.m
    L, W, H = instance.bin.L, instance.bin.W, instance.bin.H
    w1, w2, w3 = (Fraction(w) for w in weights)
    has_com = instance.com_target is not None

    variables: list[VariableRef] = []
    idx = VariableIndex()

    def add_var(tag: str, binary: bool, lower: Number, upper: Number) -> int:
        vid = len(variables)
        variables.append(VariableRef(vid, tag, binary, Fraction(lower), Fraction(upper)))
        return vid

    if n >= 2:
        idx.v = [add_var(f"v_{j}", True, 0, 1) for j in range(1, n + 1)]
        idx.u = [[add_var(f"u_{i}_{j}", True, 0, 1) for j in range(1, n + 1)]
                 for i in range(m)]
    for item in instance.items:
        ks = sorted(nonredundant_orientations(item))
        if ks:
            idx.r[item.index] = {k: add_var(f"r_{item.index}_{k}", True, 0, 1) for k in ks}
    pairs = [(i, k) for i in range(m) for k in range(i + 1, m)]
    for i, k in pairs:
        qs = plan.b_free((i, k))
        if qs:
            idx.b[(i, k)] = {q: add_var(f"b_{i}_{k}_{q}", True, 0, 1) for q in qs}
    idx.x = [add_var(f"x_{i}", False, 0, n * L) for i in range(m)]
    idx.y = [add_var(f"y_{i}", False, 0, W) for i in range(m)]
    idx.z = [add_var(f"z_{i}", False, 0, H) for i in range(m)]
    if has_com:
        lt, wt = instance.com_target
        idx.xt = [add_var(f"xt_{i}", False, 0, max(lt, L - lt)) for i in range(m)]
        idx.yt = [add_var(f"yt_{i}", False, 0, max(wt, W - wt)) for i in range(m)]
    coords = (idx.x, idx.y, idx.z)

    def add_eff(terms: _Terms, item, axis: int, scale: Number = 1) -> None:
        """scale times the item's effective dim along axis: a constant for a
        cube, else one term per orientation variable."""
        if item.index not in idx.r:
            terms.constant += effective_dims(item, 1)[axis] * Fraction(scale)
            return
        for k, vid in idx.r[item.index].items():
            terms.add_linear(vid, effective_dims(item, k)[axis] * Fraction(scale))

    # objective terms
    term_sums: dict[str, _Terms] = {}
    if n >= 2:
        o1 = term_sums["o1"] = _Terms()
        for vid in idx.v:
            o1.add_linear(vid, 1)
    o2 = term_sums["o2"] = _Terms()
    for item in instance.items:
        o2.add_linear(idx.z[item.index], Fraction(1, m * H))
        add_eff(o2, item, 2, Fraction(1, m * H))
    if has_com:
        o3 = term_sums["o3"] = _Terms()
        for vid in idx.xt:
            o3.add_linear(vid, Fraction(1, m * L))
        for vid in idx.yt:
            o3.add_linear(vid, Fraction(1, m * W))

    objective = _Terms()
    for name, wgt in (("o1", w1), ("o2", w2), ("o3", w3)):
        if name in term_sums:
            term = term_sums[name]
            objective.constant += term.constant * wgt
            for vid, c in term.linear.items():
                objective.add_linear(vid, c * wgt)

    constraints: list[Constraint] = []

    def add_constraint(label: str, terms: _Terms, sense: Sense, rhs: Number) -> None:
        rhs = Fraction(rhs) - terms.constant
        terms.constant = Fraction(0)
        expr, scaled_rhs = terms.compile(rhs)
        constraints.append(Constraint(label, expr, sense, scaled_rhs))

    # orientation uniqueness, one row per non-cube item
    for i, ks in idx.r.items():
        terms = _Terms()
        for vid in ks.values():
            terms.add_linear(vid, 1)
        add_constraint(f"orientation_{i}", terms, Sense.EQ, 1)

    # pairwise non-overlap, big-M deactivated unless both items share bin j
    for i, k in pairs:
        b_vars = idx.b.get((i, k))
        for q in plan.kept_rows((i, k)):
            big = _big_m(q, instance)
            for j in range(1, n + 1):
                terms = _Terms()
                if n >= 2:
                    terms.add_quad(idx.u[i][j - 1], idx.u[k][j - 1], big)
                else:
                    terms.constant += big
                if b_vars is None:  # favoured: its b is fixed to 1
                    terms.constant += big
                else:
                    terms.add_linear(b_vars[q], big)
                axis = {1: 0, 4: 0, 2: 1, 5: 1, 3: 2, 6: 2}[q]
                front, back = ((i, k) if q in (1, 2, 3) else (k, i))
                terms.add_linear(coords[axis][front], 1)
                add_eff(terms, instance.items[front], axis, 1)
                terms.add_linear(coords[axis][back], -1)
                add_constraint(f"nonoverlap_{i}_{k}_{q}_{j}", terms, Sense.LE, 2 * big)
        if b_vars is not None:
            terms = _Terms()
            for vid in b_vars.values():
                terms.add_linear(vid, 1)
            add_constraint(f"relpos_unique_{i}_{k}", terms, Sense.EQ, 1)

    if n >= 2:
        for i in range(m):
            terms = _Terms()
            for vid in idx.u[i]:
                terms.add_linear(vid, 1)
            add_constraint(f"one_bin_{i}", terms, Sense.EQ, 1)
        for j in range(1, n + 1):
            terms = _Terms()
            for i in range(m):
                terms.add_linear(idx.u[i][j - 1], 1)
                terms.add_quad(idx.v[j - 1], idx.u[i][j - 1], -1)
            add_constraint(f"bin_activation_{j}", terms, Sense.LE, 0)
        for j in range(1, n):
            terms = _Terms()
            terms.add_linear(idx.v[j - 1], 1)
            terms.add_linear(idx.v[j], -1)
            add_constraint(f"sequential_bins_{j}", terms, Sense.GE, 0)

    # bin boundaries
    for item in instance.items:
        i = item.index
        for j in range(1, n + 1):
            terms = _Terms()
            terms.add_linear(idx.x[i], 1)
            add_eff(terms, item, 0, 1)
            if n >= 2:
                terms.add_linear(idx.u[i][j - 1], n * L)
                add_constraint(f"boundary_x_{i}_{j}", terms, Sense.LE, j * L + n * L)
            else:
                add_constraint(f"boundary_x_{i}_{j}", terms, Sense.LE, L)
        if n >= 2:
            for j in range(2, n + 1):
                terms = _Terms()
                terms.add_linear(idx.x[i], 1)
                terms.add_linear(idx.u[i][j - 1], -(j - 1) * L)
                add_constraint(f"boundary_xlo_{i}_{j}", terms, Sense.GE, 0)
        for j in range(1, n + 1):
            terms = _Terms()
            terms.add_linear(idx.y[i], 1)
            add_eff(terms, item, 1, 1)
            if n >= 2:
                terms.add_linear(idx.u[i][j - 1], W)
                add_constraint(f"boundary_y_{i}_{j}", terms, Sense.LE, 2 * W)
            else:
                add_constraint(f"boundary_y_{i}_{j}", terms, Sense.LE, W)
        for j in range(1, n + 1):
            terms = _Terms()
            terms.add_linear(idx.z[i], 1)
            add_eff(terms, item, 2, 1)
            if n >= 2:
                terms.add_linear(idx.u[i][j - 1], H)
                add_constraint(f"boundary_z_{i}_{j}", terms, Sense.LE, 2 * H)
            else:
                add_constraint(f"boundary_z_{i}_{j}", terms, Sense.LE, H)

    # optional rows exist only when bins are selectable (the n=1 size tables
    # carry no overweight/affinity rows: with a single bin they are constants)
    if n >= 2:
        if instance.bin.max_weight is not None:
            for j in range(1, n + 1):
                terms = _Terms()
                for item in instance.items:
                    terms.add_linear(idx.u[item.index][j - 1], item.mu)
                add_constraint(f"overweight_{j}", terms, Sense.LE, instance.bin.max_weight)
        neg_pairs, pos_pairs = plan.neg_item_pairs, plan.pos_item_pairs
        if neg_pairs or pos_pairs:
            terms = _Terms()
            for i, k in neg_pairs:
                for j in range(n):
                    terms.add_quad(idx.u[i][j], idx.u[k][j], 1)
            for i, k in pos_pairs:
                for j in range(n):
                    terms.add_quad(idx.u[i][j], idx.u[k][j], -1)
            if neg_pairs and pos_pairs:
                label = "affinity_combined"
            elif neg_pairs:
                label = "affinity_negative"
            else:
                label = "affinity_positive"
            add_constraint(label, terms, Sense.EQ, -len(pos_pairs))

    if has_com:
        lt, wt = instance.com_target
        for item in instance.items:
            i = item.index
            for sign, suffix in ((1, "plus"), (-1, "minus")):
                terms = _Terms()
                terms.add_linear(idx.x[i], sign)
                add_eff(terms, item, 0, Fraction(sign, 2))
                if n >= 2:
                    for j in range(2, n + 1):
                        terms.add_linear(idx.u[i][j - 1], -sign * (j - 1) * L)
                terms.add_linear(idx.xt[i], -1)
                add_constraint(f"loadbal_x_{suffix}_{i}", terms, Sense.LE, sign * lt)
            for sign, suffix in ((1, "plus"), (-1, "minus")):
                terms = _Terms()
                terms.add_linear(idx.y[i], sign)
                add_eff(terms, item, 1, Fraction(sign, 2))
                terms.add_linear(idx.yt[i], -1)
                add_constraint(f"loadbal_y_{suffix}_{i}", terms, Sense.LE, sign * wt)

    if not reductions:
        # the favoured pairs' six rows first, then the avoided positions
        table = sorted(relpos_masks(instance).items())
        fixes = [(pair, required, RELPOS) for pair, (_, required) in table if required]
        fixes += [(pair, 0, _bits(ALL_RELPOS & ~allowed))
                  for pair, (allowed, required) in table if not required]
        for (i, k), ones, qs in fixes:
            for q in qs:
                terms = _Terms()
                terms.add_linear(idx.b[(i, k)][q], 1)
                add_constraint(f"relpos_fix_{i}_{k}_{q}", terms, Sense.EQ, ones >> q & 1)

    return QuadraticModel(
        variables=variables,
        objective=objective.compile()[0],
        objective_terms={name: t.compile()[0] for name, t in term_sums.items()},
        constraints=constraints,
        weights=(w1, w2, w3),
        m=m,
        n=n,
        index=idx,
        row_scale=math.lcm(*(con.expr.scale for con in constraints)),
    )


# ---------------------------------------------------------------------------
# closed-form counting

def count_model(instance: Instance, *, reductions: bool = True) -> ModelCounts:
    """Evaluate the size tables without building the model."""
    plan = _plan(instance, reductions)
    n, m = instance.n, instance.m
    c2 = m * (m - 1) // 2
    kap = kappa(instance)
    ic = sum(1 for it in instance.items if not nonredundant_orientations(it))
    has_m = instance.bin.max_weight is not None
    has_com = instance.com_target is not None
    has_aff = bool(plan.neg_item_pairs or plan.pos_item_pairs)

    p_minus = sum((ALL_RELPOS & ~allowed).bit_count() for allowed, _ in plan.relpos.values())
    p_plus = sum(1 for _, required in plan.relpos.values() if required)
    negelim = len(plan.eliminated_pairs)

    binary_mand = 6 * c2 + kap + (n * (m + 1) if n >= 2 else 0)
    binary_opt = -(p_minus + 6 * p_plus) - 6 * negelim
    cont_mand = 3 * m
    cont_opt = 2 * m if has_com else 0

    if n == 1:
        quad_mand = 0
        quad_opt = 0
        lin_mand = 7 * c2 + 4 * m - ic
        lin_opt = (4 * m if has_com else 0) - (p_minus + 6 * p_plus)
    else:
        quad_mand = 6 * n * c2 + n
        quad_opt = (1 if has_aff else 0) - n * (p_minus + 5 * p_plus) - 6 * n * negelim
        lin_mand = c2 + n * (4 * m + 1) + m - 1 - ic
        lin_opt = ((n if has_m else 0) + (4 * m if has_com else 0)
                   - p_plus - negelim)

    if not reductions:
        # explicit fix rows instead of eliminations
        lin_opt += len(instance.relpos_avoid) + 6 * len(instance.relpos_favour)

    return ModelCounts(binary_mand, binary_opt, cont_mand, cont_opt,
                       quad_mand, quad_opt, lin_mand, lin_opt)


def audit_counts(model: QuadraticModel) -> ModelCounts:
    """Census of an already-built model. The mandatory/optional split here is
    by family (optional: xt/yt variables; overweight/affinity/loadbal/
    relpos_fix constraints); totals are directly comparable to count_model."""
    bin_mand = sum(1 for v in model.variables if v.binary)
    cont_opt = len(model.index.xt) + len(model.index.yt)
    cont_mand = sum(1 for v in model.variables if not v.binary) - cont_opt
    optional_families = ("overweight", "affinity", "loadbal", "relpos_fix")
    quad_mand = quad_opt = lin_mand = lin_opt = 0
    for con in model.constraints:
        opt = con.label.startswith(optional_families)
        if con.expr.is_quadratic:
            quad_mand, quad_opt = quad_mand + (not opt), quad_opt + opt
        else:
            lin_mand, lin_opt = lin_mand + (not opt), lin_opt + opt
    return ModelCounts(bin_mand, 0, cont_mand, cont_opt,
                       quad_mand, quad_opt, lin_mand, lin_opt)


# ---------------------------------------------------------------------------
# evaluation / encoding: one integer kernel for every caller

Assignment = Mapping[str, Number]


def _scaled_value(expr: QuadExpr, nums: Sequence[int], d: int) -> int:
    """d*d*expr.scale times the value of expr at the values nums[id] / d."""
    total = expr.constant * d
    for vid, c in expr.linear:
        total += c * nums[vid]
    total *= d
    for a, b, c in expr.quad:
        total += c * nums[a] * nums[b]
    return total


def _row_gaps(model: QuadraticModel, nums: Sequence[int], d: int) -> list[int]:
    """How far each row misses at the values nums[id] / d, in model order:
    0 when it holds, else a positive integer in units of 1 / (d*d*row_scale).
    The arithmetic of _scaled_value, inlined over all rows for speed (a
    row's constant is always 0)."""
    dd, common = d * d, model.row_scale
    GE, EQ = Sense.GE, Sense.EQ
    gaps = []
    for _, (linear, quad, _, scale), sense, rhs in model.constraints:
        total = 0
        for vid, c in linear:
            total += c * nums[vid]
        total *= d
        for a, b, c in quad:
            total += c * nums[a] * nums[b]
        gap = total - rhs * dd
        if sense is GE:
            gap = -gap
        elif sense is EQ:
            gap = abs(gap)
        gaps.append(gap * (common // scale) if gap > 0 else 0)
    return gaps


def energy_terms(model: QuadraticModel, nums: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Exact objective and sum of squared row violations at an assignment of
    integers, indexed by variable id."""
    gaps = _row_gaps(model, nums, 1)
    obj = model.objective
    return (Fraction(_scaled_value(obj, nums, 1), obj.scale),
            Fraction(sum(map(operator.mul, gaps, gaps)), model.row_scale ** 2))


def _values_vector(model: QuadraticModel,
                   assignment: Assignment) -> tuple[list[Fraction], list[int], int]:
    """The assignment in id order, and as numerators nums over one common
    denominator d."""
    values: list[Fraction] = []
    for var in model.variables:
        if var.tag not in assignment:
            raise ValueError(f"assignment is missing variable {var.tag}")
        values.append(Fraction(assignment[var.tag]))
    d = math.lcm(*(v.denominator for v in values))
    return values, [v.numerator * (d // v.denominator) for v in values], d


def _value(expr: QuadExpr, nums: Sequence[int], d: int) -> Fraction:
    return Fraction(_scaled_value(expr, nums, d), d * d * expr.scale)


def evaluate(model: QuadraticModel, assignment: Assignment
             ) -> tuple[Fraction, list[tuple[str, Fraction]]]:
    """Exact objective value and all violated bounds and constraints with
    magnitudes."""
    values, nums, d = _values_vector(model, assignment)
    violations: list[tuple[str, Fraction]] = []
    for var, val in zip(model.variables, values):
        if var.binary and val not in (0, 1):
            excess = max(var.lower - val, val - var.upper, min(abs(val), abs(val - 1)))
        elif var.lower <= val <= var.upper:
            continue
        else:
            excess = max(var.lower - val, val - var.upper)
        violations.append((f"bound_{var.tag}", excess))
    for con, gap in zip(model.constraints, _row_gaps(model, nums, d)):
        if gap:
            violations.append((con.label, Fraction(gap, d * d * model.row_scale)))
    return _value(model.objective, nums, d), violations


def objective_breakdown(model: QuadraticModel, assignment: Assignment) -> dict[str, Fraction]:
    _, nums, d = _values_vector(model, assignment)
    return {name: _value(term, nums, d) for name, term in model.objective_terms.items()}


def encode_solution(instance: Instance, solution: PackingSolution, *,
                    reductions: bool = True) -> dict[str, Fraction]:
    """Assignment for every model variable realized by the given placements.

    Relative positions pick the smallest axis separation consistent with the
    geometry (any q is valid for pairs in different bins, so q=1 wins there).
    Raises ValueError when two placed boxes sharing a bin admit no separating
    axis (overlap) or an orientation is not in the item's non-redundant set.
    """
    relpos = relpos_masks(instance)
    plan = _plan(instance, reductions, relpos)
    n, m = instance.n, instance.m
    L = instance.bin.L
    by_item: dict[int, object] = {}
    for p in solution.placements:
        if p.item in by_item:
            raise ValueError(f"item {p.item} placed twice")
        by_item[p.item] = p
    if sorted(by_item) != list(range(m)):
        raise ValueError("solution must place every item exactly once")

    out: dict[str, Fraction] = {}
    used_bins = {p.bin for p in solution.placements}
    if n >= 2:
        for j in range(1, n + 1):
            out[f"v_{j}"] = Fraction(1 if j in used_bins else 0)
        for i in range(m):
            for j in range(1, n + 1):
                out[f"u_{i}_{j}"] = Fraction(1 if by_item[i].bin == j else 0)

    for item in instance.items:
        p = by_item[item.index]
        ks = sorted(nonredundant_orientations(item))
        if p.k not in allowed_orientations(item):
            raise ValueError(
                f"item {item.index}: orientation {p.k} outside the non-redundant set")
        for k in ks:
            out[f"r_{item.index}_{k}"] = Fraction(1 if k == p.k else 0)

    dims = {i: effective_dims(instance.items[i], by_item[i].k) for i in range(m)}
    for i in range(m):
        p = by_item[i]
        out[f"x_{i}"] = Fraction(p.x)
        out[f"y_{i}"] = Fraction(p.y)
        out[f"z_{i}"] = Fraction(p.z)

    # the relative-position choice follows the avoid and favour triples in
    # both variants, eliminated pairs included (a favoured pair takes its
    # position; an avoided one is taken only when no other is valid), so an
    # assignment is violation-free in the reduced model iff it is in the
    # explicit-row one
    for i in range(m):
        for k in range(i + 1, m):
            pair = (i, k)
            emit = plan.b_free(pair)
            if not emit:
                continue
            pi, pk = by_item[i], by_item[k]
            valid = (ALL_RELPOS if pi.bin != pk.bin
                     else separation_mask(pi.corner, dims[i], pk.corner, dims[k]))
            if not valid:
                raise ValueError(f"items {i} and {k} overlap in bin {pi.bin}")
            allowed, required = relpos.get(pair, (ALL_RELPOS, 0))
            pick = required or valid & allowed or allowed
            chosen = (pick & -pick).bit_length() - 1  # the lowest q in pick
            for q in emit:
                out[f"b_{i}_{k}_{q}"] = Fraction(1 if q == chosen else 0)

    if instance.com_target is not None:
        lt, wt = instance.com_target
        for i in range(m):
            p = by_item[i]
            cx = (Fraction(p.x) + Fraction(dims[i][0], 2)) % L
            out[f"xt_{i}"] = abs(cx - lt)
            out[f"yt_{i}"] = abs(Fraction(p.y) + Fraction(dims[i][1], 2) - wt)
    return out
