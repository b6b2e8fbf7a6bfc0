"""Shared builders for randomized test instances."""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

from binpack3d import (
    Affinities,
    BinSpec,
    Instance,
    Item,
    PackingSolution,
    Placement,
    allowed_orientations,
    build_model,
    effective_dims,
    encode_solution,
    evaluate,
    load_bearing_avoid,
)
from binpack3d.model import QuadExpr, QuadraticModel, Sense
from binpack3d.validate import RELATIVE_POSITION, check

REPO = Path(__file__).resolve().parents[1]


def subprocess_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH, for
    tests that run the CLI or a script in a child process."""
    path = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


FEATURES = ("overweight", "negative", "positive", "eta", "com", "avoid", "favour")


def random_instance(rng: random.Random, features: Iterable[str] = (),
                    m: Optional[int] = None, n: Optional[int] = None) -> Instance:
    """Arbitrary small instance for counting tests; feasibility not required."""
    features = set(features)
    m = m if m is not None else rng.randint(1, 8)
    n = n if n is not None else rng.randint(1, 3)
    L, W, H = (rng.randint(4, 10) for _ in range(3))
    side = min(L, W, H)
    items = tuple(
        Item(index=i, l=rng.randint(1, side), w=rng.randint(1, side),
             h=rng.randint(1, side), mu=rng.randint(1, 9),
             category=rng.randrange(4))
        for i in range(m)
    )
    cats = sorted({it.category for it in items})
    neg = frozenset()
    pos = frozenset()
    if "negative" in features and len(cats) >= 2:
        neg = frozenset({tuple(sorted(rng.sample(cats, 2)))})
    if "positive" in features and len(cats) >= 2:
        for _ in range(20):
            cand = tuple(sorted(rng.sample(cats, 2)))
            if cand not in neg:
                pos = frozenset({cand})
                break
    max_weight = None
    if "overweight" in features:
        total = sum(it.mu for it in items)
        max_weight = max(max(it.mu for it in items), total // n + rng.randint(1, 5))
    eta = Fraction(rng.choice((2, 3)), 1) if "eta" in features else None
    com = None
    if "com" in features:
        com = (Fraction(rng.randint(0, L)), Fraction(rng.randint(0, W)))

    avoid: set[tuple[int, int, int]] = set()
    favour: set[tuple[int, int, int]] = set()
    pairs = [(i, k) for i in range(m) for k in range(i + 1, m)]
    if "favour" in features and pairs:
        for pair in rng.sample(pairs, min(len(pairs), 2)):
            favour.add((*pair, rng.randint(1, 6)))
    if "avoid" in features and pairs:
        taken = {(i, k) for i, k, _ in favour}
        free = [p for p in pairs if p not in taken]
        for pair in rng.sample(free, min(len(free), 2)):
            for q in rng.sample(range(1, 7), rng.randint(1, 3)):
                avoid.add((*pair, q))
    if eta is not None:
        # derived avoid triples may not collide with favoured pairs
        derived_pairs = {(i, k) for i, k, _ in load_bearing_avoid(items, eta)}
        favour = {t for t in favour if (t[0], t[1]) not in derived_pairs}

    return Instance(
        items=items,
        bin=BinSpec(L=L, W=W, H=H, max_weight=max_weight, n=n),
        affinities=Affinities(positive=pos, negative=neg),
        eta=eta,
        com_target=com,
        relpos_avoid=frozenset(avoid),
        relpos_favour=frozenset(favour),
    )


def solvable_instance(rng: random.Random, features: Iterable[str] = (),
                      m: Optional[int] = None) -> Instance:
    """Small instance that the heuristic can pack: loose bins and n >= 2.
    With "avoid" or "favour", up to two pairs avoid one to three positions
    and up to two other pairs each favour one position, none of them a pair
    with eta-derived triples."""
    features = set(features)
    m = m if m is not None else rng.randint(3, 7)
    L, W, H = (rng.randint(6, 8) for _ in range(3))
    n = rng.randint(2, 3)
    items = tuple(
        Item(index=i, l=rng.randint(1, 3), w=rng.randint(1, 3),
             h=rng.randint(1, 3), mu=rng.randint(1, 8),
             category=rng.randrange(4))
        for i in range(m)
    )
    cats = sorted({it.category for it in items})
    neg = frozenset()
    pos = frozenset()
    if "negative" in features and len(cats) >= 2:
        neg = frozenset({tuple(sorted(rng.sample(cats, 2)))})
    if "positive" in features and len(cats) >= 2:
        for _ in range(20):
            cand = tuple(sorted(rng.sample(cats, 2)))
            if cand not in neg:
                pos = frozenset({cand})
                break
    max_weight = None
    if "overweight" in features:
        total = sum(it.mu for it in items)
        max_weight = max(max(it.mu for it in items) + 2, (total * 2) // 3)
    eta = Fraction(2) if "eta" in features else None
    com = (Fraction(L, 2), Fraction(W, 2)) if "com" in features else None
    avoid: set[tuple[int, int, int]] = set()
    favour: set[tuple[int, int, int]] = set()
    if "avoid" in features or "favour" in features:
        taken = {(i, k) for i, k, _ in load_bearing_avoid(items, eta)} if eta else set()
        free = [(i, k) for i in range(m) for k in range(i + 1, m) if (i, k) not in taken]
        rng.shuffle(free)
        if "favour" in features:
            favour = {(i, k, rng.randint(1, 6)) for i, k in free[:2]}
        if "avoid" in features:
            avoid = {(i, k, q) for i, k in free[2:4]
                     for q in rng.sample(range(1, 7), rng.randint(1, 3))}
    return Instance(
        items=items,
        bin=BinSpec(L=L, W=W, H=H, max_weight=max_weight, n=n),
        affinities=Affinities(positive=pos, negative=neg),
        eta=eta,
        com_target=com,
        relpos_avoid=frozenset(avoid),
        relpos_favour=frozenset(favour),
    )


def oracle_instance(rng: random.Random, with_features: bool = True) -> Instance:
    """Within the exhaustive-search caps: m <= 4, bin volume <= 64, n <= 2.

    Draws are re-rolled while the total item volume exceeds 3/4 of the bin
    capacity, so nearly every instance admits a packing.
    """
    while True:
        m = rng.randint(2, 4)
        L, W = 4, 4
        H = rng.choice((3, 4))
        n = rng.randint(1, 2)
        items = tuple(
            Item(index=i, l=rng.randint(1, 3), w=rng.randint(1, 3),
                 h=rng.randint(1, min(3, H)), mu=rng.randint(1, 6),
                 category=rng.randrange(3))
            for i in range(m)
        )
        if sum(it.volume for it in items) <= (3 * n * L * W * H) // 4:
            break
    eta = None
    max_weight = None
    if with_features and rng.random() < 0.3:
        eta = Fraction(2)
    if with_features and n == 2 and rng.random() < 0.3:
        total = sum(it.mu for it in items)
        max_weight = max(max(it.mu for it in items), (total * 3) // 4 + 1)
    return Instance(items=items, bin=BinSpec(L=L, W=W, H=H, max_weight=max_weight, n=n),
                    eta=eta)


def featured_oracle_instance(rng: random.Random, max_items: int = 4,
                             max_volume: int = 64) -> Instance:
    """Two to max_items items in one or two bins of volume at most max_volume,
    with at random a weight cap, eta, a negative and a positive category
    pair, a CoM target, a favoured pair and an avoided one. Draws that
    Instance refuses (say, a favour that clashes with eta's avoid triples)
    are re-rolled."""
    while True:
        L, W, H = (rng.randint(1, 4) for _ in range(3))
        if not 2 <= L * W * H <= max_volume:
            continue
        n = rng.randint(1, 2)
        m = rng.randint(2, max_items)
        items = tuple(
            Item(index=i, l=rng.randint(1, 2), w=rng.randint(1, 2), h=rng.randint(1, 2),
                 mu=rng.randint(1, 6), category=rng.randrange(3))
            for i in range(m)
        )
        cats = sorted({it.category for it in items})
        max_weight = None
        if rng.random() < 0.4:
            total = sum(it.mu for it in items)
            max_weight = max(it.mu for it in items) + rng.randint(0, total)
        negative = positive = frozenset()
        if len(cats) >= 2 and rng.random() < 0.4:
            negative = frozenset({tuple(sorted(rng.sample(cats, 2)))})
        if len(cats) >= 2 and rng.random() < 0.4:
            positive = frozenset({tuple(sorted(rng.sample(cats, 2)))}) - negative
        eta = Fraction(rng.randint(3, 5), 2) if rng.random() < 0.4 else None
        com = None
        if rng.random() < 0.5:
            com = (Fraction(rng.randint(0, 2 * L), 2), Fraction(rng.randint(0, 3 * W), 3))
        pairs = [(i, k) for i in range(m) for k in range(i + 1, m)]
        rng.shuffle(pairs)
        favour = {(*pairs[0], rng.randint(1, 6))} if rng.random() < 0.3 else set()
        avoid = set()
        if len(pairs) >= 2 and rng.random() < 0.4:
            avoid = {(*pairs[1], q) for q in rng.sample(range(1, 7), rng.randint(1, 3))}
        try:
            return Instance(
                items=items,
                bin=BinSpec(L=L, W=W, H=H, max_weight=max_weight, n=n),
                affinities=Affinities(positive=positive, negative=negative),
                eta=eta,
                com_target=com,
                relpos_avoid=frozenset(avoid),
                relpos_favour=frozenset(favour),
            )
        except ValueError:
            continue


def enumerate_feasible(instance: Instance) -> list[PackingSolution]:
    """Every packing the validator accepts, its RelativePosition rule aside,
    by raw product enumeration.

    Deliberately brute force (no pruning shared with any solver); only usable
    for very small instances.
    """
    L, W, H = instance.bin.L, instance.bin.W, instance.bin.H
    options = []
    for it in instance.items:
        opts = []
        for j in range(1, instance.bin.n + 1):
            for k in sorted(allowed_orientations(it)):
                a, b, c = effective_dims(it, k)
                for x in range(0, L - a + 1):
                    for y in range(0, W - b + 1):
                        for z in range(0, H - c + 1):
                            opts.append(Placement(item=it.index, bin=j, k=k,
                                                  x=x + (j - 1) * L, y=y, z=z))
        options.append(opts)
    out = []
    for combo in itertools.product(*options):
        sol = PackingSolution(tuple(combo))
        if all(v.rule == RELATIVE_POSITION for v in check(instance, sol).violations):
            out.append(sol)
    return out


def model_flags(instance: Instance, solution: PackingSolution,
                reductions: bool = True) -> bool:
    """Whether the model rejects the packing: it does not encode (overlap)
    or its assignment violates a bound or a row."""
    try:
        assignment = encode_solution(instance, solution, reductions=reductions)
    except ValueError:
        return True
    return bool(evaluate(build_model(instance, reductions=reductions), assignment)[1])


def reference_evaluate(model: QuadraticModel, assignment
                       ) -> tuple[Fraction, list[tuple[str, Fraction]], dict[str, Fraction]]:
    """The objective, the violation list and the objective breakdown, summed
    term by term in Fractions: the evaluator the model's integer kernel
    replaced, kept here as its referee."""
    values = [Fraction(assignment[var.tag]) for var in model.variables]

    def value(expr: QuadExpr) -> Fraction:
        total = Fraction(expr.constant, expr.scale)
        for var, c in expr.linear:
            total += Fraction(c, expr.scale) * values[var]
        for a, b, c in expr.quad:
            total += Fraction(c, expr.scale) * values[a] * values[b]
        return total

    violations: list[tuple[str, Fraction]] = []
    for var in model.variables:
        val = values[var.id]
        excess = max(var.lower - val, val - var.upper, Fraction(0))
        if var.binary and val not in (0, 1):
            excess = max(excess, min(abs(val), abs(val - 1)))
        if excess > 0:
            violations.append((f"bound_{var.tag}", excess))
    for con in model.constraints:
        lhs, rhs = value(con.expr), Fraction(con.rhs, con.expr.scale)
        if con.sense is Sense.LE:
            miss = max(Fraction(0), lhs - rhs)
        elif con.sense is Sense.GE:
            miss = max(Fraction(0), rhs - lhs)
        else:
            miss = abs(lhs - rhs)
        if miss > 0:
            violations.append((con.label, miss))
    breakdown = {name: value(term) for name, term in model.objective_terms.items()}
    return value(model.objective), violations, breakdown
