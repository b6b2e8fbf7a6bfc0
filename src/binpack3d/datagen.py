"""Benchmark instance generator.

Items are drawn from a three-class size profile (small/medium/large side
fractions of the bin dims), weights scale with volume plus uniform noise and
are clamped to the weight cap, and the optional features (weight cap,
affinities, mass-ratio load bearing, center-of-mass target) are filled in
deterministically from the seed.

archetypes() returns the twelve standard benchmark rows used across the
experiment scripts; ARCHETYPE_MODEL_SIZES carries the reference
(variables, constraints) counts regenerated instances are expected to land
within +/-25% of.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Affinities, BinSpec, Instance, Item, default_bin_count, positive_groups

# (low, high, probability): side length as a fraction of the bin dimension
SizeClass = tuple[float, float, float]

DEFAULT_SIZE_CLASSES: tuple[SizeClass, ...] = (
    (0.10, 0.20, 0.5),
    (0.20, 0.35, 0.3),
    (0.35, 0.50, 0.2),
)

# compact profile used by the archetypes: 50+ items must fit a single bin
ARCHETYPE_SIZE_CLASSES: tuple[SizeClass, ...] = (
    (0.08, 0.15, 0.5),
    (0.15, 0.24, 0.3),
    (0.24, 0.33, 0.2),
)


@dataclass(frozen=True)
class GenSpec:
    item_count: int
    seed: int = 0
    bin_dims: tuple[int, int, int] = (1500, 1500, 1500)
    max_weight: Optional[int] = None
    positive_affinities: int = 0
    negative_affinities: int = 0
    eta: Optional[Fraction] = None
    com_target: Optional[tuple[int, int]] = None
    bins_upper: Optional[int] = None  # explicit n; default heuristic when None
    category_count: int = 10
    size_classes: tuple[SizeClass, ...] = DEFAULT_SIZE_CLASSES
    weight_scale: int = 1500

    def __post_init__(self) -> None:
        if self.item_count < 1:
            raise ValueError("item_count must be >= 1")
        if self.category_count < 1:
            raise ValueError("category_count must be >= 1")
        total = sum(p for _, _, p in self.size_classes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("size class probabilities must sum to 1")
        if self.positive_affinities < 0 or self.negative_affinities < 0:
            raise ValueError("affinity counts must be >= 0")
        BinSpec(*self.bin_dims, max_weight=self.max_weight)  # generate divides by both


def _pick_class(rng: random.Random, classes: tuple[SizeClass, ...]) -> SizeClass:
    r = rng.random()
    acc = 0.0
    for cls in classes:
        acc += cls[2]
        if r < acc:
            return cls
    return classes[-1]


def _sample_affinities(rng: random.Random, present: list[int],
                       n_neg: int, n_pos: int) -> Affinities:
    """Category pairs without contradictions: positive and negative sets are
    disjoint, and no negative pair joins two positively-connected components
    (which would make every instance infeasible)."""
    all_pairs = [(a, b) for i, a in enumerate(present) for b in present[i + 1:]]
    if n_neg + n_pos > len(all_pairs):
        raise ValueError(
            f"requested {n_neg + n_pos} affinity pairs but only "
            f"{len(all_pairs)} category pairs exist")
    pool = list(all_pairs)
    neg = []
    for _ in range(n_neg):
        pick = pool.pop(rng.randrange(len(pool)))
        neg.append(pick)

    pos: list[tuple[int, int]] = []
    attempts = 0
    while len(pos) < n_pos and pool and attempts < 1000:
        attempts += 1
        idx = rng.randrange(len(pool))
        a, b = pool[idx]
        group = positive_groups(Affinities(positive=frozenset(pos + [(a, b)])), present)
        if any(group.get(x, x) == group.get(y, y) for x, y in neg):
            continue
        pool.pop(idx)
        pos.append((a, b))
    if len(pos) < n_pos:
        raise ValueError("could not sample positive affinities without contradiction")
    return Affinities(positive=frozenset(pos), negative=frozenset(neg))


def generate(spec: GenSpec) -> Instance:
    """Deterministic in the seed; the same spec yields the same instance."""
    rng = random.Random(spec.seed)
    L, W, H = spec.bin_dims
    items = []
    for idx in range(spec.item_count):
        lo, hi, _ = _pick_class(rng, spec.size_classes)
        l = max(1, round(rng.uniform(lo, hi) * L))
        w = max(1, round(rng.uniform(lo, hi) * W))
        h = max(1, round(rng.uniform(lo, hi) * H))
        category = rng.randrange(spec.category_count)
        frac = (l * w * h) / (L * W * H)
        mu = max(1, round(spec.weight_scale * frac * rng.uniform(0.7, 1.3)))
        items.append(Item(index=idx, l=l, w=w, h=h, mu=mu, category=category))

    affinities = Affinities()
    if spec.negative_affinities or spec.positive_affinities:
        present = sorted({it.category for it in items})
        affinities = _sample_affinities(
            rng, present, spec.negative_affinities, spec.positive_affinities)

    n = spec.bins_upper
    if n is not None and spec.max_weight is not None:
        # an explicit bin bound must stay weight-feasible: rescale so the
        # total load fits n bins with 10% slack
        total = sum(it.mu for it in items)
        cap = (9 * spec.max_weight * n) // 10
        if total > cap:
            items = [
                dataclasses.replace(it, mu=max(1, (it.mu * cap) // total))
                for it in items
            ]
            # each weight is floored at 1, so the total may still exceed M * n
            total = sum(it.mu for it in items)
            if total > spec.max_weight * n:
                raise ValueError(f"total weight {total} exceeds M * n = {spec.max_weight * n}")
    if spec.max_weight is not None and any(it.mu > spec.max_weight for it in items):
        # weights scale with weight_scale, not with the cap: clamp them
        # before the default bin count is derived
        items = [dataclasses.replace(it, mu=min(it.mu, spec.max_weight)) for it in items]
    if n is None:
        n = default_bin_count(items, L, W, H, spec.max_weight)

    com = None
    if spec.com_target is not None:
        com = (Fraction(spec.com_target[0]), Fraction(spec.com_target[1]))

    return Instance(
        items=tuple(items),
        bin=BinSpec(L=L, W=W, H=H, max_weight=spec.max_weight, n=n),
        affinities=affinities,
        eta=spec.eta,
        com_target=com,
    )


# the twelve standard rows: item counts, feature flags and the bin-count
# upper bound implied by the reference model sizes (rows with a weight cap
# or incompatibilities need two bins, the rest pack into one)
_ARCHETYPE_ROWS = (
    # (items, M, pos, neg, eta, com, bin_dims, n)
    (51, None, 0, 0, None, None, (1500, 1500, 1500), 1),
    (51, 1000, 0, 0, None, None, (1500, 1500, 1500), 2),
    (52, None, 0, 0, None, None, (1500, 1500, 1500), 1),
    (52, None, 0, 0, 2, None, (1500, 1500, 1500), 1),
    (53, None, 0, 0, None, None, (1500, 1500, 1500), 1),
    (53, None, 0, 2, None, None, (1500, 1500, 1500), 2),
    (46, None, 0, 0, None, None, (1500, 1500, 1500), 1),
    (46, None, 2, 1, None, None, (1500, 1500, 1500), 2),
    (47, None, 0, 0, None, (750, 750), (1500, 1500, 1500), 1),
    (51, None, 0, 0, None, (900, 500), (1500, 1500, 1500), 1),
    (38, 800, 2, 1, 2, (750, 750), (1500, 1500, 1500), 2),
    (38, 900, 1, 1, 2, (500, 500), (1000, 1000, 1000), 2),
)

# reference (variables, constraints) per archetype; regenerated instances
# are expected to land within +/-25% of these
ARCHETYPE_MODEL_SIZES = {
    1: (8085, 9129),
    2: (8189, 17039),
    3: (8406, 9490),
    4: (7925, 9009),
    5: (8745, 9858),
    6: (8853, 17555),
    7: (6624, 7429),
    8: (6718, 13585),
    9: (7003, 7943),
    10: (8211, 9333),
    11: (4417, 8805),
    12: (4453, 8973),
}

ARCHETYPE_FLAGS = {
    1: (),
    2: ("OW",),
    3: (),
    4: ("LB",),
    5: (),
    6: ("INC",),
    7: (),
    8: ("PA", "INC"),
    9: ("CM",),
    10: ("CM",),
    11: ("OW", "PA", "INC", "LB", "CM"),
    12: ("OW", "PA", "INC", "LB", "CM"),
}


def archetypes(seed_base: int = 100) -> tuple[GenSpec, ...]:
    """GenSpecs for the twelve standard benchmark rows."""
    specs = []
    for row, (m, mw, pos, neg, eta, com, dims, n) in enumerate(_ARCHETYPE_ROWS, start=1):
        specs.append(GenSpec(
            item_count=m,
            seed=seed_base + row,
            bin_dims=dims,
            max_weight=mw,
            positive_affinities=pos,
            negative_affinities=neg,
            eta=Fraction(eta) if eta is not None else None,
            com_target=com,
            bins_upper=n,
            size_classes=ARCHETYPE_SIZE_CLASSES,
            weight_scale=4500,
        ))
    return tuple(specs)


def archetype(number: int, seed: Optional[int] = None) -> Instance:
    """Generate one archetype (1-based); seed overrides the default."""
    specs = archetypes()
    if not (1 <= number <= len(specs)):
        raise ValueError(f"archetype number must be in 1..{len(specs)}, got {number}")
    spec = specs[number - 1]
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    return generate(spec)
