"""Independent feasibility checker and objective evaluator.

Works directly on placement geometry (effective dims, axis-interval tests);
shares no code with the quadratic-model compiler, so it can referee it.
Face contact does not count as overlap (open-interval convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Instance,
    PackingSolution,
    Placement,
    allowed_orientations,
    effective_dims,
)

OUT_OF_BOUNDS = "OutOfBounds"
OVERLAP = "Overlap"
DUPLICATE_BIN = "DuplicateBin"
NON_SEQUENTIAL_BINS = "NonSequentialBins"
OVERWEIGHT = "Overweight"
NEGATIVE_AFFINITY = "NegativeAffinity"
POSITIVE_AFFINITY = "PositiveAffinity"
LOAD_BEARING = "LoadBearing"
RELATIVE_POSITION = "RelativePosition"
BAD_ORIENTATION = "BadOrientation"

RULES = (
    OUT_OF_BOUNDS,
    OVERLAP,
    DUPLICATE_BIN,
    NON_SEQUENTIAL_BINS,
    OVERWEIGHT,
    NEGATIVE_AFFINITY,
    POSITIVE_AFFINITY,
    LOAD_BEARING,
    RELATIVE_POSITION,
    BAD_ORIENTATION,
)


@dataclass(frozen=True)
class Violation:
    rule: str
    indices: tuple[int, ...]
    magnitude: Fraction

    def as_dict(self) -> dict:
        mag = self.magnitude
        return {
            "rule": self.rule,
            "indices": list(self.indices),
            "magnitude": int(mag) if mag.denominator == 1 else str(mag),
        }


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations

    def by_rule(self, rule: str) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.rule == rule)

    def as_list(self) -> list[dict]:
        return [v.as_dict() for v in self.violations]


def _box(place: Placement, instance: Instance) -> tuple[int, int, int, int, int, int]:
    """(x0, y0, z0, x1, y1, z1) of the placed item in global coordinates."""
    a, b, c = effective_dims(instance.items[place.item], place.k)
    return (place.x, place.y, place.z, place.x + a, place.y + b, place.z + c)


def _overlap_1d(a0: int, a1: int, b0: int, b1: int) -> int:
    return max(0, min(a1, b1) - max(a0, b0))


def check(instance: Instance, solution: PackingSolution) -> ViolationReport:
    """Check every packing rule; empty report means feasible.

    Raises ValueError for malformed solutions (an unknown or missing item
    index); an item placed twice is reported as DuplicateBin instead, since
    the rest of the geometry is still interpretable.
    """
    m = instance.m
    seen: dict[int, int] = {}
    for p in solution.placements:
        if not (0 <= p.item < m):
            raise ValueError(f"placement references unknown item {p.item}")
        seen[p.item] = seen.get(p.item, 0) + 1
    missing = [i for i in range(m) if i not in seen]
    if missing:
        raise ValueError(f"solution is missing items {missing}")

    out: list[Violation] = []
    for item, cnt in sorted(seen.items()):
        if cnt > 1:
            out.append(Violation(DUPLICATE_BIN, (item,), Fraction(cnt - 1)))

    L, W, H = instance.bin.L, instance.bin.W, instance.bin.H
    n = instance.bin.n
    boxes: list[tuple[Placement, tuple[int, int, int, int, int, int]]] = []
    for p in solution.placements:
        it = instance.items[p.item]
        if p.k not in allowed_orientations(it):
            out.append(Violation(BAD_ORIENTATION, (p.item,), Fraction(p.k)))
        box = _box(p, instance)
        boxes.append((p, box))
        x0, y0, z0, x1, y1, z1 = box
        if p.bin > n:
            out.append(Violation(OUT_OF_BOUNDS, (p.item,), Fraction(p.bin - n)))
            continue
        bx0, bx1 = (p.bin - 1) * L, p.bin * L
        over = (
            max(0, bx0 - x0) + max(0, x1 - bx1)
            + max(0, -y0) + max(0, y1 - W)
            + max(0, -z0) + max(0, z1 - H)
        )
        if over > 0:
            out.append(Violation(OUT_OF_BOUNDS, (p.item,), Fraction(over)))

    for a in range(len(boxes)):
        pa, ba = boxes[a]
        for b in range(a + 1, len(boxes)):
            pb, bb = boxes[b]
            if pa.bin != pb.bin or pa.item == pb.item:
                continue
            # open intervals overlap iff each starts before the other ends
            if not (ba[0] < bb[3] and bb[0] < ba[3] and ba[1] < bb[4] and bb[1] < ba[4]
                    and ba[2] < bb[5] and bb[2] < ba[5]):
                continue
            ox = _overlap_1d(ba[0], ba[3], bb[0], bb[3])
            oy = _overlap_1d(ba[1], ba[4], bb[1], bb[4])
            oz = _overlap_1d(ba[2], ba[5], bb[2], bb[5])
            i, k = sorted((pa.item, pb.item))
            out.append(Violation(OVERLAP, (i, k), Fraction(ox * oy * oz)))

    used = sorted({p.bin for p in solution.placements})
    if used and used != list(range(1, len(used) + 1)):
        gap = max(used) - len(used)
        out.append(Violation(NON_SEQUENTIAL_BINS, tuple(used), Fraction(gap)))

    if instance.bin.max_weight is not None:
        loads: dict[int, int] = {}
        for p in solution.placements:
            loads[p.bin] = loads.get(p.bin, 0) + instance.items[p.item].mu
        for j in sorted(loads):
            excess = loads[j] - instance.bin.max_weight
            if excess > 0:
                out.append(Violation(OVERWEIGHT, (j,), Fraction(excess)))

    bin_of = {p.item: p.bin for p in solution.placements}
    if instance.affinities.negative:
        neg = instance.affinities.negative
        for i in range(m):
            for k in range(i + 1, m):
                pair = tuple(sorted((instance.items[i].category, instance.items[k].category)))
                if pair in neg and bin_of[i] == bin_of[k]:
                    out.append(Violation(NEGATIVE_AFFINITY, (i, k), Fraction(1)))
    if instance.affinities.positive:
        for a, b in sorted(instance.affinities.positive):
            ia = [it.index for it in instance.items_of_category(a)]
            ib = [it.index for it in instance.items_of_category(b)]
            for i in ia:
                for k in ib:
                    if i < k and bin_of[i] != bin_of[k]:
                        out.append(Violation(POSITIVE_AFFINITY, (i, k), Fraction(1)))

    if instance.eta is not None:
        eta = instance.eta
        for a in range(len(boxes)):
            pa, ba = boxes[a]
            for b in range(len(boxes)):
                if a == b:
                    continue
                pb, bb = boxes[b]
                if pa.bin != pb.bin:
                    continue
                # pb rests at or above pa's top with overlapping footprint
                if not (bb[2] >= ba[5] and ba[0] < bb[3] and bb[0] < ba[3]
                        and ba[1] < bb[4] and bb[1] < ba[4]):
                    continue
                mua = instance.items[pa.item].mu
                mub = instance.items[pb.item].mu
                ratio = Fraction(mub, mua)
                if ratio > eta:
                    i, k = pa.item, pb.item
                    out.append(Violation(LOAD_BEARING, (i, k), ratio - eta))

    if instance.relpos_avoid or instance.relpos_favour:
        out.extend(_relative_positions(instance, boxes))

    return ViolationReport(tuple(out))


def _relative_positions(instance: Instance,
                        boxes: list[tuple[Placement, tuple[int, ...]]]) -> list[Violation]:
    """A RelativePosition violation for each same-bin pair that does not
    overlap and holds none of the positions its avoid and favour triples
    allow. Bit q of a mask stands for relative position q of item i to item
    k (1..3: i left of, behind, below k; 4..6: right of, in front of,
    above), as in the model's b_{i,k,q}."""
    allowed: dict[tuple[int, int], int] = {}
    for i, k, q in instance.relpos_avoid:
        # 0b1111110: bits 1..6, every position, less those avoided
        allowed[i, k] = allowed.get((i, k), 0b1111110) & ~(1 << q)
    for i, k, q in instance.relpos_favour:
        allowed[i, k] = 1 << q
    box_of = {p.item: (p.bin, box) for p, box in boxes}
    bad = []
    for (i, k), mask in allowed.items():
        (bin_i, a), (bin_k, b) = box_of[i], box_of[k]
        if bin_i != bin_k:
            continue
        held = ((a[3] <= b[0]) << 1 | (a[4] <= b[1]) << 2 | (a[5] <= b[2]) << 3
                | (b[3] <= a[0]) << 4 | (b[4] <= a[1]) << 5 | (b[5] <= a[2]) << 6)
        # held == 0: the boxes overlap, which is reported as Overlap
        if held and not held & mask:
            bad.append((i, k))
    return [Violation(RELATIVE_POSITION, pair, Fraction(1)) for pair in sorted(bad)]


def objectives(instance: Instance, solution: PackingSolution
               ) -> tuple[int, Fraction, Optional[Fraction]]:
    """(o1, o2, o3) of a feasible solution, as exact rationals.

    o1: bins used; o2: mean normalized top height; o3 (only with a
    center-of-mass target): mean normalized taxicab deviation of the
    bin-local item centers from the target.
    """
    report = check(instance, solution)
    if not report.feasible:
        raise ValueError(f"solution is infeasible: {report.as_list()}")

    m = instance.m
    L, W, H = instance.bin.L, instance.bin.W, instance.bin.H
    o1 = solution.bins_used
    o2 = Fraction(0)
    for p in solution.placements:
        _, _, zdim = effective_dims(instance.items[p.item], p.k)
        o2 += Fraction(p.z + zdim, m * H)

    o3: Optional[Fraction] = None
    if instance.com_target is not None:
        lt, wt = instance.com_target
        sx = Fraction(0)
        sy = Fraction(0)
        for p in solution.placements:
            xdim, ydim, _ = effective_dims(instance.items[p.item], p.k)
            cx = (Fraction(p.x) + Fraction(xdim, 2)) % L
            cy = Fraction(p.y) + Fraction(ydim, 2)
            sx += abs(cx - lt)
            sy += abs(cy - wt)
        o3 = Fraction(1, m) * (sx / L + sy / W)
    return o1, o2, o3
