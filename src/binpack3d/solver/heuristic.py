"""Default backend: corner-point constructive packing plus hill-climbing
local search over reinsert / swap / reorient / rebin moves.

All constraints (boundaries, overlap, weight caps, affinities, relative-
position preferences) are enforced during placement, so every emitted
solution is feasible by construction; the independent validator still gets
the final word when objectives are computed.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import Optional, Sequence

from ..core import (
    Instance,
    PackingSolution,
    Placement,
    allowed_orientations,
    effective_dims,
    positive_groups,
    relpos_masks,
    separation_mask,
)
from ..validate import objectives
from .config import SolveResult, SolverConfig, mix_seed, solution_energy


class _Ctx:
    """Instance data predigested for fast placement checks.

    Tails are exact integers: an item's share of the weighted (o2, o3) tail
    times the common denominator D, so scoring needs no Fraction arithmetic.
    """

    def __init__(self, instance: Instance, weights) -> None:
        self.inst = instance
        self.L, self.W, self.H = instance.bin.L, instance.bin.W, instance.bin.H
        self.n = instance.bin.n
        self.m = instance.m
        self.max_weight = instance.bin.max_weight
        self.w1, w2, w3 = (Fraction(w) for w in weights)
        self.orients = {
            it.index: tuple((k, effective_dims(it, k))
                            for k in sorted(allowed_orientations(it)))
            for it in instance.items
        }
        self.mu = {it.index: it.mu for it in instance.items}
        self.cat = {it.index: it.category for it in instance.items}
        self.neg = instance.affinities.negative
        # categories joined by positive affinities must share one bin
        self.group = positive_groups(instance.affinities)
        self.relpos, self.relpos_items = relpos_masks(instance)
        # tail = w2 (z + c) / (m H) + w3 (|cx - lt| / (m L) + |cy - wt| / (m W)),
        # where cx = (2x + a) / 2 and lt = px / (2 qx) with qx the denominator
        # of 2 lt, so |cx - lt| / (m L) = |(2x + a) qx - px| / (2 m L qx);
        # likewise for y. D clears the denominators of the three rates.
        rate_z = w2 / (self.m * self.H)
        self.D = rate_z.denominator
        self.com = None
        if instance.com_target is not None and w3 != 0:
            lt, wt = instance.com_target
            qx, qy = (2 * lt).denominator, (2 * wt).denominator
            rate_x = w3 / (2 * self.m * self.L * qx)
            rate_y = w3 / (2 * self.m * self.W * qy)
            self.D = math.lcm(self.D, rate_x.denominator, rate_y.denominator)
            self.com = (qx, int(2 * lt * qx), int(rate_x * self.D),
                        qy, int(2 * wt * qy), int(rate_y * self.D))
        self.cz = int(rate_z * self.D)

    def item_tail(self, i: int, x: int, y: int, z: int, dims) -> int:
        """This item's share of the weighted (o2, o3) objective tail, times D."""
        tail = self.cz * (z + dims[2])
        if self.com is not None:
            qx, px, cx, qy, py, cy = self.com
            tail += (cx * abs((2 * x + dims[0]) * qx - px)
                     + cy * abs((2 * y + dims[1]) * qy - py))
        return tail


class _Bin:
    __slots__ = ("boxes", "load", "cats")

    def __init__(self) -> None:
        self.boxes: list[tuple] = []  # (item, k, x, y, z, a, b, c) bin-local
        self.load = 0
        self.cats: dict[int, int] = {}


class _Packing:
    def __init__(self, ctx: _Ctx) -> None:
        self.ctx = ctx
        self.bins: list[_Bin] = []
        self.pos: dict[int, tuple] = {}  # item -> (bin_idx, k, x, y, z, a, b, c)
        self.group_bin: dict[int, dict[int, int]] = {}  # group -> {bin_idx: count}
        self.tail = 0  # sum of item tails, times ctx.D

    @property
    def o1(self) -> int:
        return sum(1 for b in self.bins if b.boxes)

    def score(self) -> tuple[int, int]:
        return (self.o1, self.tail)

    def energy(self) -> Fraction:
        e = Fraction(self.tail, self.ctx.D)
        if self.ctx.n >= 2:
            e += self.ctx.w1 * self.o1
        return e

    def locked_bin(self, item: int) -> Optional[int]:
        g = self.ctx.group.get(self.ctx.cat[item])
        if g is None:
            return None
        locs = self.group_bin.get(g)
        if not locs:
            return None
        return next(iter(locs))

    def can_place(self, item: int, j: int, dims, x: int, y: int, z: int) -> bool:
        ctx = self.ctx
        a, b, c = dims
        if x + a > ctx.L or y + b > ctx.W or z + c > ctx.H:
            return False
        bn = self.bins[j]
        if ctx.max_weight is not None and bn.load + ctx.mu[item] > ctx.max_weight:
            return False
        ci = ctx.cat[item]
        if ctx.neg:
            for cat in bn.cats:
                if (min(ci, cat), max(ci, cat)) in ctx.neg:
                    return False
        locked = self.locked_bin(item)
        if locked is not None and locked != j:
            return False
        # no overlap <=> some relative position holds (separation mask != 0),
        # so only pairs with avoid/favour triples need the mask itself
        x1, y1, z1 = x + a, y + b, z + c
        for (_, _, ox, oy, oz, oa, ob, oc) in bn.boxes:
            if x < ox + oa and ox < x1 and y < oy + ob and oy < y1 and z < oz + oc and oz < z1:
                return False
        if item in ctx.relpos_items:
            own = ((x, y, z), dims)
            for (o, _, ox, oy, oz, oa, ob, oc) in bn.boxes:
                rule = ctx.relpos.get((item, o) if item < o else (o, item))
                if rule is None:
                    continue
                other = ((ox, oy, oz), (oa, ob, oc))
                mask = separation_mask(*own, *other) if item < o else separation_mask(*other, *own)
                allowed, required = rule
                if not mask & allowed or mask & required != required:
                    return False
        return True

    def place(self, item: int, j: int, k: int, dims, x: int, y: int, z: int) -> None:
        a, b, c = dims
        self.bins[j].boxes.append((item, k, x, y, z, a, b, c))
        self.bins[j].load += self.ctx.mu[item]
        cat = self.ctx.cat[item]
        self.bins[j].cats[cat] = self.bins[j].cats.get(cat, 0) + 1
        g = self.ctx.group.get(cat)
        if g is not None:
            locs = self.group_bin.setdefault(g, {})
            locs[j] = locs.get(j, 0) + 1
        self.pos[item] = (j, k, x, y, z, a, b, c)
        self.tail += self.ctx.item_tail(item, x, y, z, dims)

    def remove(self, item: int) -> tuple:
        j, k, x, y, z, a, b, c = self.pos.pop(item)
        bn = self.bins[j]
        bn.boxes.remove((item, k, x, y, z, a, b, c))
        bn.load -= self.ctx.mu[item]
        cat = self.ctx.cat[item]
        bn.cats[cat] -= 1
        if bn.cats[cat] == 0:
            del bn.cats[cat]
        g = self.ctx.group.get(cat)
        if g is not None:
            locs = self.group_bin[g]
            locs[j] -= 1
            if locs[j] == 0:
                del locs[j]
        self.tail -= self.ctx.item_tail(item, x, y, z, (a, b, c))
        return (j, k, x, y, z, a, b, c)

    def restore(self, item: int, saved: tuple) -> None:
        j, k, x, y, z, a, b, c = saved
        self.place(item, j, k, (a, b, c), x, y, z)

    def compact(self) -> None:
        """Drop empty bins so bin indices stay sequential (emission only;
        moves keep indices stable and count nonempty bins for o1)."""
        if all(b.boxes for b in self.bins):
            return
        keep = [idx for idx, b in enumerate(self.bins) if b.boxes]
        remap = {old: new for new, old in enumerate(keep)}
        self.bins = [self.bins[idx] for idx in keep]
        for item, (j, k, x, y, z, a, b, c) in list(self.pos.items()):
            self.pos[item] = (remap[j], k, x, y, z, a, b, c)
        for g, locs in list(self.group_bin.items()):
            self.group_bin[g] = {remap[j]: cnt for j, cnt in locs.items()}

    def candidates(self, j: int) -> list[tuple[int, int, int]]:
        pts = {(0, 0, 0)}
        for (_, _, x, y, z, a, b, c) in self.bins[j].boxes:
            pts.add((x + a, y, z))
            pts.add((x, y + b, z))
            pts.add((x, y, z + c))
        return sorted(pts, key=lambda p: (p[2], p[1], p[0]))

    def to_solution(self) -> PackingSolution:
        self.compact()
        placements = []
        for item in sorted(self.pos):
            j, k, x, y, z, _, _, _ = self.pos[item]
            placements.append(Placement(item=item, bin=j + 1, k=k,
                                        x=x + j * self.ctx.L, y=y, z=z))
        sol = PackingSolution(tuple(placements))
        o1, o2, o3 = objectives(self.ctx.inst, sol)
        return PackingSolution(sol.placements, o1=o1, o2=o2, o3=o3)


def _construct(ctx: _Ctx, order: Sequence[int]) -> tuple[Optional[_Packing], Optional[int]]:
    pk = _Packing(ctx)
    for item in order:
        placed = False
        for j in range(len(pk.bins)):
            locked = pk.locked_bin(item)
            if locked is not None and locked != j:
                continue
            for (x, y, z) in pk.candidates(j):
                for k, dims in ctx.orients[item]:
                    if pk.can_place(item, j, dims, x, y, z):
                        pk.place(item, j, k, dims, x, y, z)
                        placed = True
                        break
                if placed:
                    break
            if placed:
                break
        if not placed and len(pk.bins) < ctx.n and pk.locked_bin(item) is None:
            pk.bins.append(_Bin())
            j = len(pk.bins) - 1
            for k, dims in ctx.orients[item]:
                if pk.can_place(item, j, dims, 0, 0, 0):
                    pk.place(item, j, k, dims, 0, 0, 0)
                    placed = True
                    break
            if not placed:
                pk.bins.pop()
        if not placed:
            return None, item
    return pk, None


def _best_spot(pk: _Packing, item: int, bins: Sequence[int], rng: random.Random,
               cap: int) -> Optional[tuple[int, int, int, tuple, int, int, int]]:
    """Cheapest feasible placement by (bin-count delta, item tail)."""
    ctx = pk.ctx
    best = None
    for j in bins:
        locked = pk.locked_bin(item)
        if locked is not None and locked != j:
            continue
        cands = pk.candidates(j)
        if len(cands) > cap:
            cands = sorted(rng.sample(cands, cap), key=lambda p: (p[2], p[1], p[0]))
        for (x, y, z) in cands:
            for k, dims in ctx.orients[item]:
                if pk.can_place(item, j, dims, x, y, z):
                    tail = ctx.item_tail(item, x, y, z, dims)
                    key = (tail, j, k, dims, x, y, z)
                    if best is None or key[0] < best[0]:
                        best = key
    return best


def _move_reinsert(pk: _Packing, rng: random.Random, cap: int, different_bin: bool) -> bool:
    items = sorted(pk.pos)
    item = items[rng.randrange(len(items))]
    before = pk.score()
    saved = pk.remove(item)
    old_bin = saved[0]
    bins = [j for j in range(len(pk.bins))
            if pk.bins[j].boxes and not (different_bin and j == old_bin)]
    best = _best_spot(pk, item, bins, rng, cap)
    if best is not None:
        _, j, k, dims, x, y, z = best
        pk.place(item, j, k, dims, x, y, z)
        if pk.score() < before:
            return True
        pk.remove(item)
        pk.restore(item, saved)
        return False
    pk.restore(item, saved)
    return False


def _move_swap(pk: _Packing, rng: random.Random) -> bool:
    items = sorted(pk.pos)
    if len(items) < 2:
        return False
    i, o = rng.sample(items, 2)
    before = pk.score()
    si = pk.remove(i)
    so = pk.remove(o)
    ctx = pk.ctx

    def try_at(item: int, spot: tuple) -> Optional[tuple]:
        j, _, x, y, z = spot[0], spot[1], spot[2], spot[3], spot[4]
        best = None
        for k, dims in ctx.orients[item]:
            if pk.can_place(item, j, dims, x, y, z):
                tail = ctx.item_tail(item, x, y, z, dims)
                if best is None or tail < best[0]:
                    best = (tail, j, k, dims, x, y, z)
        return best

    placed = []
    ok = True
    for item, spot in ((i, so), (o, si)):
        got = try_at(item, spot)
        if got is None:
            ok = False
            break
        _, j, k, dims, x, y, z = got
        pk.place(item, j, k, dims, x, y, z)
        placed.append(item)
    if ok and pk.score() < before:
        return True
    for item in reversed(placed):
        pk.remove(item)
    pk.restore(i, si)
    pk.restore(o, so)
    return False


def _move_reorient(pk: _Packing, rng: random.Random) -> bool:
    items = sorted(pk.pos)
    item = items[rng.randrange(len(items))]
    ctx = pk.ctx
    if len(ctx.orients[item]) < 2:
        return False
    before = pk.score()
    saved = pk.remove(item)
    j, old_k, x, y, z = saved[0], saved[1], saved[2], saved[3], saved[4]
    best = None
    for k, dims in ctx.orients[item]:
        if pk.can_place(item, j, dims, x, y, z):
            tail = ctx.item_tail(item, x, y, z, dims)
            if best is None or tail < best[0]:
                best = (tail, k, dims)
    if best is not None:
        _, k, dims = best
        pk.place(item, j, k, dims, x, y, z)
        if pk.score() < before:
            return True
        pk.remove(item)
    pk.restore(item, saved)
    return False


def _local_search(pk: _Packing, rng: random.Random, config: SolverConfig,
                  checkpoints: Optional[Sequence[int]] = None
                  ) -> list[Fraction]:
    ctx = pk.ctx
    weights = config.heuristic.move_weights
    moves = [
        lambda: _move_reinsert(pk, rng, config.heuristic.candidate_cap, False),
        lambda: _move_swap(pk, rng),
        lambda: _move_reorient(pk, rng),
        lambda: _move_reinsert(pk, rng, config.heuristic.candidate_cap, True),
    ]
    marks = sorted(checkpoints) if checkpoints else []
    cp_log: list[Fraction] = []
    deadline = None if config.iterations is not None else time.monotonic() + config.time_limit
    budget = config.iterations
    iters = 0
    while True:
        while marks and iters >= marks[0]:
            cp_log.append(pk.energy())
            marks.pop(0)
        if budget is not None:
            if iters >= budget:
                break
        elif time.monotonic() >= deadline:
            break
        r = rng.random() * sum(weights)
        acc = 0.0
        pick = 0
        for idx, w in enumerate(weights):
            acc += w
            if r < acc:
                pick = idx
                break
        if ctx.n == 1 and pick == 3:
            pick = 0
        moves[pick]()
        iters += 1
    while marks:
        cp_log.append(pk.energy())
        marks.pop(0)
    return cp_log


def _order_blocks(ctx: _Ctx, instance: Instance) -> tuple[list[list[int]], list[int]]:
    """Items of each positive-affinity group as one block (they must share a
    bin, so they are placed together and early), remaining items loose."""
    groups: dict[int, list[int]] = {}
    singles: list[int] = []
    for it in instance.items:
        g = ctx.group.get(it.category)
        if g is None:
            singles.append(it.index)
        else:
            groups.setdefault(g, []).append(it.index)
    blocks = [
        sorted(groups[g], key=lambda i: (-instance.items[i].volume, i))
        for g in sorted(groups,
                        key=lambda g: (-sum(instance.items[i].volume for i in groups[g]), g))
    ]
    singles.sort(key=lambda i: (-instance.items[i].volume, i))
    return blocks, singles


def solve_heuristic(instance: Instance, config: SolverConfig,
                    checkpoints: Optional[Sequence[int]] = None) -> SolveResult:
    """Run the constructive + local search pipeline config.runs times."""
    started = time.monotonic()
    ctx = _Ctx(instance, config.weights)
    blocks, singles = _order_blocks(ctx, instance)
    best_sol: Optional[PackingSolution] = None
    best_energy: Optional[Fraction] = None
    run_log: list[Fraction] = []
    cp_runs: list[tuple[Fraction, ...]] = []
    reason = None
    for run in range(config.runs):
        rng = random.Random(mix_seed(config.seed, config.run_offset + run))
        pk = None
        for attempt in range(config.heuristic.restarts + 1):
            if attempt == 0:
                order = [i for block in blocks for i in block] + singles
            else:
                shuffled = [list(b) for b in blocks]
                for b in shuffled:
                    rng.shuffle(b)
                rng.shuffle(shuffled)
                loose = list(singles)
                rng.shuffle(loose)
                order = [i for block in shuffled for i in block] + loose
            pk, failed = _construct(ctx, order)
            if pk is not None:
                break
        if pk is None:
            reason = f"item {failed} fits in no bin within n={ctx.n}"
            continue
        cp = _local_search(pk, rng, config, checkpoints)
        if checkpoints:
            cp_runs.append(tuple(cp))
        sol = pk.to_solution()
        energy = solution_energy(instance, sol.o1, sol.o2, sol.o3, config.weights)
        run_log.append(energy)
        if best_energy is None or energy < best_energy:
            best_sol, best_energy = sol, energy
    elapsed = 0.0 if config.iterations is not None else time.monotonic() - started
    if best_sol is None:
        return SolveResult(None, None, elapsed, tuple(run_log),
                           infeasible_reason=reason or "no feasible construction")
    return SolveResult(best_sol, best_energy, elapsed, tuple(run_log),
                       checkpoint_runs=tuple(cp_runs) if checkpoints else None)
