"""Default backend: corner-point constructive packing plus hill-climbing
local search over reinsert / swap / reorient / rebin moves.

All constraints (boundaries, overlap, weight caps, affinities, relative-
position preferences) are enforced during placement, so every emitted
solution is feasible by construction. Seeding, budget, validator pass and
result come from the run driver, config.run_backend.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from operator import itemgetter
from fractions import Fraction
from typing import Optional, Sequence

from ..core import (
    Instance,
    PackingSolution,
    Placement,
    RELPOS,
    allowed_orientations,
    effective_dims,
    mirror_relpos,
    positive_groups,
    relpos_masks,
)
from .config import NoSolution, SolveResult, SolverConfig, Stop, run_backend

RESTARTS = 8  # shuffled-order constructions tried after the first fails
# relative weights of the (reinsert, swap, reorient, rebin) moves
MOVE_WEIGHTS = (0.35, 0.30, 0.20, 0.15)
CANDIDATE_CAP = 48  # a reinsert tries at most this many corners per bin
# separation mask -> the mask of the swapped pair: bit q moves to mirror_relpos(q)
_MIRROR = [sum(1 << mirror_relpos(q) for q in RELPOS if mask >> q & 1)
           for mask in range(1 << (max(RELPOS) + 1))]
# the side positions left, behind, right and front: a pair of boxes whose
# footprints overlap takes none of them, only below (bit 3) or above (bit 6)
_SIDE = sum(1 << q for q in (1, 2, 4, 5))
_BOX_Z = itemgetter(4)  # a box's z
_TAIL = itemgetter(0)  # a scored spot's or orientation's tail


class _Ctx:
    """Instance data predigested for fast placement checks.

    Tails are exact integers: an item's share of the weighted (o2, o3) tail
    times the common denominator D, so scoring needs no Fraction arithmetic.
    """

    def __init__(self, instance: Instance, weights) -> None:
        self.L, self.W, self.H = instance.bin.L, instance.bin.W, instance.bin.H
        self.n = instance.bin.n
        self.m = instance.m
        self.max_weight = instance.bin.max_weight
        self.w1, w2, w3 = (Fraction(w) for w in weights)
        self.mu = {it.index: it.mu for it in instance.items}
        self.volume = {it.index: it.volume for it in instance.items}
        self.bin_volume = self.L * self.W * self.H
        self.cat = {it.index: it.category for it in instance.items}
        self.neg = instance.affinities.negative
        # categories joined by positive affinities must share one bin
        self.group = positive_groups(instance.affinities, self.cat.values())
        # item -> {other: (allowed, required)} for separation_mask(item's box,
        # other's box); the (i, k) table over i < k, mirrored for k's side
        self.rules: dict[int, dict[int, tuple[int, int]]] = {}
        mirrored: dict[tuple[int, int], tuple[int, int]] = {}  # one tuple per distinct rule
        for (i, k), rule in relpos_masks(instance).items():
            self.rules.setdefault(i, {})[k] = rule
            if rule not in mirrored:
                mirrored[rule] = (_MIRROR[rule[0]], _MIRROR[rule[1]])
            self.rules.setdefault(k, {})[i] = mirrored[rule]
        # items with a rule that a side-by-side pair can break: a favour or an
        # avoided side position. Every other rule (an eta avoid of below or
        # above) can break only in a stacked pair, which fits checks in its
        # overlap scan.
        self.side = frozenset(
            i for i, rules in self.rules.items()
            if any(required or allowed & _SIDE != _SIDE for allowed, required in rules.values()))
        # tail = w2 (z + c) / (m H) + w3 (|cx - lt| / (m L) + |cy - wt| / (m W)),
        # where cx = (2x + a) / 2 and lt = px / (2 qx) with qx the denominator
        # of 2 lt, so |cx - lt| / (m L) = |(2x + a) qx - px| / (2 m L qx);
        # likewise for y. D clears the denominators of the three rates.
        rate_z = w2 / (self.m * self.H)
        self.D = rate_z.denominator
        self.com = None
        qx = px = qy = py = 0
        if instance.com_target is not None and w3 != 0:
            lt, wt = instance.com_target
            qx, qy = (2 * lt).denominator, (2 * wt).denominator
            px, py = int(2 * lt * qx), int(2 * wt * qy)
            rate_x = w3 / (2 * self.m * self.L * qx)
            rate_y = w3 / (2 * self.m * self.W * qy)
            self.D = math.lcm(self.D, rate_x.denominator, rate_y.denominator)
            self.com = (qx, px, int(rate_x * self.D), qy, py, int(rate_y * self.D))
        self.cz = cz = int(rate_z * self.D)
        # with no negative rate a tail is at least cz (z + c)
        self.tail_floor = w2 >= 0 and w3 >= 0
        # item -> its allowed orientations in k order, each a shape (k, dims,
        # cz c, a qx - px, b qy - py, L - a, W - b, H - c): the constants of
        # item_tail, then the largest corner coordinates that keep it in bounds
        self.shapes: dict[int, tuple[tuple, ...]] = {}
        for it in instance.items:
            shapes = []
            for k in sorted(allowed_orientations(it)):
                a, b, c = dims = effective_dims(it, k)
                shapes.append((k, dims, cz * c, a * qx - px, b * qy - py,
                               self.L - a, self.W - b, self.H - c))
            self.shapes[it.index] = tuple(shapes)
        # item -> its least height over orientations: with tail_floor, the
        # item's tail at height z is at least cz (z + min_c)
        self.min_c = {i: min(s[1][2] for s in ss) for i, ss in self.shapes.items()}

    def item_tail(self, shape: tuple, x: int, y: int, z: int) -> int:
        """The share of the weighted (o2, o3) objective tail, times D, of an
        item in orientation shape at (x, y, z): cz z + cz c
        + cx |2 qx x + a qx - px| + cy |2 qy y + b qy - py|."""
        zc, ax, by = shape[2:5]
        tail = self.cz * z + zc
        if self.com is not None:
            qx, _, cx, qy, _, cy = self.com
            tail += cx * abs(2 * qx * x + ax) + cy * abs(2 * qy * y + by)
        return tail


class _Bin:
    """One bin's boxes and running totals, and its corner index: the origin
    and the far corners (x1, y, z), (x, y1, z), (x, y, z1) of every box, kept
    as (z, y, x) tuples in one sorted list, with their covers. The boxes and
    the index are moved separately (_Packing.put/lift against
    add_corners/drop_corners), so a trial move can leave the index alone
    until it is accepted."""

    __slots__ = ("boxes", "load", "volume", "cats", "corners", "refs", "cover", "blocker")

    def __init__(self) -> None:
        # (item, k, x, y, z, x + a, y + b, z + c) bin-local, sorted by z
        self.boxes: list[tuple] = []
        self.load = 0
        self.volume = 0  # sum of the boxes' volumes
        self.cats: dict[int, int] = {}
        self.corners: list[tuple[int, int, int]] = [(0, 0, 0)]  # (z, y, x), sorted
        self.refs = {(0, 0, 0): 1}  # corner -> boxes cornered there; the origin is pinned
        # corner -> boxes whose half-open extent holds it, or None until asked
        self.cover: dict[tuple[int, int, int], Optional[int]] = {(0, 0, 0): 0}
        self.blocker: Optional[tuple] = None  # the box that last made fits reject

    def copy(self) -> _Bin:
        bn = _Bin()
        bn.boxes, bn.corners = list(self.boxes), list(self.corners)
        bn.cats, bn.refs, bn.cover = dict(self.cats), dict(self.refs), dict(self.cover)
        bn.load, bn.volume, bn.blocker = self.load, self.volume, self.blocker
        return bn

    def occupied(self, p: tuple[int, int, int]) -> bool:
        """Whether the corner (z, y, x) lies in a box's half-open extent, so
        that every box cornered there overlaps it. Counted the first time asked."""
        count = self.cover[p]
        if count is None:
            count = 0
            z, y, x = p
            # boxes sorted by z: only the slice with oz <= z can hold the point
            for (_, _, ox, oy, oz, ox1, oy1, oz1) in self.boxes[
                    :bisect_left(self.boxes, z + 1, key=_BOX_Z)]:
                if z < oz1 and ox <= x < ox1 and oy <= y < oy1:
                    count += 1
            self.cover[p] = count
        return count > 0

    def _recount(self, box: tuple, delta: int) -> None:
        """Add delta to the counted cover of each corner inside box. Only
        corners with z in [z, z1) can be, and they form one slice of corners."""
        _, _, x, y, z, x1, y1, z1 = box
        lo = bisect_left(self.corners, (z,))
        hi = bisect_left(self.corners, (z1,), lo)
        cover = self.cover
        for p in self.corners[lo:hi]:
            if x <= p[2] < x1 and y <= p[1] < y1 and cover[p] is not None:
                cover[p] += delta

    def add_corners(self, box: tuple) -> None:
        """Index the box: count it in the covers it holds, add its corners."""
        self._recount(box, 1)
        _, _, x, y, z, x1, y1, z1 = box
        for p in ((z, y, x1), (z, y1, x), (z1, y, x)):
            if p in self.refs:
                self.refs[p] += 1
                continue
            self.refs[p] = 1
            self.cover[p] = None
            insort(self.corners, p)

    def drop_corners(self, box: tuple) -> None:
        """Unindex the box: drop the corners only it had, uncount its covers."""
        _, _, x, y, z, x1, y1, z1 = box
        for p in ((z, y, x1), (z, y1, x), (z1, y, x)):
            self.refs[p] -= 1
            if self.refs[p]:
                continue
            del self.refs[p], self.cover[p]
            del self.corners[bisect_left(self.corners, p)]
        self._recount(box, -1)


class _Packing:
    # The oracle searches through this class too: what admits, fits, put,
    # lift and to_solution accept is what it can reach, so a change to them
    # changes the oracle as well.
    def __init__(self, ctx: _Ctx) -> None:
        self.ctx = ctx
        self.bins: list[_Bin] = []
        self.pos: dict[int, tuple] = {}  # item -> (bin_idx, box as in _Bin.boxes, item tail)
        self.group_bin: dict[int, dict[int, int]] = {}  # group -> {bin_idx: count}
        self.tail = 0  # sum of item tails, times ctx.D

    def copy(self) -> _Packing:
        """An independent packing in the same state, sharing only ctx."""
        pk = _Packing(self.ctx)
        pk.bins = [bn.copy() for bn in self.bins]
        pk.pos = dict(self.pos)
        pk.group_bin = {g: dict(locs) for g, locs in self.group_bin.items()}
        pk.tail = self.tail
        return pk

    @property
    def o1(self) -> int:
        return sum(1 for b in self.bins if b.boxes)

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

    def admits(self, item: int, j: int) -> bool:
        """The checks that do not depend on the position in bin j: weight cap,
        free volume, negative affinities and the positive-group bin lock."""
        ctx = self.ctx
        bn = self.bins[j]
        if ctx.max_weight is not None and bn.load + ctx.mu[item] > ctx.max_weight:
            return False
        if bn.volume + ctx.volume[item] > ctx.bin_volume:
            return False
        ci = ctx.cat[item]
        if ctx.neg:
            for cat in bn.cats:
                if (min(ci, cat), max(ci, cat)) in ctx.neg:
                    return False
        locked = self.locked_bin(item)
        return locked is None or locked == j

    def fits(self, item: int, j: int, dims, x: int, y: int, z: int) -> bool:
        """The position checks of an in-bounds box in bin j: no overlap and
        the avoid/favour triples. The bin's blocker is tested first. One scan
        finds the boxes whose footprint overlaps the new box's: each overlaps
        it or is stacked above or below it, and a stacked pair's rule is
        checked there. Only items in ctx.side scan again, for the rules of
        side-by-side pairs."""
        bn = self.bins[j]
        x1, y1, z1 = x + dims[0], y + dims[1], z + dims[2]
        b = bn.blocker
        if (b is not None and x < b[5] and b[2] < x1 and y < b[6] and b[3] < y1
                and z < b[7] and b[4] < z1):
            return False
        rules = self.ctx.rules.get(item)
        for (o, k, ox, oy, oz, ox1, oy1, oz1) in bn.boxes:
            if x < ox1 and ox < x1 and y < oy1 and oy < y1:
                if z < oz1 and oz < z1:
                    bn.blocker = (o, k, ox, oy, oz, ox1, oy1, oz1)
                    return False
                if rules:
                    rule = rules.get(o)
                    if rule is not None:
                        # core.separation_mask of a stacked pair: below or above
                        mask = 8 if z1 <= oz else 64
                        allowed, required = rule
                        if not mask & allowed or mask & required != required:
                            return False
        if rules and item in self.ctx.side:
            for (o, _, ox, oy, oz, ox1, oy1, oz1) in bn.boxes:
                rule = rules.get(o)
                if rule is None:
                    continue
                # core.separation_mask of the new box to box o; without a
                # side bit the pair is stacked and was checked above
                mask = (x1 <= ox) << 1 | (y1 <= oy) << 2 | (ox1 <= x) << 4 | (oy1 <= y) << 5
                if not mask:
                    continue
                mask |= (z1 <= oz) << 3 | (oz1 <= z) << 6
                allowed, required = rule
                if not mask & allowed or mask & required != required:
                    return False
        return True

    def least_tail_at(self, item: int, j: int, x: int, y: int, z: int,
                      bound: Optional[int] = None) -> Optional[tuple[int, int, tuple]]:
        """(tail, k, dims) of the first orientation of least item tail that is
        in bounds, admitted and fits at the fixed spot (x, y, z) of bin j, or
        None; given a bound, None also when that tail is not under it. The
        orientations are checked in (tail, k) order, so fits runs only until
        the answer is found."""
        if not self.admits(item, j):
            return None
        ctx = self.ctx
        tails = []
        for shape in ctx.shapes[item]:
            if x <= shape[5] and y <= shape[6] and z <= shape[7]:
                tail = ctx.item_tail(shape, x, y, z)
                if bound is None or tail < bound:
                    tails.append((tail, shape[0], shape[1]))
        tails.sort(key=_TAIL)
        for got in tails:
            if self.fits(item, j, got[2], x, y, z):
                return got
        return None

    def put(self, item: int, j: int, box: tuple, tail: int) -> None:
        """Add the item's box to bin j and to the totals, but not to the
        corner index."""
        ctx = self.ctx
        bn = self.bins[j]
        insort(bn.boxes, box, key=_BOX_Z)
        bn.load += ctx.mu[item]
        bn.volume += ctx.volume[item]
        cat = ctx.cat[item]
        bn.cats[cat] = bn.cats.get(cat, 0) + 1
        g = ctx.group.get(cat)
        if g is not None:
            locs = self.group_bin.setdefault(g, {})
            locs[j] = locs.get(j, 0) + 1
        self.pos[item] = (j, box, tail)
        self.tail += tail

    def lift(self, item: int) -> tuple:
        """Take the item's box out of its bin and the totals, but not out of
        the corner index; returns its pos entry."""
        ctx = self.ctx
        saved = self.pos.pop(item)
        j, box, tail = saved
        bn = self.bins[j]
        bn.boxes.remove(box)
        if box == bn.blocker:
            bn.blocker = None
        bn.load -= ctx.mu[item]
        bn.volume -= ctx.volume[item]
        cat = ctx.cat[item]
        bn.cats[cat] -= 1
        if bn.cats[cat] == 0:
            del bn.cats[cat]
        g = ctx.group.get(cat)
        if g is not None:
            locs = self.group_bin[g]
            locs[j] -= 1
            if locs[j] == 0:
                del locs[j]
        self.tail -= tail
        return saved

    def place(self, item: int, j: int, box: tuple, tail: int) -> None:
        """Put the item's box, with its tail, into bin j and index it; the
        inverse of remove: place(item, *remove(item)) leaves the packing as it was."""
        self.put(item, j, box, tail)
        self.bins[j].add_corners(box)

    def remove(self, item: int) -> tuple:
        """Lift the item and unindex its box; returns its pos entry."""
        saved = self.lift(item)
        self.bins[saved[0]].drop_corners(saved[1])
        return saved

    def reindex(self, moved: Sequence[tuple[int, tuple]]) -> None:
        """Bring the corner index up to date after put/lift moved items from
        their (item, old pos entry) to their current spots: first the corners
        of the boxes that left, then those of the boxes that entered, in the
        order that the remove and place calls of the same move would use."""
        for _, (j, box, _) in moved:
            self.bins[j].drop_corners(box)
        for item, _ in moved:
            j, box, _ = self.pos[item]
            self.bins[j].add_corners(box)

    def to_solution(self) -> PackingSolution:
        """Emit with empty bins dropped, so bin numbers run 1..o1 (moves keep
        bin indices stable and count nonempty bins for o1)."""
        nonempty = [j for j, b in enumerate(self.bins) if b.boxes]
        slot = {j: new for new, j in enumerate(nonempty)}
        placements = []
        for item in sorted(self.pos):
            j, (_, k, x, y, z, *_), _ = self.pos[item]
            placements.append(Placement(item=item, bin=slot[j] + 1, k=k,
                                        x=x + slot[j] * self.ctx.L, y=y, z=z))
        return PackingSolution(tuple(placements))


def _first_fit(pk: _Packing, item: int, j: int) -> bool:
    """Place the item in bin j, used or newly opened, at its lowest free
    corner point in the first orientation that fits there; whether it did."""
    if not pk.admits(item, j):
        return False
    ctx = pk.ctx
    shapes = ctx.shapes[item]
    bn = pk.bins[j]
    cover = bn.cover
    for p in bn.corners:
        count = cover[p]
        if count or (count is None and bn.occupied(p)):
            continue
        z, y, x = p
        for shape in shapes:
            if not (x <= shape[5] and y <= shape[6] and z <= shape[7]):
                continue
            a, b, c = shape[1]
            x1, y1, z1 = x + a, y + b, z + c
            # fits' own first test, here without the call
            bl = bn.blocker
            if (bl is not None and x < bl[5] and bl[2] < x1 and y < bl[6] and bl[3] < y1
                    and z < bl[7] and bl[4] < z1):
                continue
            if pk.fits(item, j, shape[1], x, y, z):
                # corners changes here, so the scan ends with the placement
                pk.place(item, j, (item, shape[0], x, y, z, x1, y1, z1),
                         ctx.item_tail(shape, x, y, z))
                return True
    return False


def _construct(ctx: _Ctx, order: Sequence[int]) -> tuple[Optional[_Packing], Optional[int]]:
    """First fit: each item goes to the first used bin that _first_fit places
    it in, else to a newly opened one (which admits checks like any other:
    an item whose group holds a bin is refused); (None, item) for the first
    item that no bin takes."""
    pk = _Packing(ctx)
    for item in order:
        if any(_first_fit(pk, item, j) for j in range(len(pk.bins))):
            continue
        if len(pk.bins) < ctx.n:
            pk.bins.append(_Bin())
            if _first_fit(pk, item, len(pk.bins) - 1):
                continue
        return None, item
    return pk, None


def _sample_sorted(rng: random.Random, n: int, k: int) -> list[int]:
    """sorted(rng.sample(range(n), k)), drawn with the same getrandbits calls
    as random.Random.sample makes: below its set-size threshold it picks from
    a shrinking pool, above it it redraws indices already taken, and each
    pick redraws until it is under its range (Random._randbelow)."""
    getrandbits = rng.getrandbits
    setsize = 21  # random.Random.sample's threshold, computed as it does
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        picked = []
        for size in range(n, n - k, -1):
            bits = size.bit_length()
            i = getrandbits(bits)
            while i >= size:
                i = getrandbits(bits)
            picked.append(pool[i])
            pool[i] = pool[size - 1]
        picked.sort()
        return picked
    bits = n.bit_length()
    taken = set()
    for _ in range(k):
        i = getrandbits(bits)
        while i >= n or i in taken:
            i = getrandbits(bits)
        taken.add(i)
    return sorted(taken)


def _best_spot(pk: _Packing, item: int, bins: Sequence[int], rng: random.Random,
               cap: int, bound: Optional[int] = None
               ) -> Optional[tuple[int, int, int, tuple, int, int, int]]:
    """Cheapest feasible placement by item tail, ties going to the first spot
    in (bin, corner, orientation) order; None when there is none or, given
    a bound, when its tail is not under the bound. Every in-bounds spot on a
    free corner gets its tail, spots at or over the bound are dropped, and
    the position checks run cheapest first until one passes. Under a bound
    and with no negative tail rate, a bin's scan ends at the first corner too
    high for any spot there or later to come in under it."""
    ctx = pk.ctx
    cz, com = ctx.cz, ctx.com
    if com is not None:
        qx, _, cx, qy, _, cy = com
    shapes = ctx.shapes[item]
    # corners run in (z, y, x) order and a tail is then at least
    # cz (z + c), so the cut is the first corner with cz (z + min c) >= bound
    cut = bound is not None and ctx.tail_floor
    min_c = ctx.min_c[item]
    locked = pk.locked_bin(item)
    spots = []  # (tail, j, k, dims, x, y, z) in enumeration order
    add = spots.append
    for j in bins:
        if locked is not None and locked != j:
            continue
        cands = pk.bins[j].corners
        if len(cands) > cap:
            # the same draw as sampling cands itself; sorted indices keep
            # the corners in order
            cands = [cands[i] for i in _sample_sorted(rng, len(cands), cap)]
        # checked after the sample is drawn, so the random stream stays put
        if not pk.admits(item, j):
            continue
        bn = pk.bins[j]
        cover = bn.cover
        for p in cands:
            z, y, x = p
            if cut and cz * (z + min_c) >= bound:
                break
            count = cover[p]
            if count or (count is None and bn.occupied(p)):
                continue
            # item_tail from the same per-orientation constants
            base = cz * z
            if com is None:
                for k, dims, zc, _, _, xm, ym, zm in shapes:
                    if x <= xm and y <= ym and z <= zm:
                        tail = base + zc
                        if bound is None or tail < bound:
                            add((tail, j, k, dims, x, y, z))
            else:
                x2, y2 = 2 * qx * x, 2 * qy * y
                for k, dims, zc, ax, by, xm, ym, zm in shapes:
                    if x <= xm and y <= ym and z <= zm:
                        tail = base + zc + cx * abs(x2 + ax) + cy * abs(y2 + by)
                        if bound is None or tail < bound:
                            add((tail, j, k, dims, x, y, z))
    # stable, so equal tails stay in enumeration order
    spots.sort(key=_TAIL)
    packed = pk.bins
    for spot in spots:
        _, j, _, dims, x, y, z = spot
        a, b, c = dims
        # fits' own first test, here without the call
        bl = packed[j].blocker
        if (bl is not None and x < bl[5] and bl[2] < x + a and y < bl[6] and bl[3] < y + b
                and z < bl[7] and bl[4] < z + c):
            continue
        if pk.fits(item, j, dims, x, y, z):
            return spot
    return None


def _move_reinsert(pk: _Packing, rng: random.Random, cap: int, different_bin: bool,
                   items: Sequence[int]) -> bool:
    """items: every placed item, sorted."""
    item = items[rng.randrange(len(items))]
    o1, tail = pk.o1, pk.tail
    saved = pk.remove(item)
    old_bin = saved[0]
    bins = [j for j in range(len(pk.bins))
            if pk.bins[j].boxes and not (different_bin and j == old_bin)]
    # a used bin keeps o1, so unless the removal emptied a bin the move is
    # accepted only when the item's new tail lowers the total
    bound = None if pk.o1 < o1 else tail - pk.tail
    best = _best_spot(pk, item, bins, rng, cap, bound)
    if best is None:
        pk.place(item, *saved)
        return False
    tail, j, k, (a, b, c), x, y, z = best
    pk.place(item, j, (item, k, x, y, z, x + a, y + b, z + c), tail)
    return True


# A swap or reorient puts each moved item at a fixed spot of a bin that stays
# used, so o1 stays and the move is kept only when it lowers the tail. Its
# trial moves boxes and totals (put/lift) and leaves the corner index, which
# it never reads, to one reindex on acceptance. With no negative tail rate,
# the moved items' least tails at their new heights bound the new tail from
# below, and a move that cannot get under the current tail is not tried.
# least_tail_at takes what is left of the current tail as its bound, so an
# orientation that could not be accepted is never checked.

def _move_swap(pk: _Packing, rng: random.Random, items: Sequence[int]) -> bool:
    if len(items) < 2:
        return False
    i, o = rng.sample(items, 2)
    ctx = pk.ctx
    si, so = pk.pos[i], pk.pos[o]
    before = pk.tail
    # each item goes to the other's z (pos entries are (bin, box, tail), box[4] is z)
    if (ctx.tail_floor and ctx.cz * (so[1][4] + ctx.min_c[i] + si[1][4] + ctx.min_c[o])
            >= si[2] + so[2]):
        return False
    pk.lift(i)
    pk.lift(o)
    # the two new tails must sum under before - pk.tail; so, with no negative
    # rate, i's must be under that less o's least tail at its new height
    bound = (before - pk.tail - ctx.cz * (si[1][4] + ctx.min_c[o])
             if ctx.tail_floor else None)
    placed = []
    for item, (j, (_, _, x, y, z, *_), _) in ((i, so), (o, si)):
        got = pk.least_tail_at(item, j, x, y, z, bound)
        if got is None:
            break
        tail, k, (a, b, c) = got
        pk.put(item, j, (item, k, x, y, z, x + a, y + b, z + c), tail)
        placed.append(item)
        bound = before - pk.tail
    if len(placed) == 2:
        pk.reindex(((i, si), (o, so)))
        return True
    for item in reversed(placed):
        pk.lift(item)
    pk.put(i, *si)
    pk.put(o, *so)
    return False


def _move_reorient(pk: _Packing, rng: random.Random, items: Sequence[int]) -> bool:
    item = items[rng.randrange(len(items))]
    ctx = pk.ctx
    if len(ctx.shapes[item]) < 2:
        return False
    saved = pk.pos[item]
    j, (_, _, x, y, z, *_), old_tail = saved
    if ctx.tail_floor and ctx.cz * (z + ctx.min_c[item]) >= old_tail:
        return False
    pk.lift(item)
    # the item's tail is the only one that changes
    best = pk.least_tail_at(item, j, x, y, z, old_tail)
    if best is not None:
        tail, k, (a, b, c) = best
        pk.put(item, j, (item, k, x, y, z, x + a, y + b, z + c), tail)
        pk.reindex(((item, saved),))
        return True
    pk.put(item, *saved)
    return False


def _local_search(pk: _Packing, rng: random.Random, stop: Stop,
                  checkpoints: Optional[Sequence[int]] = None
                  ) -> list[Fraction]:
    ctx = pk.ctx
    # every move ends with all items placed, so the sorted item list is fixed
    items = sorted(pk.pos)
    moves = [
        lambda: _move_reinsert(pk, rng, CANDIDATE_CAP, False, items),
        lambda: _move_swap(pk, rng, items),
        lambda: _move_reorient(pk, rng, items),
        lambda: _move_reinsert(pk, rng, CANDIDATE_CAP, True, items),
    ]
    marks = sorted(checkpoints) if checkpoints else []
    cp_log: list[Fraction] = []
    iters = 0
    while True:
        while marks and iters >= marks[0]:
            cp_log.append(pk.energy())
            marks.pop(0)
        if stop(iters):
            break
        r = rng.random() * sum(MOVE_WEIGHTS)
        acc = 0.0
        pick = 0
        for idx, w in enumerate(MOVE_WEIGHTS):
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


def _prepare(instance: Instance, config: SolverConfig, checkpoints: Optional[Sequence[int]]
             ) -> tuple[_Ctx, list[list[int]], list[int], Optional[_Packing],
                        Optional[Sequence[int]]]:
    ctx = _Ctx(instance, config.weights)
    blocks, singles = _order_blocks(ctx, instance)
    # attempt 0 draws nothing from the run's rng, so every run builds
    # the same packing: build it once and give each run a copy
    first, _ = _construct(ctx, [i for block in blocks for i in block] + singles)
    return ctx, blocks, singles, first, checkpoints


def _run(prepared, rng: random.Random, stop: Stop):
    ctx, blocks, singles, first, checkpoints = prepared
    if first is not None:
        pk = first.copy()
    else:
        for _ in range(RESTARTS):
            shuffled = [list(b) for b in blocks]
            for b in shuffled:
                rng.shuffle(b)
            rng.shuffle(shuffled)
            loose = list(singles)
            rng.shuffle(loose)
            pk, failed = _construct(ctx, [i for block in shuffled for i in block] + loose)
            if pk is not None:
                break
        else:
            raise NoSolution(f"item {failed} fits in no bin within n={ctx.n}")
    cp = _local_search(pk, rng, stop, checkpoints)
    return pk.to_solution(), tuple(cp) if checkpoints else None


def solve_heuristic(instance: Instance, config: SolverConfig,
                    checkpoints: Optional[Sequence[int]] = None) -> SolveResult:
    """Construction (block order, built once per solve and copied into each
    run, then up to RESTARTS shuffled orders) plus local search, config.runs
    times; checkpoints log energies at iterations."""
    return run_backend(instance, config, _prepare, _run, checkpoints)
