"""Domain types for 3D bin packing with real-world constraints.

Items are rigid integer-dimensioned boxes placed axis-aligned into identical
bins that are conceptually stacked along the x axis: bin j (1-based) spans
x in [(j-1)*L, j*L). Orientations are the six 90-degree permutations of an
item's (l, w, h); relative positions between two items are the six axis
separations left/behind/below/right/front/above.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, filterfalse
from typing import Iterable, Optional, Union

Rational = Union[int, Fraction]

ORIENTATIONS = (1, 2, 3, 4, 5, 6)
RELPOS = (1, 2, 3, 4, 5, 6)
ALL_RELPOS = sum(1 << q for q in RELPOS)  # bit q set for every position q

# orientation k -> indices into (l, w, h) giving the effective (x', y', z')
_ORIENT_PERM = {
    1: (0, 1, 2),
    2: (0, 2, 1),
    3: (1, 0, 2),
    4: (1, 2, 0),
    5: (2, 0, 1),
    6: (2, 1, 0),
}


def mirror_relpos(q: int) -> int:
    """Mirror position under swapping the item pair: 1<->4, 2<->5, 3<->6."""
    if q not in RELPOS:
        raise ValueError(f"relative position must be in 1..6, got {q}")
    return (q + 2) % 6 + 1


def _require_ints(obj, names: tuple[str, ...], owner: str) -> None:
    """ValueError for the first named field of obj that is not an int (bools
    are rejected too: they are ints to Python but not to a JSON reader)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{owner}{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Item:
    """One rigid box: integer dims, weight and a small category id."""

    index: int
    l: int
    w: int
    h: int
    mu: int
    category: int = 0

    def __post_init__(self) -> None:
        _require_ints(self, ("index", "l", "w", "h", "mu", "category"), f"item {self.index}: ")
        if self.index < 0:
            raise ValueError(f"item index must be >= 0, got {self.index}")
        if min(self.l, self.w, self.h) < 1:
            raise ValueError(f"item {self.index}: dims must be >= 1")
        if self.mu < 1:
            raise ValueError(f"item {self.index}: weight must be >= 1")
        if self.category < 0:
            raise ValueError(f"item {self.index}: category must be >= 0")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.l, self.w, self.h)

    @property
    def volume(self) -> int:
        return self.l * self.w * self.h


@dataclass(frozen=True)
class BinSpec:
    """Identical bins: dims, optional weight capacity, upper bound n on bins."""

    L: int
    W: int
    H: int
    max_weight: Optional[int] = None
    n: int = 1

    def __post_init__(self) -> None:
        _require_ints(self, ("L", "W", "H", "n"), "bin ")
        if self.max_weight is not None:
            _require_ints(self, ("max_weight",), "bin ")
        if min(self.L, self.W, self.H) < 1:
            raise ValueError("bin dims must be >= 1")
        if self.max_weight is not None and self.max_weight < 1:
            raise ValueError("max_weight must be >= 1 when set")
        if self.n < 1:
            raise ValueError("bin count upper bound must be >= 1")

    @property
    def volume(self) -> int:
        return self.L * self.W * self.H


def _norm_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Affinities:
    """Unordered category pairs that must share a bin (positive) or must not
    (negative)."""

    positive: frozenset[tuple[int, int]] = frozenset()
    negative: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        pos = frozenset(_norm_pair(*p) for p in self.positive)
        neg = frozenset(_norm_pair(*p) for p in self.negative)
        object.__setattr__(self, "positive", pos)
        object.__setattr__(self, "negative", neg)
        clash = pos & neg
        if clash:
            raise ValueError(f"category pairs both positive and negative: {sorted(clash)}")

    def __bool__(self) -> bool:
        return bool(self.positive) or bool(self.negative)


@dataclass(frozen=True)
class Instance:
    """A full problem instance.

    relpos_avoid / relpos_favour hold (i, k, q) triples with i < k: the pair
    must not / must take relative position q.  When eta is set, the
    load-bearing triples (i, k, 3) for mu_k/mu_i > eta and (i, k, 6) for
    mu_i/mu_k > eta are derived from the weights and merged into
    relpos_avoid, so a heavier item can never rest above one lighter by more
    than the ratio eta.

    The model gives each pair six one-hot position binaries: a favour fixes
    one to 1 and an avoid fixes one to 0. So a pair favoured in two
    positions, one with all six avoided (the eta triples counted) and one
    both avoided and favoured are refused with a ValueError.
    """

    items: tuple[Item, ...]
    bin: BinSpec
    affinities: Affinities = field(default_factory=Affinities)
    eta: Optional[Fraction] = None
    com_target: Optional[tuple[Fraction, Fraction]] = None
    relpos_avoid: frozenset[tuple[int, int, int]] = frozenset()
    relpos_favour: frozenset[tuple[int, int, int]] = frozenset()

    def __post_init__(self) -> None:
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise ValueError("instance needs at least one item")
        for pos, item in enumerate(items):
            if item.index != pos:
                raise ValueError(f"item at position {pos} has index {item.index}")
        m = len(items)

        for item in items:
            if not any(fits_in_bin(item, k, self.bin) for k in ORIENTATIONS):
                raise ValueError(f"item {item.index} fits in no orientation")
            if self.bin.max_weight is not None and item.mu > self.bin.max_weight:
                raise ValueError(f"item {item.index} weighs {item.mu}, "
                                 f"over the bin cap M={self.bin.max_weight}")

        if self.affinities.negative:
            count: dict[int, int] = {}
            for item in items:
                count[item.category] = count.get(item.category, 0) + 1
            for a, b in self.affinities.negative:
                if a == b and count.get(a, 0) >= 2:
                    raise ValueError(f"category {a} negative with itself but has >= 2 items")

        if self.eta is not None:
            eta = Fraction(self.eta)
            if eta <= 1:
                raise ValueError(f"eta must be > 1, got {eta}")
            object.__setattr__(self, "eta", eta)

        if self.com_target is not None:
            lt, wt = (Fraction(v) for v in self.com_target)
            if not (0 <= lt <= self.bin.L and 0 <= wt <= self.bin.W):
                raise ValueError("com_target must lie within the bin footprint")
            object.__setattr__(self, "com_target", (lt, wt))

        avoid = set(map(tuple, self.relpos_avoid))
        favour = frozenset(map(tuple, self.relpos_favour))
        derived: set[tuple[int, int, int]] = set()
        if self.eta is not None:
            derived = load_bearing_avoid(items, self.eta)
            avoid |= derived
        # A derived triple is in range and gives its pair one of below/above,
        # so on its own it never clashes, is favoured twice or blocks all six
        # positions: only the other triples are checked, in the union's order
        # (the first bad one is reported), each pair they touch with its
        # derived bits too. A union no larger than the derived set (a saved
        # eta instance read back) has no other triples.
        checked = (list(filterfalse(derived.__contains__, avoid))
                   if len(avoid) > len(derived) else [])
        for tri in chain(checked, favour):
            i, k, q = tri
            if not (0 <= i < k < m):
                raise ValueError(f"relpos triple {tri}: need 0 <= i < k < m")
            if q not in RELPOS:
                raise ValueError(f"relpos triple {tri}: q must be in 1..6")
        object.__setattr__(self, "relpos_avoid", frozenset(avoid))
        object.__setattr__(self, "relpos_favour", favour)
        touched = {tri[:2] for tri in chain(checked, favour)}
        table = _masks(chain(checked, ((i, k, q) for i, k in touched for q in (3, 6)
                                       if (i, k, q) in derived)), favour)
        clash = sorted(p for p, (allowed, required) in table.items()
                       if required and allowed != ALL_RELPOS)
        if clash:
            raise ValueError(f"pairs in both avoid and favour sets: {clash}")
        twice = [p for p, (_, required) in table.items() if required & (required - 1)]
        if twice:
            pair = min(twice)
            raise ValueError(f"pair {pair} is favoured in {table[pair][1].bit_count()} "
                             "relative positions")
        blocked = [p for p, (allowed, _) in table.items() if not allowed]
        if blocked:
            raise ValueError(f"pair {min(blocked)} has all six relative positions avoided")

    @property
    def m(self) -> int:
        return len(self.items)

    @property
    def n(self) -> int:
        return self.bin.n

    def items_of_category(self, category: int) -> tuple[Item, ...]:
        return tuple(it for it in self.items if it.category == category)


def load_bearing_avoid(items: Iterable[Item], eta: Rational) -> set[tuple[int, int, int]]:
    """Avoid triples induced by the mass-ratio rule for a given eta."""
    eta = Fraction(eta)
    # weights are positive integers, so mu_b / mu_a > p / q <=> mu_b q > p mu_a
    # <=> mu_b > floor(p mu_a / q): the items that much heavier than one item
    # are a suffix of the items in weight order
    p, q = eta.numerator, eta.denominator
    items = list(items)
    order = sorted(range(len(items)), key=lambda pos: items[pos].mu)
    weights = [items[pos].mu for pos in order]
    return {(items[light].index, items[heavy].index, 3) if light < heavy  # light below heavy
            else (items[heavy].index, items[light].index, 6)  # heavy above light
            for light in order
            for heavy in order[bisect_right(weights, p * items[light].mu // q):]
            if heavy != light}


def positive_groups(affinities: Affinities, present: Iterable[int]) -> dict[int, int]:
    """Category -> representative of its positive-affinity component, for
    every category in a positive pair of two present categories; one
    component must share one bin. A pair with an absent category binds no
    item, so it joins nothing: [[1, 2], [2, 3]] without a category-2 item
    leaves 1 and 3 free to use different bins."""
    present = frozenset(present)
    parent: dict[int, int] = {}

    def find(c: int) -> int:
        parent.setdefault(c, c)
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for a, b in sorted(affinities.positive):
        if a not in present or b not in present:
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {c: find(c) for c in parent}


def separation_mask(p0: tuple[int, int, int], d0: tuple[int, int, int],
                    p1: tuple[int, int, int], d1: tuple[int, int, int]) -> int:
    """Bit q is set when box 0 (corner p0, dims d0) takes relative position q
    to box 1 in the same bin; 0 means the boxes overlap."""
    mask = 0
    if p0[0] + d0[0] <= p1[0]:
        mask |= 1 << 1
    if p0[1] + d0[1] <= p1[1]:
        mask |= 1 << 2
    if p0[2] + d0[2] <= p1[2]:
        mask |= 1 << 3
    if p1[0] + d1[0] <= p0[0]:
        mask |= 1 << 4
    if p1[1] + d1[1] <= p0[1]:
        mask |= 1 << 5
    if p1[2] + d1[2] <= p0[2]:
        mask |= 1 << 6
    return mask


def relpos_masks(instance: Instance) -> dict[tuple[int, int], tuple[int, int]]:
    """The avoid and favour triples as one table (i, k) -> (allowed, required)
    over i < k.

    Two boxes of a pair sharing a bin, with separation_mask(i's box, k's box)
    = mask, satisfy their triples when mask & allowed is nonzero (a position
    that is not avoided holds) and mask & required == required (every
    favoured position holds).
    """
    return _masks(instance.relpos_avoid, instance.relpos_favour)


def _masks(avoid: Iterable[tuple[int, int, int]],
           favour: Iterable[tuple[int, int, int]]) -> dict[tuple[int, int], tuple[int, int]]:
    """relpos_masks's table over the given triples."""
    table: dict[tuple[int, int], tuple[int, int]] = {}
    for i, k, q in avoid:
        allowed, required = table.get((i, k), (ALL_RELPOS, 0))
        table[(i, k)] = (allowed & ~(1 << q), required)
    for i, k, q in favour:
        allowed, required = table.get((i, k), (ALL_RELPOS, 0))
        table[(i, k)] = (allowed, required | 1 << q)
    return table


def nonredundant_orientations(item: Item) -> frozenset[int]:
    """Non-redundant orientation set K_i for the item's symmetry class.

    Empty set means the orientation is fixed (cube: all six are equivalent,
    so k=1 is taken by convention).
    """
    l, w, h = item.l, item.w, item.h
    if l == w == h:
        return frozenset()
    if w == h != l:
        return frozenset({1, 3, 4})
    if l == h != w:
        return frozenset({1, 2, 3})
    if l == w != h:
        return frozenset({1, 2, 5})
    return frozenset(ORIENTATIONS)


def allowed_orientations(item: Item) -> frozenset[int]:
    """K_i, or {1} for cubes (the fixed-orientation convention)."""
    ks = nonredundant_orientations(item)
    return ks if ks else frozenset({1})


def effective_dims(item: Item, k: int) -> tuple[int, int, int]:
    """Effective (x', y', z') of the item under orientation k."""
    try:
        perm = _ORIENT_PERM[k]
    except KeyError:
        raise ValueError(f"orientation must be in 1..6, got {k}") from None
    dims = item.dims
    return (dims[perm[0]], dims[perm[1]], dims[perm[2]])


def fits_in_bin(item: Item, k: int, bin_spec: BinSpec) -> bool:
    a, b, c = effective_dims(item, k)
    return a <= bin_spec.L and b <= bin_spec.W and c <= bin_spec.H


def kappa(instance: Instance) -> int:
    """Total count of orientation variables: sum of |K_i| over items."""
    return sum(len(nonredundant_orientations(it)) for it in instance.items)


def default_bin_count(items: Iterable[Item], L: int, W: int, H: int,
                      max_weight: Optional[int] = None) -> int:
    """Default upper bound n: volume bound + 1, also weight bound + 1 if capped."""
    items = list(items)
    n = math.ceil(sum(it.volume for it in items) / (L * W * H)) + 1
    if max_weight is not None:
        n = max(n, math.ceil(sum(it.mu for it in items) / max_weight) + 1)
    return n


@dataclass(frozen=True)
class Placement:
    """Back-lower-left corner of one item in global coordinates."""

    item: int
    bin: int
    k: int
    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        _require_ints(self, ("item", "bin", "k", "x", "y", "z"), "placement ")
        if self.item < 0:
            raise ValueError("placement item index must be >= 0")
        if self.bin < 1:
            raise ValueError("bin index is 1-based")
        if self.k not in ORIENTATIONS:
            raise ValueError(f"orientation must be in 1..6, got {self.k}")
        if min(self.x, self.y, self.z) < 0:
            raise ValueError("corner coordinates must be >= 0")

    @property
    def corner(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class PackingSolution:
    """Placements for all items plus the objective breakdown.

    o3 is present exactly when the instance has a center-of-mass target.
    """

    placements: tuple[Placement, ...]
    o1: Optional[int] = None
    o2: Optional[Fraction] = None
    o3: Optional[Fraction] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "placements", tuple(self.placements))
        if not self.placements:
            raise ValueError("solution needs at least one placement")

    @property
    def bins_used(self) -> int:
        return len({p.bin for p in self.placements})
