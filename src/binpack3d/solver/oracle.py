"""Exhaustive referee for tiny instances.

Enumerates item-to-bin maps, non-redundant orientations and every integer
corner on the bin grid; the independent validator gets the final say on each
complete layout, and the first lexicographic (o1, o2, o3) optimum found is
returned. Deterministic by construction. Partial layouts are placed through
the heuristic's packing state, so they are pruned by its admits (weight cap,
free volume, affinities) and fits (overlap, relative positions), plus an
objective lower bound; none of these can exclude a strictly better completion.
"""

from __future__ import annotations

import time
from fractions import Fraction

from ..core import Instance, PackingSolution
from ..validate import objectives
from .config import SolveResult, solution_energy
from .heuristic import _Bin, _Ctx, _Packing


# the largest instance the exhaustive search accepts
MAX_ITEMS = 4
MAX_BIN_VOLUME = 64
MAX_BINS = 2


class OracleCapError(ValueError):
    """Instance exceeds the exhaustive-search caps."""


def solve_oracle(instance: Instance, weights=(1, 1, 1)) -> SolveResult:
    if instance.m > MAX_ITEMS:
        raise OracleCapError(f"m={instance.m} exceeds oracle cap {MAX_ITEMS}")
    if instance.bin.volume > MAX_BIN_VOLUME:
        raise OracleCapError(
            f"bin volume {instance.bin.volume} exceeds oracle cap {MAX_BIN_VOLUME}")
    if instance.bin.n > MAX_BINS:
        raise OracleCapError(f"n={instance.bin.n} exceeds oracle cap {MAX_BINS}")

    started = time.monotonic()
    m, n = instance.m, instance.bin.n
    has_com = instance.com_target is not None
    # weighting o2 alone makes an item's tail z + c and D = m H, so pk.tail / D
    # is the placed items' share of o2
    ctx = _Ctx(instance, (0, 1, 0))
    pk = _Packing(ctx)
    pk.bins = [_Bin() for _ in range(n)]
    # rest[i]: the least o2 tail, times D, that items i.. can add
    rest = [sum(ctx.min_c[t] for t in range(i, m)) for i in range(m + 1)]
    best: dict = {"solution": None, "key": None}

    def leaf() -> None:
        sol = pk.to_solution()
        try:
            o1, o2, o3 = objectives(instance, sol)
        except ValueError:  # the validator rejects the layout
            return
        key = (o1, o2, o3 if o3 is not None else Fraction(0))
        if best["key"] is None or key < best["key"]:
            best["key"] = key
            best["solution"] = PackingSolution(sol.placements, o1=o1, o2=o2, o3=o3)

    def prune(opened: int, tail_lb: int) -> bool:
        """tail_lb: a lower bound of the layout's o2, times D."""
        key = best["key"]
        if key is None:
            return False
        if opened > key[0]:
            return True
        if opened == key[0]:
            o2_lb = Fraction(tail_lb, ctx.D)
            if o2_lb > key[1]:
                return True
            # without an o3 term a tie in (o1, o2) cannot improve the key
            if not has_com and o2_lb >= key[1]:
                return True
        return False

    def dfs(i: int, opened: int) -> None:
        if i == m:
            leaf()
            return
        # the bins in use are always 0 .. opened - 1, so at most one new one
        for j in range(min(opened + 1, n)):
            used = max(opened, j + 1)
            if prune(used, pk.tail + rest[i]) or not pk.admits(i, j):
                continue
            for shape in ctx.shapes[i]:
                k, dims, _, _, _, xm, ym, zm = shape
                if xm < 0 or ym < 0 or zm < 0:
                    continue
                a, b, c = dims
                for z in range(zm + 1):
                    tail = ctx.item_tail(shape, 0, 0, z)
                    if prune(used, pk.tail + tail + rest[i + 1]):
                        break
                    for y in range(ym + 1):
                        for x in range(xm + 1):
                            if pk.fits(i, j, dims, x, y, z):
                                pk.put(i, j, (i, k, x, y, z, x + a, y + b, z + c), tail)
                                dfs(i + 1, used)
                                pk.lift(i)

    dfs(0, 0)
    elapsed = time.monotonic() - started
    sol = best["solution"]
    if sol is None:
        return SolveResult(None, None, elapsed, (),
                           infeasible_reason="exhaustive search found no feasible packing")
    energy = solution_energy(instance, sol.o1, sol.o2, sol.o3, weights)
    return SolveResult(sol, energy, elapsed, (energy,))
