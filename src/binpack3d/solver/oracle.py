"""Exhaustive referee for tiny instances.

Enumerates item-to-bin maps, non-redundant orientations and every integer
corner on the bin grid; the independent validator gets the final say on each
complete layout, and the first lexicographic (o1, o2, o3) optimum found is
returned. Deterministic by construction. Partial layouts are pruned on
overlap, weight, affinity and relative-position conflicts plus an objective
lower bound; none of these can exclude a strictly better completion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
from ..validate import check, objectives
from .config import SolveResult, solution_energy


class OracleCapError(ValueError):
    """Instance exceeds the exhaustive-search caps."""


@dataclass(frozen=True)
class OracleLimits:
    max_items: int = 4
    max_bin_volume: int = 64
    max_bins: int = 2


def solve_oracle(instance: Instance, limits: Optional[OracleLimits] = None,
                 weights=(1, 1, 1)) -> SolveResult:
    limits = limits or OracleLimits()
    if instance.m > limits.max_items:
        raise OracleCapError(f"m={instance.m} exceeds oracle cap {limits.max_items}")
    if instance.bin.volume > limits.max_bin_volume:
        raise OracleCapError(
            f"bin volume {instance.bin.volume} exceeds oracle cap {limits.max_bin_volume}")
    if instance.bin.n > limits.max_bins:
        raise OracleCapError(f"n={instance.bin.n} exceeds oracle cap {limits.max_bins}")

    started = time.monotonic()
    m = instance.m
    L, W, H = instance.bin.L, instance.bin.W, instance.bin.H
    n = instance.bin.n
    max_weight = instance.bin.max_weight
    mu = [it.mu for it in instance.items]
    cat = [it.category for it in instance.items]
    neg = instance.affinities.negative
    has_com = instance.com_target is not None

    group = positive_groups(instance.affinities)
    relpos, _ = relpos_masks(instance)

    orients = [
        [(k, effective_dims(it, k)) for k in sorted(allowed_orientations(it))]
        for it in instance.items
    ]
    min_height = [min(d[2] for _, d in orients[i]) for i in range(m)]
    rest_min = [Fraction(sum(min_height[i:]), m * H) for i in range(m + 1)]

    # placed: (item, bin, k, (x, y, z) bin-local, (a, b, c))
    placed: list[tuple[int, int, int, tuple, tuple]] = []
    best: dict = {"solution": None, "key": None}

    def pair_ok(i: int, pi_xyz, pi_dims, k: int, pk_xyz, pk_dims) -> bool:
        if i < k:
            mask = separation_mask(pi_xyz, pi_dims, pk_xyz, pk_dims)
            rule = relpos.get((i, k))
        else:
            mask = separation_mask(pk_xyz, pk_dims, pi_xyz, pi_dims)
            rule = relpos.get((k, i))
        if not mask:
            return False
        if rule is None:
            return True
        allowed, required = rule
        return bool(mask & allowed) and mask & required == required

    def leaf() -> None:
        placements = tuple(
            Placement(item=i, bin=j, k=k, x=xyz[0] + (j - 1) * L, y=xyz[1], z=xyz[2])
            for (i, j, k, xyz, _) in sorted(placed)
        )
        sol = PackingSolution(placements)
        if not check(instance, sol).feasible:
            return
        o1, o2, o3 = objectives(instance, sol)
        key = (o1, o2, o3 if o3 is not None else Fraction(0))
        if best["key"] is None or key < best["key"]:
            best["key"] = key
            best["solution"] = PackingSolution(placements, o1=o1, o2=o2, o3=o3)

    def prune(opened: int, o2_lb: Fraction) -> bool:
        key = best["key"]
        if key is None:
            return False
        if opened > key[0]:
            return True
        if opened == key[0]:
            if o2_lb > key[1]:
                return True
            # without an o3 term a tie in (o1, o2) cannot improve the key
            if not has_com and o2_lb >= key[1]:
                return True
        return False

    def dfs(i: int, opened: int, loads: list[int], o2_partial: Fraction) -> None:
        if i == m:
            leaf()
            return
        if prune(opened, o2_partial + rest_min[i]):
            return
        g = group.get(cat[i])
        locked = None
        if g is not None:
            for (pi, pj, _, _, _) in placed:
                if group.get(cat[pi]) == g:
                    locked = pj
                    break
        for j in range(1, min(opened + 1, n) + 1):
            if locked is not None and j != locked:
                continue
            if best["key"] is not None and max(opened, j) > best["key"][0]:
                continue
            if max_weight is not None and loads[j] + mu[i] > max_weight:
                continue
            if neg and any(
                pj == j and (min(cat[i], cat[pi]), max(cat[i], cat[pi])) in neg
                for (pi, pj, _, _, _) in placed
            ):
                continue
            same_bin = [(pi, xyz, dims) for (pi, pj, _, xyz, dims) in placed if pj == j]
            for k, (a, b, c) in orients[i]:
                if a > L or b > W or c > H:
                    continue
                for z in range(0, H - c + 1):
                    if prune(max(opened, j),
                             o2_partial + Fraction(z + c, m * H) + rest_min[i + 1]):
                        break
                    for y in range(0, W - b + 1):
                        for x in range(0, L - a + 1):
                            if all(pair_ok(i, (x, y, z), (a, b, c), pi, xyz, dims)
                                   for (pi, xyz, dims) in same_bin):
                                placed.append((i, j, k, (x, y, z), (a, b, c)))
                                loads[j] += mu[i]
                                dfs(i + 1, max(opened, j), loads,
                                    o2_partial + Fraction(z + c, m * H))
                                loads[j] -= mu[i]
                                placed.pop()

    dfs(0, 0, [0] * (n + 1), Fraction(0))
    elapsed = time.monotonic() - started
    sol = best["solution"]
    if sol is None:
        return SolveResult(None, None, elapsed, (),
                           infeasible_reason="exhaustive search found no feasible packing")
    energy = solution_energy(instance, sol.o1, sol.o2, sol.o3, weights)
    return SolveResult(sol, energy, elapsed, (energy,))
