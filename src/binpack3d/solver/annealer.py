"""Penalty-method simulated annealing over the compiled quadratic model.

State is a full integer assignment (binary flips, integer coordinate steps,
plus one-hot repair proposals for the u/b/v groups), indexed by variable id
through the model's per-family id lists. Each state is evaluated exactly by
the model's integer kernel: rows are integers over a positive scale, so the
objective and the sum of squared constraint violations come out as exact
rationals. Floats appear only in the Metropolis test, whose energy is the
objective plus a growing penalty weight times that sum. A run only yields
a solution when its best assignment has zero violations. Seeding, budget,
validator pass and result come from the run driver, config.run_backend.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

from ..core import (
    Instance,
    PackingSolution,
    Placement,
    effective_dims,
)
from ..model import QuadraticModel, build_model, energy_terms
from .config import NoSolution, SolveResult, SolverConfig, Stop, run_backend

# annealing schedule: geometric cooling with a periodic reheat, and a
# penalty weight on squared violations that grows every interval to a cap
INITIAL_TEMPERATURE = 3.0
COOLING = 0.9995
REHEAT_INTERVAL = 2500
PENALTY_WEIGHT = 2.0
PENALTY_GROWTH = 1.3
PENALTY_INTERVAL = 600
PENALTY_CAP = 200.0


def _initial_values(instance: Instance, model: QuadraticModel,
                    item_r: dict[int, list[tuple[int, int]]],
                    pair_b: dict[tuple[int, int], list[tuple[int, int]]],
                    rng: random.Random) -> list[int]:
    """Everything starts in bin 1 at random in-bin coordinates; the repair
    moves spread items out from there."""
    index = model.index
    values = [0] * len(model.variables)
    if model.n >= 2:
        for ids in index.u:
            values[ids[0]] = 1
        values[index.v[0]] = 1
    for choices in item_r.values():
        values[choices[rng.randrange(len(choices))][1]] = 1
    for qs in pair_b.values():
        values[qs[rng.randrange(len(qs))][1]] = 1
    # one draw per continuous variable in id order; x and xt stay inside bin 1
    in_bin_1 = set(index.x) | set(index.xt)
    for var in model.variables:
        if not var.binary:
            hi = min(int(var.upper), instance.bin.L - 1) if var.id in in_bin_1 else int(var.upper)
            values[var.id] = rng.randint(0, max(0, hi))
    return values


def _decode(model: QuadraticModel, values: list[int]) -> PackingSolution:
    """The placements of a violation-free assignment: its one_bin and
    orientation rows hold, so each item has exactly one bin and orientation."""
    index = model.index
    placements = []
    for i in range(model.m):
        j = 1 + [values[vid] for vid in index.u[i]].index(1) if model.n >= 2 else 1
        k = next((k for k, vid in index.r.get(i, {}).items() if values[vid]), 1)
        x, y, z = (values[coord[i]] for coord in (index.x, index.y, index.z))
        placements.append(Placement(item=i, bin=j, k=k, x=x, y=y, z=z))
    return PackingSolution(tuple(placements))


def _anneal_run(instance: Instance, model: QuadraticModel, rng: random.Random,
                stop: Stop) -> tuple[Optional[list[int]], int]:
    """The best violation-free assignment seen (None if there was none) and
    the number of moves made."""
    n, m = model.n, model.m
    L = instance.bin.L
    steps = sorted({1, max(1, L // 8), max(1, L // 2)})

    index = model.index
    binary = [v.binary for v in model.variables]
    lower = [int(v.lower) for v in model.variables]
    upper = [int(v.upper) for v in model.variables]
    cont_ids = [v.id for v in model.variables if not v.binary]
    bin_ids = [v.id for v in model.variables if v.binary]
    item_u = index.u
    item_r = {i: list(ks.items()) for i, ks in index.r.items()}
    r_items = sorted(item_r)
    pair_b = {pair: list(qs.items()) for pair, qs in index.b.items()}
    pairs = sorted(pair_b)
    values = _initial_values(instance, model, item_r, pair_b, rng)
    coord_ids = list(zip(index.x, index.y, index.z))

    def current_dims(i: int) -> tuple[int, int, int]:
        item = instance.items[i]
        for k, vid in item_r.get(i, ()):
            if values[vid] == 1:
                return effective_dims(item, k)
        return (item.l, item.w, item.h)

    obj, viol2 = energy_terms(model, values)
    pw = PENALTY_WEIGHT
    temp = INITIAL_TEMPERATURE
    best_values: Optional[list[int]] = None
    best_obj = math.inf
    if viol2 == 0:
        best_values, best_obj = list(values), obj

    iters = 0
    while not stop(iters):
        iters += 1
        touched: list[tuple[int, int]] = []

        def setval(vid: int, val: int) -> None:
            if values[vid] != val:
                touched.append((vid, values[vid]))
                values[vid] = val

        r = rng.random()
        if r < 0.25 and bin_ids:
            vid = bin_ids[rng.randrange(len(bin_ids))]
            setval(vid, 1 - values[vid])
        elif r < 0.45 and cont_ids:
            vid = cont_ids[rng.randrange(len(cont_ids))]
            delta = steps[rng.randrange(len(steps))] * (1 if rng.random() < 0.5 else -1)
            val = min(max(values[vid] + delta, lower[vid]), upper[vid])
            setval(vid, val)
        elif r < 0.60:
            # snap one item to a corner point induced by its bin mates
            i = rng.randrange(m)
            if n >= 2:
                mine = [jj for jj in range(1, n + 1) if values[item_u[i][jj - 1]] == 1]
                j = mine[0] if len(mine) == 1 else rng.randrange(1, n + 1)
            else:
                j = 1
            cands = [(0, 0, 0)]
            for o in range(m):
                if o == i:
                    continue
                if n >= 2 and values[item_u[o][j - 1]] != 1:
                    continue
                do = current_dims(o)
                ox = values[coord_ids[o][0]] - (j - 1) * L
                oy = values[coord_ids[o][1]]
                oz = values[coord_ids[o][2]]
                cands.extend(((ox + do[0], oy, oz), (ox, oy + do[1], oz),
                              (ox, oy, oz + do[2])))
            cx, cy, cz = cands[rng.randrange(len(cands))]
            xid, yid, zid = coord_ids[i]
            setval(xid, min(max(cx + (j - 1) * L, lower[xid]), upper[xid]))
            setval(yid, min(max(cy, lower[yid]), upper[yid]))
            setval(zid, min(max(cz, lower[zid]), upper[zid]))
        elif r < 0.72 and item_u:
            # move one item to a bin and resync every v with its column
            i = rng.randrange(m)
            j = rng.randrange(1, n + 1)
            for jj, vid in enumerate(item_u[i], start=1):
                setval(vid, 1 if jj == j else 0)
            for jj in range(1, n + 1):
                used = any(values[item_u[ii][jj - 1]] for ii in range(m))
                setval(index.v[jj - 1], 1 if used else 0)
        elif r < 0.82 and r_items:
            i = r_items[rng.randrange(len(r_items))]
            choices = item_r[i]
            _, chosen = choices[rng.randrange(len(choices))]
            for _, vid in choices:
                setval(vid, 1 if vid == chosen else 0)
        elif pairs:
            # align one pair's relative-position bit with the geometry
            i, k = pairs[rng.randrange(len(pairs))]
            qs = sorted(pair_b[(i, k)])
            xi, yi, zi = (values[c] for c in coord_ids[i])
            xk, yk, zk = (values[c] for c in coord_ids[k])
            di = current_dims(i)
            dk = current_dims(k)
            slack = {1: xk - (xi + di[0]), 2: yk - (yi + di[1]), 3: zk - (zi + di[2]),
                     4: xi - (xk + dk[0]), 5: yi - (yk + dk[1]), 6: zi - (zk + dk[2])}
            ranked = sorted(qs, key=lambda qv: -slack[qv[0]])
            chosen = ranked[0][1]
            for _, vid in qs:
                setval(vid, 1 if vid == chosen else 0)
        else:
            vid = bin_ids[rng.randrange(len(bin_ids))] if bin_ids else cont_ids[0]
            setval(vid, 1 - values[vid] if binary[vid] else values[vid])

        new_obj, new_viol2 = energy_terms(model, values)
        # rounded once from the exact energies, so exact ties stay ties
        old_e = float(obj + Fraction(pw) * viol2)
        new_e = float(new_obj + Fraction(pw) * new_viol2)
        accept = new_e <= old_e or rng.random() < math.exp(
            min(0.0, (old_e - new_e) / max(temp, 1e-12)))
        if accept:
            obj, viol2 = new_obj, new_viol2
            if viol2 == 0 and obj < best_obj:
                best_values, best_obj = list(values), obj
        else:
            for vid, old in reversed(touched):
                values[vid] = old
        temp *= COOLING
        if iters % PENALTY_INTERVAL == 0:
            pw = min(pw * PENALTY_GROWTH, PENALTY_CAP)
        if iters % REHEAT_INTERVAL == 0:
            temp = INITIAL_TEMPERATURE
    return best_values, iters


def _prepare(instance: Instance, config: SolverConfig) -> tuple[Instance, QuadraticModel]:
    return instance, build_model(instance, config.weights)


def _run(prepared: tuple[Instance, QuadraticModel], rng: random.Random, stop: Stop):
    instance, model = prepared
    values, moves = _anneal_run(instance, model, rng, stop)
    if values is None and not moves:
        raise NoSolution("annealer made no move: the budget ran out before the first "
                         "one, and the random start violates the model")
    if values is None:
        raise NoSolution("annealer found no violation-free assignment")
    return _decode(model, values), None


def solve_annealer(instance: Instance, config: SolverConfig) -> SolveResult:
    """Penalty annealing over the compiled model, config.runs times. The
    reported energy is the weighted objective of the decoded placements (the
    raw assignment may leave slack in the deviation variables)."""
    return run_backend(instance, config, _prepare, _run)
