#!/usr/bin/env python3
"""Print digests that pin the model compiler's, the solvers' and the JSON
writer's output.

Six sections, each a sha256 over canonical text:

* ``archetypes``: for each of the twelve archetypes (seed 0), the LP text,
  the closed-form counts and the audit of the built model.
* ``models``: the LP text and closed-form counts of both ``reductions``
  variants on a fixed, seeded set of small instances with avoid and favour
  triples, eta, and negative and positive affinities.
* ``annealer``: ``solve_annealer`` (best placements, energy, run log) on a
  fixed, seeded set of small random instances with fractional CoM targets,
  fractional objective weights and every model feature; one short digest
  per instance, then one over all of them.
* ``heuristic``: ``solve_heuristic`` (best placements, energy, run log and
  checkpoint energies at iterations 0, 10 and 40) on archetypes 1-12 with
  seeds 0 and 1, 40 iterations and two runs each.
* ``oracle``: ``solve_oracle`` (best placements, energy, run log and
  infeasibility reason) on a fixed, seeded set of instances within the
  oracle's caps, with fractional objective weights.
* ``io``: the bytes ``save_instance`` and ``save_solution`` write for each
  of the heuristic section's instances and solves.

A refactor that must not change output leaves every line the same, so run
this on the old and the new tree and compare.

Usage:
    python scripts/model_digest.py [--instances 40] [--iterations 1500]
"""

import argparse
import hashlib
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from binpack3d import (
    Affinities,
    BinSpec,
    Instance,
    Item,
    SolverConfig,
    archetype,
    audit_counts,
    build_model,
    count_model,
    load_bearing_avoid,
    lp_string,
    solve_annealer,
    solve_heuristic,
    solve_oracle,
)
from binpack3d.fileio import save_instance, save_solution

MODEL_INSTANCES = 40
ORACLE_INSTANCES = 12


def small_instance(rng: random.Random) -> Instance:
    """Two to five items in one or two small bins, with a fractional CoM
    target and, at random, a weight cap, eta, affinities and a favoured pair."""
    m = rng.randint(2, 5)
    n = rng.randint(1, 2)
    L, W, H = (rng.randint(3, 6) for _ in range(3))
    items = tuple(
        Item(index=i, l=rng.randint(1, 3), w=rng.randint(1, 3), h=rng.randint(1, 3),
             mu=rng.randint(1, 9), category=rng.randrange(3))
        for i in range(m)
    )
    max_weight = None
    if rng.random() < 0.3:
        max_weight = max(it.mu for it in items) + rng.randint(0, 9)
    negative = frozenset()
    cats = sorted({it.category for it in items})
    if rng.random() < 0.3 and len(cats) >= 2:
        negative = frozenset({tuple(rng.sample(cats, 2))})
    eta = Fraction(3, 2) if rng.random() < 0.4 else None
    favour = frozenset()
    if eta is None and rng.random() < 0.3:  # eta's avoid triples may clash with it
        favour = frozenset({(0, 1, rng.randint(1, 6))})
    return Instance(
        items=items,
        bin=BinSpec(L, W, H, max_weight=max_weight, n=n),
        affinities=Affinities(negative=negative),
        eta=eta,
        com_target=(Fraction(rng.randint(0, 2 * L), 2), Fraction(rng.randint(0, 3 * W), 3)),
        relpos_favour=favour,
    )


def relpos_instance(rng: random.Random) -> Instance:
    """Two to six items in one to three bins, with at random eta, one negative
    and one positive category pair, and avoid and favour triples on distinct
    pairs (a favoured pair also clear of eta's avoid triples)."""
    m = rng.randint(2, 6)
    items = tuple(
        Item(index=i, l=rng.randint(1, 3), w=rng.randint(1, 3), h=rng.randint(1, 3),
             mu=rng.randint(1, 9), category=rng.randrange(4))
        for i in range(m)
    )
    cats = sorted({it.category for it in items})
    negative = positive = frozenset()
    if len(cats) >= 2 and rng.random() < 0.5:
        negative = frozenset({tuple(sorted(rng.sample(cats, 2)))})
    if len(cats) >= 2 and rng.random() < 0.5:
        positive = frozenset({tuple(sorted(rng.sample(cats, 2)))}) - negative
    eta = Fraction(rng.randint(3, 5), 2) if rng.random() < 0.5 else None
    pairs = [(i, k) for i in range(m) for k in range(i + 1, m)]
    rng.shuffle(pairs)
    derived = {(i, k) for i, k, _ in load_bearing_avoid(items, eta)} if eta else set()
    favour = {(*pair, rng.randint(1, 6)) for pair in pairs[:rng.randint(0, 2)]
              if pair not in derived}
    avoid = {(*pair, q) for pair in pairs[2:2 + rng.randint(0, 3)]
             for q in rng.sample(range(1, 7), rng.randint(1, 4))}
    return Instance(
        items=items,
        bin=BinSpec(*(rng.randint(3, 6) for _ in range(3)), n=rng.randint(1, 3)),
        affinities=Affinities(positive=positive, negative=negative),
        eta=eta,
        relpos_avoid=frozenset(avoid),
        relpos_favour=frozenset(favour),
    )


def model_digest() -> str:
    rng = random.Random(20261020)
    h = hashlib.sha256()
    for _ in range(MODEL_INSTANCES):
        inst = relpos_instance(rng)
        for reductions in (True, False):
            h.update(lp_string(build_model(inst, reductions=reductions)).encode())
            h.update(repr(count_model(inst, reductions=reductions)).encode())
    return h.hexdigest()


def archetype_digest() -> str:
    h = hashlib.sha256()
    for number in range(1, 13):
        inst = archetype(number, seed=0)
        model = build_model(inst)
        h.update(lp_string(model).encode())
        h.update(json.dumps(count_model(inst).as_dict(), sort_keys=True).encode())
        h.update(repr(audit_counts(model)).encode())
    return h.hexdigest()


def annealer_digests(instances: int, iterations: int) -> list[tuple[str, object]]:
    """(sha256, energy) of each instance's annealer result."""
    rng = random.Random(20261018)
    out = []
    for trial in range(instances):
        inst = small_instance(rng)
        weights = (Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                   Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                   Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        result = solve_annealer(inst, SolverConfig(
            backend="annealer", iterations=iterations, seed=trial, runs=2, weights=weights))
        text = repr((result.best, result.energy, result.run_log))
        out.append((hashlib.sha256(text.encode()).hexdigest(), result.energy))
    return out


def heuristic_digests() -> tuple[str, str]:
    """The heuristic section's digest and the io section's, over the same solves."""
    h, io = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, sol_path = Path(tmp) / "instance.json", Path(tmp) / "solution.json"
        for number in range(1, 13):
            for seed in (0, 1):
                inst = archetype(number, seed=seed)
                result = solve_heuristic(inst, SolverConfig(iterations=40, seed=seed, runs=2),
                                         checkpoints=[0, 10, 40])
                h.update(repr((result.best, result.energy, result.run_log,
                               result.checkpoint_runs)).encode())
                save_instance(inst, inst_path)
                save_solution(result.best, sol_path, energy=result.energy, solver="heuristic",
                              seed=seed, iterations=40, run_log=result.run_log,
                              instance_name=f"archetype_{number:02d}")
                io.update(inst_path.read_bytes())
                io.update(sol_path.read_bytes())
    return h.hexdigest(), io.hexdigest()


def oracle_digest() -> str:
    """Two or three items in one or two bins of volume at most 64."""
    rng = random.Random(20261019)
    h = hashlib.sha256()
    for _ in range(ORACLE_INSTANCES):
        m = rng.randint(2, 3)
        items = tuple(Item(index=i, l=rng.randint(1, 2), w=rng.randint(1, 2),
                           h=rng.randint(1, 2), mu=rng.randint(1, 4), category=i)
                      for i in range(m))
        inst = Instance(
            items=items,
            bin=BinSpec(rng.randint(2, 4), 2, rng.randint(2, 4), n=rng.randint(1, 2)),
            affinities=Affinities(negative=frozenset({(0, 1)}) if rng.random() < 0.3
                                  else frozenset()),
            com_target=(Fraction(rng.randint(0, 4), 2), Fraction(1)) if rng.random() < 0.5
            else None,
        )
        weights = (1, Fraction(rng.randint(1, 3), 2), Fraction(rng.randint(1, 3), 3))
        result = solve_oracle(inst, weights=weights)
        h.update(repr((result.best, result.energy, result.run_log,
                       result.infeasible_reason)).encode())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=40)
    parser.add_argument("--iterations", type=int, default=1500)
    args = parser.parse_args()
    print(f"archetypes {archetype_digest()}")
    print(f"models     {model_digest()}")
    results = annealer_digests(args.instances, args.iterations)
    for trial, (digest, energy) in enumerate(results):
        print(f"  instance {trial:2d} {digest[:12]} energy {energy}")
    total = hashlib.sha256("".join(digest for digest, _ in results).encode()).hexdigest()
    solved = sum(energy is not None for _, energy in results)
    print(f"annealer   {total} ({solved}/{args.instances} solved)")
    heuristic, io = heuristic_digests()
    print(f"heuristic  {heuristic}")
    print(f"oracle     {oracle_digest()}")
    print(f"io         {io}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
