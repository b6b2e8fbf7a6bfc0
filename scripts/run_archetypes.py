#!/usr/bin/env python3
"""Generate, solve, validate and render the twelve standard archetypes.

Writes instances, solutions and SVG renders into an output directory and
prints one summary row per archetype, including how the compiled model size
compares to the reference counts.

Usage:
    python scripts/run_archetypes.py --out-dir results [--time-limit 30]
    python scripts/run_archetypes.py --out-dir results --iterations 300
"""

import argparse
import sys
import time
from pathlib import Path

from binpack3d import (
    ARCHETYPE_MODEL_SIZES,
    SolverConfig,
    archetypes,
    count_model,
    generate,
    render_to_file,
    solve_heuristic,
)
from binpack3d.datagen import ARCHETYPE_FLAGS
from binpack3d.fileio import save_instance, save_solution
from binpack3d.validate import check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--time-limit", type=float, default=30.0)
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    print(f"{'row':>3}  {'flags':<22} {'m':>3} {'n':>2} {'vars':>6} {'cons':>6} "
          f"{'dvar%':>6} {'dcon%':>6} {'o1':>3} {'energy':>9} {'time':>6}  ok")
    all_ok = True
    for row, spec in enumerate(archetypes(), start=1):
        instance = generate(spec)
        name = f"archetype_{row:02d}"
        save_instance(instance, out / f"{name}.json")
        counts = count_model(instance)
        ref_vars, ref_cons = ARCHETYPE_MODEL_SIZES[row]
        dvar = 100 * (counts.variables - ref_vars) / ref_vars
        dcon = 100 * (counts.total_constraints - ref_cons) / ref_cons

        config = SolverConfig(time_limit=args.time_limit, seed=args.seed,
                              iterations=args.iterations)
        started = time.monotonic()
        result = solve_heuristic(instance, config)
        elapsed = time.monotonic() - started
        if result.best is None:
            print(f"{row:>3}  infeasible: {result.infeasible_reason}")
            all_ok = False
            continue
        feasible = check(instance, result.best).feasible
        all_ok &= feasible
        save_solution(result.best, out / f"{name}_solution.json",
                      energy=result.energy, solver="heuristic", seed=args.seed,
                      elapsed_s=result.elapsed,
                      time_limit=None if args.iterations is not None else args.time_limit,
                      iterations=args.iterations, run_log=result.run_log,
                      instance_name=name)
        render_to_file(instance, result.best, out / f"{name}.svg")
        flags = ",".join(ARCHETYPE_FLAGS[row]) or "-"
        print(f"{row:>3}  {flags:<22} {instance.m:>3} {instance.bin.n:>2} "
              f"{counts.variables:>6} {counts.total_constraints:>6} "
              f"{dvar:>+6.1f} {dcon:>+6.1f} {result.best.o1:>3} "
              f"{float(result.energy):>9.4f} {elapsed:>5.1f}s  {feasible}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
