"""Command-line entry point: generate / build / solve / validate / render / stats.

Exit codes: 0 success (validate: feasible), 1 infeasible solution from
validate, 2 usage or input error, 3 solver found no feasible solution.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import datagen, fileio
from .lp import export_lp
from .model import audit_counts, build_model, count_model
from .render import render_to_file
from .solver import OracleCapError, SolverConfig, run_stats, solve
from .solver.config import BACKENDS
from .validate import check


def _counts_json(counts) -> str:
    return json.dumps(counts.as_dict(), sort_keys=True)


def cmd_generate(args) -> int:
    if args.archetype is not None:
        instance = datagen.archetype(args.archetype, seed=args.seed)
    else:
        if args.items is None or args.bin is None:
            raise ValueError("--items and --bin are required without --archetype")
        spec = datagen.GenSpec(
            item_count=args.items,
            seed=args.seed if args.seed is not None else 0,
            bin_dims=tuple(args.bin),
            max_weight=args.max_weight,
            positive_affinities=args.pos_affinities,
            negative_affinities=args.neg_affinities,
            eta=fileio.rational_from_json(args.eta) if args.eta else None,
            com_target=tuple(args.com) if args.com else None,
            bins_upper=args.bins,
            category_count=args.categories,
        )
        instance = datagen.generate(spec)
    fileio.save_instance(instance, args.out)
    print(f"wrote {args.out} ({instance.m} items, n={instance.bin.n})")
    return 0


def cmd_build(args) -> int:
    instance = fileio.load_instance(args.instance)
    counts = count_model(instance)
    if args.counts_only:
        print(_counts_json(counts))
        return 0
    model = build_model(instance)
    audited = audit_counts(model)
    if audited.as_dict() != counts.as_dict():
        raise ValueError("count audit mismatch (internal error)")
    print(_counts_json(counts))
    if args.export_lp:
        export_lp(model, args.export_lp)
        print(f"wrote {args.export_lp}")
    return 0


def cmd_solve(args) -> int:
    instance = fileio.load_instance(args.instance)
    config = SolverConfig(
        backend=args.backend,
        time_limit=args.time_limit,
        seed=args.seed,
        runs=args.runs,
        iterations=args.iterations,
    )
    result = solve(instance, config)
    if result.best is None:
        print(f"infeasible: {result.infeasible_reason}", file=sys.stderr)
        return 3
    if args.out:
        fileio.save_solution(
            result.best, args.out,
            energy=result.energy,
            solver=args.backend,
            seed=args.seed,
            elapsed_s=result.elapsed,
            time_limit=None if args.iterations is not None else args.time_limit,
            iterations=args.iterations,
            run_log=result.run_log,
            instance_name=Path(args.instance).stem,
        )
    stats = run_stats(result.run_log)
    print(json.dumps({"energy": float(result.energy), **stats.as_dict()},
                     sort_keys=True))
    return 0


def cmd_validate(args) -> int:
    instance = fileio.load_instance(args.instance)
    solution, _ = fileio.load_solution(args.solution)
    report = check(instance, solution)
    print(json.dumps(report.as_list()))
    return 0 if report.feasible else 1


def cmd_render(args) -> int:
    instance = fileio.load_instance(args.instance)
    solution, _ = fileio.load_solution(args.solution)
    render_to_file(instance, solution, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_stats(args) -> int:
    rows: dict[tuple, list] = {}
    for path in args.runlogs:
        _, meta = fileio.load_solution(path)
        # 5 seconds and 5 iterations are different budgets, so the row key
        # holds the budget's kind as well as its value
        kind = "time_limit" if meta["time_limit"] is not None else "iterations"
        key = (meta["instance"] or Path(path).stem, kind, meta[kind])
        rows.setdefault(key, []).extend(meta["run_log"])
    header = ("instance", "time_limit", "mean", "std", "sigma_bar", "min", "max")
    table = []
    for (name, kind, budget), energies in sorted(
            rows.items(), key=lambda kv: (kv[0][0], kv[0][1] == "iterations", kv[0][2] or 0)):
        if not energies:
            continue
        st = run_stats(energies)
        if kind == "iterations" and budget is not None:
            budget = f"{budget} iterations"
        table.append((name, budget, float(st.mean), st.std, float(st.sigma_bar),
                      float(st.minimum), float(st.maximum)))
    widths = [max(len(str(r[i])) for r in ([header] + table)) for i in range(len(header))]
    for row in [header] + table:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    if args.csv:
        lines = [",".join(header)]
        for row in table:
            lines.append(",".join(str(v) for v in row))
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binpack3d",
        description="3D bin packing: instances, quadratic models, solvers, validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an instance file")
    p.add_argument("--archetype", type=int, default=None,
                   help="standard benchmark row 1..12")
    p.add_argument("--items", type=int, default=None)
    p.add_argument("--bin", type=int, nargs=3, metavar=("L", "W", "H"), default=None)
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--eta", type=str, default=None)
    p.add_argument("--com", type=int, nargs=2, metavar=("LT", "WT"), default=None)
    p.add_argument("--pos-affinities", type=int, default=0)
    p.add_argument("--neg-affinities", type=int, default=0)
    p.add_argument("--categories", type=int, default=10)
    p.add_argument("--bins", type=int, default=None, help="explicit bin upper bound n")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="compile the model; print size counts")
    p.add_argument("--instance", required=True)
    p.add_argument("--counts-only", action="store_true",
                   help="closed-form counts without building the model")
    p.add_argument("--export-lp", default=None, metavar="PATH")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--backend", choices=BACKENDS, default="heuristic")
    p.add_argument("--time-limit", type=float, default=5.0)
    p.add_argument("--iterations", type=int, default=None,
                   help="iteration-count mode: deterministic, ignores the clock")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="check a solution against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("render", help="render a solution to SVG")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("stats", help="aggregate run logs into a stats table")
    p.add_argument("--runlogs", nargs="+", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleCapError as exc:
        print(f"oracle refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # e.g. run-log energies whose statistics exceed a float
        print(f"error: number out of range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
