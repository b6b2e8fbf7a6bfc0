"""Real-world 3D bin packing: instance types, a constrained-quadratic-model
compiler, heuristic/annealing/exact solvers, an independent validator, a
benchmark generator, and SVG rendering."""

from .core import (
    Affinities,
    BinSpec,
    Instance,
    Item,
    PackingSolution,
    Placement,
    allowed_orientations,
    default_bin_count,
    effective_dims,
    kappa,
    load_bearing_avoid,
    mirror_relpos,
    nonredundant_orientations,
)
from .datagen import ARCHETYPE_MODEL_SIZES, GenSpec, archetype, archetypes, generate
from .lp import export_lp, lp_string
from .model import (
    Assignment,
    Constraint,
    ModelCounts,
    QuadExpr,
    QuadraticModel,
    Sense,
    VariableRef,
    audit_counts,
    build_model,
    count_model,
    encode_solution,
    evaluate,
    objective_breakdown,
)
from .render import PALETTE10, render_svg, render_to_file
from .solver import (
    OracleCapError,
    RunStats,
    SolveResult,
    SolverConfig,
    run_stats,
    solution_energy,
    solve,
    solve_annealer,
    solve_heuristic,
    solve_oracle,
)
from .validate import ViolationReport, Violation, check, objectives

__version__ = "0.1.0"
