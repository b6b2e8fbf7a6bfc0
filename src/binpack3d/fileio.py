"""Instance and solution JSON formats.

Both formats round-trip losslessly: rationals are written as plain ints
when integral and as "p/q" strings otherwise; emitted documents are
byte-deterministic (sorted keys, fixed separators, trailing newline).
Unknown keys are rejected on parse.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Union

from .core import (
    Affinities,
    BinSpec,
    Instance,
    PackingSolution,
    Placement,
    default_bin_count,
    Item,
)

PathLike = Union[str, Path]


def rational_to_json(value: Union[int, Fraction]) -> Union[int, str]:
    frac = Fraction(value)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"


def rational_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"expected a rational, got {value!r}") from None
    raise ValueError(f"expected a rational, got {value!r}")


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _dump(doc: dict) -> str:
    """doc as json.dumps(doc, indent=2, sort_keys=True) writes it, and a
    newline. Indented output makes json use its pure-Python encoder, so the
    containers are written here and only the scalars go through json."""
    parts: list[str] = []
    _emit(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _emit(value, newline: str, parts: list[str]) -> None:
    """Append value's JSON to parts; newline is a line break followed by
    the indentation of value's own line."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        parts.append(_CONSTANTS[value])
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(json.dumps(value))
    elif isinstance(value, (dict, list, tuple)):
        if not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if isinstance(value, dict):
            parts.append("{" + inner)
            for pos, key in enumerate(sorted(value)):
                if pos:
                    parts.append(sep)
                parts.append(encode_basestring_ascii(key) + ": ")
                _emit(value[key], inner, parts)
            parts.append(newline + "}")
        else:
            parts.append("[" + inner)
            for pos, entry in enumerate(value):
                if pos:
                    parts.append(sep)
                _emit(entry, inner, parts)
            parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _parse(path: PathLike):
    """The JSON document in the file; ValueError also when it nests too
    deeply for the parser."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _require_keys(doc: dict, allowed: set[str], required: set[str], what: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {doc!r}")
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"{what}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ValueError(f"{what}: missing keys {sorted(missing)}")


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _int_tuples(entries, arity: int, what: str) -> frozenset[tuple[int, ...]]:
    """A JSON list of integer lists, each of length arity, as a set of tuples."""
    out = set()
    for entry in _require_list(entries, what):
        # JSON numbers parse to int, float or bool; only int is accepted
        if (not isinstance(entry, list) or len(entry) != arity
                or not all(type(v) is int for v in entry)):
            raise ValueError(f"{what}: expected lists of {arity} integers, got {entry!r}")
        out.add(tuple(entry))
    return frozenset(out)


# ---------------------------------------------------------------------------
# instances

def instance_to_dict(instance: Instance) -> dict:
    doc: dict = {
        "bin": {
            "L": instance.bin.L,
            "W": instance.bin.W,
            "H": instance.bin.H,
            "n": instance.bin.n,
        },
        "items": [
            {"id": it.index, "l": it.l, "w": it.w, "h": it.h,
             "mu": it.mu, "category": it.category}
            for it in instance.items
        ],
        "affinities": {
            "positive": [list(p) for p in sorted(instance.affinities.positive)],
            "negative": [list(p) for p in sorted(instance.affinities.negative)],
        },
        "relpos": {
            "avoid": [list(t) for t in sorted(instance.relpos_avoid)],
            "favour": [list(t) for t in sorted(instance.relpos_favour)],
        },
    }
    if instance.bin.max_weight is not None:
        doc["bin"]["M"] = instance.bin.max_weight
    if instance.eta is not None:
        doc["eta"] = rational_to_json(instance.eta)
    if instance.com_target is not None:
        doc["com_target"] = [rational_to_json(v) for v in instance.com_target]
    return doc


def instance_from_dict(doc: dict) -> Instance:
    _require_keys(doc, {"bin", "items", "affinities", "eta", "com_target", "relpos"},
                  {"bin", "items", "affinities", "relpos"}, "instance")
    bin_doc = doc["bin"]
    _require_keys(bin_doc, {"L", "W", "H", "M", "n"}, {"L", "W", "H"}, "instance.bin")
    items = []
    for pos, item_doc in enumerate(_require_list(doc["items"], "instance.items")):
        _require_keys(item_doc, {"id", "l", "w", "h", "mu", "category"},
                      {"id", "l", "w", "h", "mu", "category"}, f"items[{pos}]")
        if item_doc["id"] != pos:
            raise ValueError(f"items[{pos}] has id {item_doc['id']}; ids must be 0-based order")
        items.append(Item(index=pos, l=item_doc["l"], w=item_doc["w"],
                          h=item_doc["h"], mu=item_doc["mu"],
                          category=item_doc["category"]))
    aff_doc = doc["affinities"]
    _require_keys(aff_doc, {"positive", "negative"}, {"positive", "negative"},
                  "instance.affinities")
    affinities = Affinities(
        positive=_int_tuples(aff_doc["positive"], 2, "affinities.positive"),
        negative=_int_tuples(aff_doc["negative"], 2, "affinities.negative"),
    )
    rel_doc = doc["relpos"]
    _require_keys(rel_doc, {"avoid", "favour"}, {"avoid", "favour"}, "instance.relpos")
    # checks the bin fields before the default bin count computes with them
    bin_spec = BinSpec(L=bin_doc["L"], W=bin_doc["W"], H=bin_doc["H"],
                       max_weight=bin_doc.get("M"))
    n = bin_doc.get("n")
    if n is None:
        n = default_bin_count(items, bin_spec.L, bin_spec.W, bin_spec.H,
                              bin_spec.max_weight)
    eta = rational_from_json(doc["eta"]) if "eta" in doc else None
    com = None
    if "com_target" in doc:
        com = tuple(rational_from_json(v)
                    for v in _require_list(doc["com_target"], "com_target"))
        if len(com) != 2:
            raise ValueError("com_target must be a [L~, W~] pair")
    return Instance(
        items=tuple(items),
        bin=replace(bin_spec, n=n),
        affinities=affinities,
        eta=eta,
        com_target=com,
        relpos_avoid=_int_tuples(rel_doc["avoid"], 3, "relpos.avoid"),
        relpos_favour=_int_tuples(rel_doc["favour"], 3, "relpos.favour"),
    )


def save_instance(instance: Instance, path: PathLike) -> None:
    Path(path).write_text(_dump(instance_to_dict(instance)), encoding="utf-8")


def load_instance(path: PathLike) -> Instance:
    return instance_from_dict(_parse(path))


# ---------------------------------------------------------------------------
# solutions

def solution_to_dict(solution: PackingSolution, *, energy=None, solver: str = "",
                     seed: int = 0, elapsed_s: float = 0.0,
                     time_limit: Optional[float] = None,
                     iterations: Optional[int] = None,
                     run_log=(), instance_name: str = "") -> dict:
    doc: dict = {
        "placements": [
            {"item": p.item, "bin": p.bin, "k": p.k, "x": p.x, "y": p.y, "z": p.z}
            for p in solution.placements
        ],
        "objectives": {},
        "energy": rational_to_json(energy) if energy is not None else None,
        "solver": solver,
        "seed": seed,
        "elapsed_s": elapsed_s,
        "run_log": [rational_to_json(e) for e in run_log],
        "instance": instance_name,
    }
    if solution.o1 is not None:
        doc["objectives"]["o1"] = solution.o1
    if solution.o2 is not None:
        doc["objectives"]["o2"] = rational_to_json(solution.o2)
    if solution.o3 is not None:
        doc["objectives"]["o3"] = rational_to_json(solution.o3)
    if time_limit is not None:
        doc["time_limit"] = time_limit
    if iterations is not None:
        doc["iterations"] = iterations
    return doc


def _finite_number(value) -> bool:
    # JSON numbers parse to int, float or bool (and NaN/Infinity to float)
    return type(value) in (int, float) and math.isfinite(value)


# run metadata key -> (test, what the test wants)
_META_TYPES = {
    "solver": (lambda v: isinstance(v, str), "a string"),
    "instance": (lambda v: v is None or isinstance(v, str), "a string"),
    "seed": (lambda v: type(v) is int, "an integer"),
    "iterations": (lambda v: v is None or type(v) is int, "an integer"),
    "elapsed_s": (_finite_number, "a finite number"),
    "time_limit": (lambda v: v is None or _finite_number(v), "a finite number"),
}


def solution_from_dict(doc: dict) -> tuple[PackingSolution, dict]:
    """Returns the solution plus the run metadata (energy, solver, seed, ...)."""
    _require_keys(doc, {"placements", "objectives", "energy", "solver", "seed",
                        "elapsed_s", "run_log", "instance", "time_limit", "iterations"},
                  {"placements", "objectives"}, "solution")
    placements = []
    for pos, p in enumerate(_require_list(doc["placements"], "solution.placements")):
        _require_keys(p, {"item", "bin", "k", "x", "y", "z"},
                      {"item", "bin", "k", "x", "y", "z"}, f"placements[{pos}]")
        placements.append(Placement(item=p["item"], bin=p["bin"], k=p["k"],
                                    x=p["x"], y=p["y"], z=p["z"]))
    obj = doc["objectives"]
    _require_keys(obj, {"o1", "o2", "o3"}, set(), "solution.objectives")
    if "o1" in obj and type(obj["o1"]) is not int:
        raise ValueError(f"solution.objectives.o1 must be an integer, got {obj['o1']!r}")
    solution = PackingSolution(
        tuple(placements),
        o1=obj.get("o1"),
        o2=rational_from_json(obj["o2"]) if "o2" in obj else None,
        o3=rational_from_json(obj["o3"]) if "o3" in obj else None,
    )
    meta = {
        "energy": rational_from_json(doc["energy"]) if doc.get("energy") is not None else None,
        "solver": doc.get("solver", ""),
        "seed": doc.get("seed", 0),
        "elapsed_s": doc.get("elapsed_s", 0.0),
        "time_limit": doc.get("time_limit"),
        "iterations": doc.get("iterations"),
        "run_log": [rational_from_json(e)
                    for e in _require_list(doc.get("run_log", []), "solution.run_log")],
        "instance": doc.get("instance", ""),
    }
    for key, (ok, kind) in _META_TYPES.items():
        if not ok(meta[key]):
            raise ValueError(f"solution.{key} must be {kind}, got {meta[key]!r}")
    return solution, meta


def save_solution(solution: PackingSolution, path: PathLike, **meta) -> None:
    Path(path).write_text(_dump(solution_to_dict(solution, **meta)), encoding="utf-8")


def load_solution(path: PathLike) -> tuple[PackingSolution, dict]:
    return solution_from_dict(_parse(path))
