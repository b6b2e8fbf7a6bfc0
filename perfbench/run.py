"""binpack3d benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload pack-plain --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the library from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
measures the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The full report (environment, digests, tail percentile, span
self times, profiles) is printed on the line before it and written, with the
spans of a traced run, under ``.perfbench-out/``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


@dataclass
class Loop:
    """Outcome of one closed loop over a workload's pool."""

    latencies: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)    # first output per case
    energies: dict[str, Fraction] = field(default_factory=dict)
    feasible: dict[str, bool] = field(default_factory=dict)  # first outcome per case

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.busy_s


def closed_loop(wl, cases, workdir, seconds, floor, tracer) -> Loop:
    """Send requests over the pool in order, each after the previous one ends,
    until ``seconds`` of request time have passed and at least ``floor``
    requests were made. Checks run between requests, outside the timing."""
    from workloads import check, request

    loop = Loop()
    i = 0
    while i < floor or loop.busy_s < seconds:
        case = cases[i % len(cases)]
        tracer.request = i
        start = time.perf_counter()
        try:
            with tracer.span("request"):
                output = request(wl, case, workdir, tracer)
            error = None
        except Exception as exc:  # a request that raises is counted, the loop goes on
            error = f"{case.label}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        loop.latencies.append(elapsed)
        loop.busy_s += elapsed
        i += 1
        if error is None:
            try:
                with tracer.span("checks"):
                    checked = check(case, *output, tracer)
            except Exception as exc:  # a check that raises fails its request
                error = f"{case.label}: check raised {type(exc).__name__}: {exc}"
        if error is not None:
            loop.failed += 1
            loop.problems.append(error)
            continue
        problems = checked.problems
        first = loop.digests.setdefault(case.label, checked.digest)
        if first != checked.digest:
            problems = problems + [f"{case.label}: output differs from the first "
                                   "request on the same instance"]
        loop.feasible.setdefault(case.label, checked.feasible)
        if checked.energy is not None:
            loop.energies.setdefault(case.label, checked.energy)
        if problems:
            loop.failed += 1
            loop.problems.extend(problems)
    tracer.request = None
    return loop


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves TAIL_BEYOND
    samples above it; the maximum when that percentile would not exceed the
    median."""
    ordered = sorted(latencies)
    n = len(ordered)
    keep = n - TAIL_BEYOND
    if keep <= n // 2:
        return ordered[-1], 100.0
    return ordered[keep - 1], 100.0 * keep / n


def combined_digest(digests: dict[str, str], labels: list[str]) -> str:
    h = hashlib.sha256()
    for label in labels:
        h.update(f"{label}={digests[label]}\n".encode())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "binpack3d").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "binpack3d" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'binpack3d'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import binpack3d
    if Path(binpack3d.__file__).resolve().parent != SRC / "binpack3d":
        print(f"perfbench: imported binpack3d from {binpack3d.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    from tracing import NullTracer, Tracer
    from workloads import (WORKLOADS, Case, generate, pool_seeds, request,
                           SETUP_ITERATIONS, threads_env)

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment(args.seed)
    env["workload"] = wl.name
    env["binpack3d_threads_inherited"] = os.environ.get("BINPACK3D_THREADS")

    out_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    workdir = out_dir / "work"
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else NullTracer()

    # set-up: generate and write the pool, then warm up
    setup_s, generate_s = [], []
    with threads_env(wl.threads):
        for _ in range(SETUP_REPEATS):
            tracer.request = "setup"
            start = time.perf_counter()
            cases: list[Case] = []
            for archetype, seed in pool_seeds(wl, args.seed):
                t0 = time.perf_counter()
                cases.append(generate(archetype, seed, workdir, tracer))
                generate_s.append(time.perf_counter() - t0)
            request(wl, cases[0], workdir, tracer, SETUP_ITERATIONS)
            setup_s.append(time.perf_counter() - start)
    tracer.request = None

    # every untraced run solves the whole pool, so energy_mean, feasible_frac
    # and the digests cover the same outputs in every run of a seed
    floor = len(cases)
    report: dict = {"environment": env, "workload": wl.name, "trace": args.trace}
    with threads_env(wl.threads):
        if args.trace:
            untraced = closed_loop(wl, cases, workdir, args.seconds / 2, 1, NullTracer())
            loop = closed_loop(wl, cases, workdir, args.seconds / 2, 1, tracer)
        else:
            loop = closed_loop(wl, cases, workdir, args.seconds, floor, NullTracer())
    loops = [untraced, loop] if args.trace else [loop]

    attempted = sum(len(part.latencies) for part in loops)
    failed = sum(part.failed for part in loops)
    problems = [p for part in loops for p in part.problems]
    feasible = {}
    for part in loops:
        for label, ok in part.feasible.items():
            feasible.setdefault(label, ok)
    feasible_frac = sum(feasible.values()) / len(feasible) if feasible else 0.0
    metrics: dict[str, dict] = {}
    if args.trace:
        per_layer, layer_problems, report["probe"] = layers.probe(wl, cases, workdir)
        counts, top, profile_problems = layers.profile(wl, cases, workdir)
        layer_problems += profile_problems
        # the probe and the profiled requests count as one more checked request
        attempted += 1
        failed += bool(layer_problems)
        problems += layer_problems
        per_layer.update(counts)
        per_layer["datagen.generate_ms"] = statistics.median(generate_s) * 1e3
        per_layer["trace.untraced_rps"] = untraced.throughput
        per_layer["trace.traced_rps"] = loop.throughput
        per_layer["trace.overhead_ratio"] = loop.throughput / untraced.throughput
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: metric(per_layer[name], units[name]) for name in units}
        report["self_times_ms"] = tracer.self_times()
        report["profile_top10"] = top
        tracer.write(out_dir / "spans.jsonl")
    else:
        energies = list(loop.energies.values())
        if not energies:
            print("perfbench: no solve request returned a solution, so energy_mean "
                  f"is undefined; problems: {problems[:20]}", file=sys.stderr)
            return 1
        p50 = statistics.median(loop.latencies)
        tail_s, tail_pct = tail(loop.latencies)
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "throughput_rps": metric(loop.throughput, "1/s"),
            "latency_p50_ms": metric(p50 * 1e3, "ms"),
            "latency_tail_ms": metric(tail_s * 1e3, "ms"),
            "energy_mean": metric(sum(energies, Fraction(0)) / len(energies), "energy"),
            "feasible_frac": metric(feasible_frac, "ratio"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
        }
        report["latency_tail_percentile"] = tail_pct
        report["latency_samples"] = len(loop.latencies)
        report["setup_s_all"] = setup_s
        labels = [c.label for c in cases if c.label in loop.digests]
        report["solution_digest"] = combined_digest(loop.digests, labels)
        report["solution_digest_covers"] = labels
    report["digests"] = dict(sorted(loop.digests.items()))
    report["feasible_frac"] = feasible_frac
    report["failed_frac"] = failed / attempted
    report["problems"] = problems[:20]
    report["environment"]["loadavg_end"] = list(os.getloadavg())
    report["metrics"] = metrics
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, default=str) + "\n",
                                         encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(report, default=str, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
