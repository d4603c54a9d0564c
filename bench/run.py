"""Benchmark of cmc-annuli: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload radial-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run first
runs one untraced round, then traced rounds, and reports the difference as
``trace.overhead_pct``; it writes its spans as JSON lines and a per-layer
summary under ``.bench_out/``. ``--smoke`` runs every workload once at its
smallest size, untraced and traced, with every check on. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness

os.environ.update(harness.THREAD_CAPS)  # before numpy is imported

WORKLOADS = ("cli-session", "radial-sweep", "grid-2d")
SETUP_REPEATS = 5
OUT_DIR = harness.ROOT / ".bench_out"

#: per-layer metric: (kind, span or counter name); kinds are documented in README.md
LAYER_TOTALS = {
    "quadrature.calls": ("calls", "quadrature.adaptive_quad"),
    "quadrature.integrand_evals": ("count", "quadrature.integrand"),
    "quadrature.self_s": ("self", "quadrature.adaptive_quad"),
    "profiles.height_calls": ("count", "profiles.height"),
    "profiles.slope_calls": ("count", "profiles.slope"),
    "profiles.boundary_radius_calls": ("count", "profiles.boundary_radius"),
    "profiles.sample_profile_s": ("total", "profiles.sample_profile"),
    "hyperbolic.check_radius_calls": ("count", "hyperbolic.check_radius"),
    "estimates.dirichlet_feasibility_s": ("total", "estimates.dirichlet_feasibility"),
    "estimates.bounding_box_s": ("total", "estimates.bounding_box"),
    "estimates.sample_s": ("total", "estimates.sample"),
    "radial.integrate_radial_calls": ("count", "radial.integrate_radial"),
    "radial.solve_radial_s": ("total", "radial.solve_radial"),
    "radial.extremal_drops_s": ("total", "radial.extremal_drops"),
    "radial.evaluator_s": ("total", "radial.evaluator"),
    "pde2d.solve_s": ("total", "pde2d.solve"),
    "pde2d.linear_solve_calls": ("calls", "pde2d.linear_solve"),
    "pde2d.linear_solve_s": ("total", "pde2d.linear_solve"),
    "pde2d.cmc_residual_calls": ("calls", "pde2d.cmc_residual"),
    "pde2d.cmc_residual_s": ("total", "pde2d.cmc_residual"),
    "pde2d.newton_krylov_s": ("total", "pde2d.newton_krylov"),
    "pde2d.self_s": ("self", "pde2d.solve"),
    "svgfig.figure_s": ("total", "svgfig.figure"),
}


def make_workload(name, ca, seed, smoke, checks):
    if name == "radial-sweep":
        from radial_sweep import RadialSweep as cls
    elif name == "grid-2d":
        from grid2d import Grid2D as cls
    else:
        from cli_session import CliSession as cls
    return cls(ca, seed, smoke, checks)


def end_to_end(work, ops, smoke) -> dict:
    peak = work.peak_rss_mb()  # before the set-up timing starts child processes
    return {
        "setup_s": (harness.setup_seconds(1 if smoke else SETUP_REPEATS), "s"),
        "peak_rss_mb": (peak, "MB"),
        "light_op_s": (ops.typical(work.LIGHT), "s"),
        "medium_op_s": (ops.typical(work.MEDIUM), "s"),
        "heavy_op_s": (ops.typical(work.HEAVY), "s"),
        "ops_per_s": (ops.attempted / ops.busy, "1/s"),
    }


def per_layer(tracer, work, rounds, overhead_pct) -> dict:
    metrics = {}
    for name, (kind, key) in LAYER_TOTALS.items():
        calls, total, self_time = tracer.totals.get(key, (0, 0.0, 0.0))
        value = {"calls": calls, "total": total, "self": self_time,
                 "count": tracer.count(key)}[kind]
        unit = "s" if kind in ("total", "self") else "count"
        metrics[name] = (value / rounds, unit)
    calls = tracer.totals.get("quadrature.adaptive_quad", (0,))[0]
    metrics["quadrature.evals_per_call"] = (tracer.count("quadrature.integrand") / calls if calls else 0.0, "count")
    solves = tracer.totals.get("radial.solve_radial", (0,))[0]
    drops = tracer.count("radial.integrate_radial", parent="radial.solve_radial")
    metrics["radial.drop_evals_per_solve"] = (drops / solves if solves else 0.0, "count")
    picard = work.picard_iterations
    metrics["pde2d.picard_iterations"] = (statistics.fmean(picard) if picard else 0.0, "count")
    for name in ("cli.import_s", "cli.import_scipy_s", "cli.main_s", "cli.interpreter_s"):
        samples = work.cli_samples.get(name, [])
        metrics[name] = (statistics.median(samples) if samples else 0.0, "s")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def run(name, seed, seconds, trace, smoke):
    ca = harness.import_package()
    checks = harness.Checks()
    work = make_workload(name, ca, seed, smoke, checks)
    if not trace:
        ops = harness.Ops()
        harness.run_rounds(lambda i: work.round(ops, i), seconds)
        metrics = end_to_end(work, ops, smoke)
        work.verify()
        return checks, ops, metrics

    from tracing import Tracer

    untraced = harness.Ops()
    work.round(untraced, 0)
    tracer = Tracer()
    work.install(tracer)
    ops = harness.Ops(tracer)
    rounds = harness.run_rounds(lambda i: work.round(ops, i + 1), seconds)
    overhead = 100.0 * ((ops.busy / rounds) / untraced.busy - 1.0)
    metrics = per_layer(tracer, work, rounds, overhead)
    work.verify()
    out = OUT_DIR / f"trace-{name}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(out / "spans.jsonl")
    summary = {"workload": name, "seed": seed, "rounds": rounds, "versions": harness.versions(),
               "dropped_spans": tracer.dropped,
               "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in tracer.totals.items()},
               "counts": tracer.state()["counts"],
               "metrics": {k: v[0] for k, v in metrics.items()}}
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    ops.attempted += untraced.attempted
    ops.failed += untraced.failed
    ops.errors += untraced.errors
    return checks, ops, metrics


def report(name, seed, checks, ops, metrics) -> dict:
    for line in checks.failures[:20]:
        print(f"CHECK FAILED [{name} seed {seed}]: {line}", file=sys.stderr)
    for line in sorted(set(ops.errors))[:20]:
        print(f"failed operation [{name} seed {seed}]: {line}", file=sys.stderr)
    print(json.dumps({"workload": name, "seed": seed, "checks": checks.count,
                      "versions": harness.versions()}), file=sys.stderr)
    return {
        "correct": checks.ok,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    """Each workload untraced and traced at its smallest size, each in its own process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--smoke", "--workload", name, "--seconds", "0",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            good = result.get("correct") is True and result.get("attempted", 0) > 0
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name} trace={trace} attempted={result.get('attempted')} "
                  f"failed={result.get('failed')}")
            if not good:
                print(proc.stderr[-3000:], file=sys.stderr)
    print(json.dumps({"smoke": "passed" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload (or the one given) once at minimum size")
    args = parser.parse_args(argv)
    if args.smoke and args.workload is None:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    checks, ops, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(report(args.workload, args.seed, checks, ops, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
