"""Command line surface: profiles, bounds, feasibility checks, solvers, figures.

Radii are hyperbolic by default; ``--euclidean`` declares them as unit-disc
coordinate radii instead and converts on input. Numeric CSV output carries 17
significant digits; identical invocations produce byte-identical files.
Exit codes: 0 success (including a non-existence verdict), 2 input error,
3 certified-infeasible radial solve, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from .errors import InfeasibleBoundaryError, NonConvergenceError
from .estimates import Annulus, OuterBoundaryData, bounding_box, dirichlet_feasibility
from .hyperbolic import euclidean_to_hyperbolic
from .profiles import sample_profile
from .radial import solve_radial
from .svgfig import box_figure, family_figure

if TYPE_CHECKING:
    from .pde2d import SolverReport


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _float_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return values


@dataclass(frozen=True)
class _Opt:
    flag: str
    type: Callable[[str], Any] = float
    required: bool = False
    default: Any = None
    help: str = ""
    is_flag: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_RADIUS_FLAGS = {"a", "b", "rho_max"}

_COMMON_TAIL = [
    _Opt("--tol", float, default=1e-10, help="absolute tolerance, finite and positive (drops are closed forms)"),
    _Opt("--euclidean", is_flag=True, help="radii flags are unit-disc coordinates"),
]

_OPTIONS: dict[str, list[_Opt]] = {
    "profile": [
        _Opt("--h", float, required=True, help="mean curvature in (0, 1/2]"),
        _Opt("--alpha", float, required=True, help="profile parameter, > 0"),
        _Opt("--rho-max", float, required=True, help="last sampled radius"),
        _Opt("--n", int, default=100, help="number of rows"),
        _Opt("--out", str, required=True, help="output CSV path"),
        *_COMMON_TAIL,
    ],
    "bounds": [
        _Opt("--h", float, required=True, help="mean curvature in (0, 1/2]"),
        _Opt("--a", float, required=True, help="inner radius"),
        _Opt("--b", float, required=True, help="outer radius"),
        _Opt("--m", float, required=True, help="outer boundary minimum"),
        _Opt("--M", float, required=True, help="outer boundary maximum"),
        _Opt("--n", int, default=256, help="number of rows"),
        _Opt("--out", str, required=True, help="output CSV path"),
        *_COMMON_TAIL,
    ],
    "check": [
        _Opt("--h", float, required=True, help="mean curvature in (0, 1/2]"),
        _Opt("--a", float, required=True, help="inner radius"),
        _Opt("--b", float, required=True, help="outer radius"),
        _Opt("--inner", str, required=True, help="inner datum: number or per-theta CSV path"),
        _Opt("--outer", str, required=True, help="outer datum: number or per-theta CSV path"),
        *_COMMON_TAIL,
    ],
    "solve": [
        _Opt("--h", float, required=True, help="mean curvature in (0, 1/2]"),
        _Opt("--a", float, required=True, help="inner radius"),
        _Opt("--b", float, required=True, help="outer radius"),
        _Opt("--u-a", float, required=True, help="inner boundary value"),
        _Opt("--u-b", float, required=True, help="outer boundary value"),
        _Opt("--out", str, required=True, help="output CSV path"),
        _Opt("--n", int, default=256, help="rows in the radial table"),
        _Opt("--two-d", is_flag=True, help="solve the 2D problem instead of the radial one"),
        _Opt("--n-rho", int, default=64, help="2D: radial grid nodes"),
        _Opt("--n-theta", int, default=64, help="2D: angular grid nodes"),
        _Opt("--tol", float, default=None, help="tolerance (default 1e-10 radial, 1e-8 2D)"),
        _Opt("--euclidean", is_flag=True, help="radii flags are unit-disc coordinates"),
    ],
    "figure": [
        _Opt("--h", float, required=True, help="mean curvature in (0, 1/2]"),
        _Opt("--alphas", _float_list, help="family: comma-separated parameters"),
        _Opt("--rho-max", float, help="family: last sampled radius"),
        _Opt("--a", float, help="box: inner radius"),
        _Opt("--b", float, help="box: outer radius"),
        _Opt("--m", float, help="box: outer boundary minimum"),
        _Opt("--M", float, help="box: outer boundary maximum"),
        _Opt("--n", int, default=256, help="samples per curve"),
        _Opt("--out", str, required=True, help="output SVG path"),
        *_COMMON_TAIL,
    ],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmc-annuli",
        description="Rotational cmc profiles, a-priori height envelopes, and solvers "
        "on circular annuli of the hyperbolic plane.",
    )
    subparsers = parser.add_subparsers(dest="command")
    descriptions = {
        "profile": "tabulate one height profile to CSV (rho,height,slope)",
        "bounds": "envelope table to CSV (rho,lower,upper) plus a JSON summary",
        "check": "feasibility verdict for inner Dirichlet data, as JSON",
        "solve": "radial or 2D Dirichlet solve, CSV table plus JSON report",
        "figure": "standalone SVG: 'family' profiles or the envelope 'box'",
    }
    for name, options in _OPTIONS.items():
        sub = subparsers.add_parser(name, help=descriptions[name])
        if name == "figure":
            sub.add_argument("which", choices=["family", "box"], help="figure kind")
        for opt in options:
            if opt.is_flag:
                sub.add_argument(opt.flag, action="store_const", const=True, default=None, help=opt.help)
            else:
                sub.add_argument(opt.flag, type=opt.type, default=None, help=opt.help)
        sub.add_argument("--config", type=str, default=None, help="key=value file with flag defaults")
    return parser


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _resolve(args: argparse.Namespace, options: list[_Opt]) -> SimpleNamespace:
    """Merge explicit flags with config-file values; flags always win."""
    cfg = _read_config(args.config) if args.config else {}
    resolved: dict[str, Any] = {}
    for opt in options:
        value = getattr(args, opt.dest)
        if value is None and opt.dest in cfg:
            raw = cfg[opt.dest]
            value = raw.lower() in ("1", "true", "yes") if opt.is_flag else opt.type(raw)
        if value is None:
            if opt.required:
                raise ValueError(f"missing required option {opt.flag}")
            value = False if opt.is_flag else opt.default
        resolved[opt.dest] = value
    ns = SimpleNamespace(**resolved)
    if getattr(ns, "euclidean", False):
        for name in _RADIUS_FLAGS:
            if hasattr(ns, name) and getattr(ns, name) is not None:
                setattr(ns, name, euclidean_to_hyperbolic(getattr(ns, name)))
    return ns


def _write_csv(path: str, header: str, rows: Iterable[Iterable[str]]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _print_json(payload: dict) -> None:
    """Print strict JSON: a non-finite float is written as null."""
    finite = {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in payload.items()
    }
    print(json.dumps(finite, allow_nan=False))


def _report_fields(report: SolverReport) -> dict:
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual,
        "max_gradient": report.max_gradient,
    }


def _data_extremes(datum: str) -> tuple[float, float]:
    """Parse a boundary datum: a plain number, or a CSV file of per-theta values.

    In a file, blank lines and '#' comments are skipped, the first remaining
    line may be a header, and every other line must end in a finite number.
    """
    try:
        value = float(datum)
        return value, value
    except ValueError:
        pass
    lines = enumerate((raw.strip() for raw in Path(datum).read_text().splitlines()), start=1)
    rows = [(no, line) for no, line in lines if line and not line.startswith("#")]
    values: list[float] = []
    for index, (line_no, line) in enumerate(rows):
        last = line.split(",")[-1].strip()
        try:
            value = float(last)
        except ValueError:
            if index == 0:
                continue  # header line
            raise ValueError(f"{datum}:{line_no}: expected a number, got {last!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{datum}:{line_no}: value {last!r} is not finite")
        values.append(value)
    if not values:
        raise ValueError(f"no numeric values found in {datum!r}")
    return min(values), max(values)


def _cmd_profile(ns: SimpleNamespace) -> int:
    table = sample_profile(ns.h, ns.alpha, ns.rho_max, ns.n, ns.tol)
    _write_csv(ns.out, "rho,height,slope", ([_fmt(v) for v in row] for row in table))
    return 0


def _cmd_bounds(ns: SimpleNamespace) -> int:
    annulus = Annulus(ns.a, ns.b)
    box = bounding_box(ns.h, annulus, OuterBoundaryData(ns.m, ns.M), ns.tol)
    table = box.sample(ns.n)

    def rows():
        for rho, lower, upper in table:
            yield [_fmt(rho), "" if math.isnan(lower) else _fmt(lower), _fmt(upper)]

    _write_csv(ns.out, "rho,lower,upper", rows())
    _print_json(
        {
            "beta": box.beta.alpha,
            "alpha": None if box.alpha is None else box.alpha.alpha,
            "hole_ok": box.hole_ok,
            # the table's first row is rho = a
            "upper_at_a": float(table[0, 2]),
            "lower_at_a": None if box.lower is None else float(table[0, 1]),
        }
    )
    return 0


def _cmd_check(ns: SimpleNamespace) -> int:
    annulus = Annulus(ns.a, ns.b)
    inner_min, inner_max = _data_extremes(ns.inner)
    outer_min, outer_max = _data_extremes(ns.outer)
    result = dirichlet_feasibility(
        ns.h, annulus, inner_min, inner_max, OuterBoundaryData(outer_min, outer_max), ns.tol
    )
    _print_json(
        {
            "verdict": result.verdict.value,
            "threshold_upper": result.threshold_upper,
            "threshold_lower": result.threshold_lower,
            "margin": result.margin,
        }
    )
    return 0


def _cmd_solve(ns: SimpleNamespace) -> int:
    annulus = Annulus(ns.a, ns.b)
    if ns.two_d:
        # imported here: pde2d and its Newton-Krylov module take about 10 ms
        # to load on top of numpy, which every other command skips
        from .pde2d import solve_dirichlet_2d

        tol = 1e-8 if ns.tol is None else ns.tol
        field, report = solve_dirichlet_2d(
            ns.h,
            annulus,
            ns.u_a,
            ns.u_b,
            grid=(ns.n_rho, ns.n_theta),
            tol=tol,
        )

        def rows():
            for i, rho in enumerate(field.grid.rho):
                for j, theta in enumerate(field.grid.theta):
                    yield [_fmt(rho), _fmt(theta), _fmt(field.values[i, j])]

        _write_csv(ns.out, "rho,theta,u", rows())
        _print_json({"status": "converged", **_report_fields(report)})
        return 0
    tol = 1e-10 if ns.tol is None else ns.tol
    solution = solve_radial(ns.h, annulus, ns.u_a, ns.u_b, tol)
    # an infeasible drop has raised by now, so exit 3 never loads numpy
    import numpy as np

    radii = np.linspace(annulus.a, annulus.b, ns.n)
    values = solution.evaluator.value(radii)
    _write_csv(ns.out, "rho,u", ([_fmt(rho), _fmt(u)] for rho, u in zip(radii, values)))
    _print_json(
        {
            "status": "solved",
            "C": solution.C,
            "shift": solution.shift,
            "drop": ns.u_a - ns.u_b,
        }
    )
    return 0


def _cmd_figure(ns: SimpleNamespace) -> int:
    if ns.which == "family":
        if ns.alphas is None:
            raise ValueError("figure family requires --alphas")
        svg = family_figure(ns.h, ns.alphas, ns.rho_max, ns.n, ns.tol)
    else:
        for name in ("a", "b", "m", "M"):
            if getattr(ns, name) is None:
                raise ValueError(f"figure box requires --{name}")
        svg = box_figure(ns.h, Annulus(ns.a, ns.b), ns.m, ns.M, ns.n, ns.tol)
    Path(ns.out).write_text(svg, encoding="utf-8")
    return 0


_DISPATCH = {
    "profile": _cmd_profile,
    "bounds": _cmd_bounds,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "figure": _cmd_figure,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        ns = _resolve(args, _OPTIONS[args.command])
        if args.command == "figure":
            ns.which = args.which
        return _DISPATCH[args.command](ns)
    except InfeasibleBoundaryError as exc:
        _print_json(
            {
                "status": "infeasible",
                "requested_drop": exc.requested_drop,
                "d_min": exc.d_min,
                "d_max": exc.d_max,
            }
        )
        return 3
    except NonConvergenceError as exc:
        payload = {"status": "non_convergence"}
        if exc.report is not None:
            payload.update(_report_fields(exc.report))
        _print_json(payload)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
