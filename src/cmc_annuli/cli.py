"""Command line surface: profiles, bounds, feasibility checks, solvers, figures.

Radii are hyperbolic by default; ``--euclidean`` declares them as unit-disc
coordinate radii instead and converts on input. ``--config FILE`` reads
``key=value`` lines as the flags ``--key=value`` (a key may write ``-`` as
``_``; a switch key sets its flag on 1, true or yes), parsed before the
explicit flags, which therefore win; an unknown key is an error like an
unknown flag, and so is a ``config`` key. Numeric CSV output carries 17
significant digits; identical invocations produce byte-identical files.
Exit codes, returned by ``main``:
0 success (including a non-existence verdict), 2 input error (argparse's
included), 3 certified-infeasible radial solve, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from .errors import InfeasibleBoundaryError, NonConvergenceError
from .estimates import Annulus, OuterBoundaryData, bounding_box, dirichlet_feasibility
from .hyperbolic import euclidean_to_hyperbolic
from .profiles import _check_count, param_large, param_small, sample_profile
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmc-annuli",
        description="Rotational cmc profiles, a-priori height envelopes, and solvers "
        "on circular annuli of the hyperbolic plane.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    profile, bounds, check, solve, figure = (
        subparsers.add_parser(name, help=text)
        for name, text in (
            ("profile", "tabulate one height profile to CSV (rho,height,slope)"),
            ("bounds", "envelope table to CSV (rho,lower,upper) plus a JSON summary"),
            ("check", "feasibility verdict for inner Dirichlet data, as JSON"),
            ("solve", "radial or 2D Dirichlet solve, CSV table plus JSON report"),
            ("figure", "standalone SVG: 'family' profiles or the envelope 'box'"),
        )
    )
    figure.add_argument("which", choices=["family", "box"], help="figure kind")
    for sub in (profile, bounds, check, solve, figure):
        sub.add_argument("--h", type=float, required=True, help="mean curvature in (0, 1/2]")
    for sub in (bounds, check, solve):
        sub.add_argument("--a", type=float, required=True, help="inner radius")
        sub.add_argument("--b", type=float, required=True, help="outer radius")
    profile.add_argument("--alpha", type=float, required=True, help="profile parameter, > 0")
    profile.add_argument("--rho-max", type=float, required=True, help="last sampled radius")
    profile.add_argument("--n", type=int, default=100, help="number of rows")
    profile.add_argument("--out", required=True, help="output CSV path")
    bounds.add_argument("--m", type=float, required=True, help="outer boundary minimum")
    bounds.add_argument("--M", type=float, required=True, help="outer boundary maximum")
    bounds.add_argument("--n", type=int, default=256, help="number of rows")
    bounds.add_argument("--out", required=True, help="output CSV path")
    check.add_argument("--inner", required=True, help="inner datum: number or per-theta CSV path")
    check.add_argument("--outer", required=True, help="outer datum: number or per-theta CSV path")
    solve.add_argument("--u-a", type=float, required=True, help="inner boundary value")
    solve.add_argument("--u-b", type=float, required=True, help="outer boundary value")
    solve.add_argument("--out", required=True, help="output CSV path")
    solve.add_argument("--n", type=int, default=256, help="rows in the radial table")
    solve.add_argument("--two-d", action="store_true", help="solve the 2D problem instead of the radial one")
    solve.add_argument("--n-rho", type=int, default=64, help="2D: radial grid nodes")
    solve.add_argument("--n-theta", type=int, default=64, help="2D: angular grid nodes")
    solve.add_argument("--tol", type=float, help="stopping tolerance (default 1e-10 root find, 1e-8 2D Newton)")
    figure.add_argument("--alphas", type=_float_list, help="family: comma-separated parameters")
    figure.add_argument("--rho-max", type=float, help="family: last sampled radius")
    figure.add_argument("--a", type=float, help="box: inner radius")
    figure.add_argument("--b", type=float, help="box: outer radius")
    figure.add_argument("--m", type=float, help="box: outer boundary minimum")
    figure.add_argument("--M", type=float, help="box: outer boundary maximum")
    figure.add_argument("--n", type=int, default=256, help="samples per curve")
    figure.add_argument("--out", required=True, help="output SVG path")
    for sub in (profile, bounds, check, solve, figure):
        sub.add_argument("--euclidean", action="store_true", help="radii flags are unit-disc coordinates")
        sub.add_argument("--config", metavar="FILE", help="key=value lines read as flags; explicit flags win")
    return parser


#: flags that take no value: a config key naming one sets it on 1, true or yes
_SWITCHES = ("--euclidean", "--two-d")


def _names_config(flag: str) -> bool:
    """Whether argparse reads flag as --config, which it also takes abbreviated down to --c."""
    return len(flag) > 2 and "--config".startswith(flag)


def _config_tokens(path: str) -> list[str]:
    """The key=value lines of a config file as --key=value tokens.

    Blank lines and '#' comments are skipped. A key is a flag name written
    with '-' or '_'; a switch key becomes the bare flag or nothing. A config
    file cannot name another: nothing would read it.
    """
    tokens = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        flag, value = "--" + key.strip().replace("_", "-"), value.strip()
        if _names_config(flag):
            raise ValueError(f"{path}:{line_no}: a config file cannot name another, got {line!r}")
        if flag not in _SWITCHES:
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            tokens.append(flag)
    return tokens


def _with_config(argv: list[str]) -> list[str]:
    """argv with the tokens of every --config file put right after the subcommand.

    argparse parses the explicit flags later, so they win wherever they stand,
    and it rejects an unknown key or a bad value as it does on the command line.
    """
    tokens = []
    for i, token in enumerate(argv):
        flag, eq, value = token.partition("=")
        if _names_config(flag):
            if eq:
                tokens += _config_tokens(value)
            elif i + 1 < len(argv):
                tokens += _config_tokens(argv[i + 1])
    return argv[:1] + tokens + argv[1:]


def _write_csv(path: str, header: str, *columns: Iterable[float]) -> None:
    """Write the columns side by side, each value by ``_fmt`` and a NaN as an empty field."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join("" if math.isnan(v) else _fmt(v) for v in row) + "\n")


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


def _cmd_profile(ns: argparse.Namespace) -> int:
    table = sample_profile(ns.h, ns.alpha, ns.rho_max, ns.n)
    _write_csv(ns.out, "rho,height,slope", *table.T)
    return 0


def _cmd_bounds(ns: argparse.Namespace) -> int:
    annulus = Annulus(ns.a, ns.b)
    box = bounding_box(ns.h, annulus, OuterBoundaryData(ns.m, ns.M))
    table = box.sample(ns.n)
    _write_csv(ns.out, "rho,lower,upper", *table.T)
    _print_json(
        {
            "beta": param_large(ns.h, annulus.a),
            "alpha": None if box.lower is None else param_small(ns.h, annulus.a),
            "hole_ok": box.lower is not None,
            # the table's first row is rho = a
            "upper_at_a": float(table[0, 2]),
            "lower_at_a": None if box.lower is None else float(table[0, 1]),
        }
    )
    return 0


def _cmd_check(ns: argparse.Namespace) -> int:
    annulus = Annulus(ns.a, ns.b)
    inner_min, inner_max = _data_extremes(ns.inner)
    outer_min, outer_max = _data_extremes(ns.outer)
    result = dirichlet_feasibility(
        ns.h, annulus, inner_min, inner_max, OuterBoundaryData(outer_min, outer_max)
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


def _cmd_solve(ns: argparse.Namespace) -> int:
    annulus = Annulus(ns.a, ns.b)
    tol = {} if ns.tol is None else {"tol": ns.tol}  # else each solver's default
    if ns.two_d:
        # imported here: pde2d and its Newton-Krylov module take about 10 ms
        # to load on top of numpy, which every other command skips
        import numpy as np

        from .pde2d import solve_dirichlet_2d

        field, report = solve_dirichlet_2d(
            ns.h, annulus, ns.u_a, ns.u_b, grid=(ns.n_rho, ns.n_theta), **tol
        )
        rho, theta = field.grid.rho, field.grid.theta
        _write_csv(
            ns.out, "rho,theta,u", np.repeat(rho, theta.size), np.tile(theta, rho.size), field.values.ravel()
        )
        _print_json({"status": "converged", **_report_fields(report)})
        return 0
    _check_count(ns.n, 2)
    solution = solve_radial(ns.h, annulus, ns.u_a, ns.u_b, **tol)
    # an infeasible drop has raised by now, so exit 3 never loads numpy
    import numpy as np

    radii = np.linspace(annulus.a, annulus.b, ns.n)
    values = solution.evaluator.value(radii)
    _write_csv(ns.out, "rho,u", radii, values)
    _print_json(
        {
            "status": "solved",
            "C": solution.C,
            "shift": solution.shift,
            "drop": ns.u_a - ns.u_b,
        }
    )
    return 0


def _cmd_figure(ns: argparse.Namespace) -> int:
    if ns.which == "family":
        if ns.alphas is None:
            raise ValueError("figure family requires --alphas")
        svg = family_figure(ns.h, ns.alphas, ns.rho_max, ns.n)
    else:
        for name in ("a", "b", "m", "M"):
            if getattr(ns, name) is None:
                raise ValueError(f"figure box requires --{name}")
        svg = box_figure(ns.h, Annulus(ns.a, ns.b), ns.m, ns.M, ns.n)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_with_config(argv))
        if args.euclidean:
            for name in ("a", "b", "rho_max"):
                if getattr(args, name, None) is not None:
                    setattr(args, name, euclidean_to_hyperbolic(getattr(args, name)))
        return _DISPATCH[args.command](args)
    except SystemExit as exc:  # argparse has printed the help, or the usage and the error
        return exc.code
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
