"""cli-session: a closed loop of ``python -m cmc_annuli.cli`` calls, one at a time.

Every call starts a fresh interpreter, so import time is part of each call.
A round makes thirteen calls: three ``check`` verdicts (light operations),
``bounds``, ``profile``, two identical feasible radial ``solve`` calls and an
infeasible one (medium operations), ``solve --two-d`` three times with
identical arguments (heavy operations) and the two ``figure`` kinds. The seed sets the curvature,
annulus, outer value and offsets of the verdict, bounds, radial and box
calls, and the vertical shift of the 2D data. Outputs are compared byte for
byte with those of the first identical call.
"""

from __future__ import annotations

import json
import math
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import namedtuple
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from harness import BENCH_DIR, ROOT, Failed, Workload, child_env

LIGHT, MEDIUM, HEAVY = "check", "solve", "solve2d"
VERTICAL_TOL = 1e-7  # see radial_sweep.VERTICAL_TOL
SVG = "{http://www.w3.org/2000/svg}"
CALL_TIMEOUT = 120


Call = namedtuple("Call", "argv want_code what code stdout stderr produced")


def _num(x: float) -> str:
    return repr(float(x))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class CliSession(Workload):
    LIGHT, MEDIUM, HEAVY = LIGHT, MEDIUM, HEAVY

    def __init__(self, ca, seed: int, smoke: bool, checks):
        super().__init__()
        self.ca, self.checks = ca, checks
        rng = random.Random(seed)
        h = rng.uniform(0.3, 0.45)
        a = math.atanh(2 * h) * rng.uniform(0.4, 0.8)
        b = a + rng.uniform(0.8, 1.5)
        o = rng.uniform(-1.0, 1.0)
        offset = 10 ** rng.uniform(-6, -1)
        d_min, d_max = oracle.extremal_drops(h, a, b)
        t_upper, t_lower = o + d_max, o + d_min
        self.case = dict(h=h, a=a, b=b, o=o, offset=offset, d_min=d_min, d_max=d_max)
        self.rho_max = rng.uniform(1.5, 3.0)
        self.shift = rng.uniform(-1.0, 1.0)
        self.target = d_min + rng.uniform(0.3, 0.7) * (d_max - d_min)
        ann = ["--h", _num(h), "--a", _num(a), "--b", _num(b)]
        radial = ["solve", *ann, "--u-a", _num(o + self.target), "--u-b", _num(o), "--out", "radial.csv"]
        two_d = ["solve", "--h", "0.4", "--a", "0.5", "--b", "1.5", "--u-a", _num(self.shift + 0.1),
                 "--u-b", _num(self.shift), "--two-d", "--out", "field.csv"]
        # (kind, argv, expected exit code, what the output must show)
        self.calls = [
            (LIGHT, ["check", *ann, "--inner", _num(t_upper + offset), "--outer", _num(o)], 0, "violates_upper"),
            (LIGHT, ["check", *ann, "--inner", _num(t_lower - offset), "--outer", _num(o)], 0, "violates_lower"),
            (LIGHT, ["check", *ann, "--inner", _num(0.5 * (t_upper + t_lower)), "--outer", _num(o)], 0,
             "inconclusive"),
            ("bounds", ["bounds", *ann, "--m", _num(o), "--M", _num(o), "--n", "256", "--out", "bounds.csv"], 0,
             "bounds"),
            ("profile", ["profile", "--h", "0.5", "--alpha", "1", "--rho-max", _num(self.rho_max), "--n", "100",
                         "--out", "profile.csv"], 0, "profile"),
            (MEDIUM, radial, 0, "solved"),
            (MEDIUM, radial, 0, "solved"),
            (MEDIUM, ["solve", *ann, "--u-a", _num(o + d_max + offset), "--u-b", _num(o), "--out",
                      "unused.csv"], 3, "infeasible"),
            (HEAVY, two_d, 0, "field"),
            (HEAVY, two_d, 0, "field"),
            (HEAVY, two_d, 0, "field"),
            ("figure", ["figure", "family", "--h", "0.5", "--alphas", "0.3,1,3", "--rho-max", "3",
                        "--out", "family.svg"], 0, "family"),
            ("figure", ["figure", "box", *ann, "--m", _num(o), "--M", _num(o), "--out", "box.svg"], 0, "box"),
        ]
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=ROOT / ".bench_out"))
        self.tracer = None
        self.first: dict[tuple, Call] = {}  # argv -> its first call

    # -- running calls -----------------------------------------------------------
    def install(self, tracer) -> None:
        self.tracer = tracer
        floor = []
        for _ in range(5):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True, timeout=60)
            floor.append(perf_counter() - start)
        self.cli_samples["cli.interpreter_s"] = floor

    def _call(self, argv: list[str]):
        trace_file = self.workdir / "trace.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "cmc_annuli.cli", *argv]
        else:
            cmd = [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_shim.py"), str(trace_file), *argv]
        out_path = self.workdir / argv[argv.index("--out") + 1] if "--out" in argv else None
        if out_path is not None:
            out_path.unlink(missing_ok=True)
        with open(self.workdir / "stdout", "w+") as so, open(self.workdir / "stderr", "w+") as se:
            proc = subprocess.run(cmd, stdout=so, stderr=se, env=child_env(), cwd=self.workdir,
                                  timeout=CALL_TIMEOUT)
            so.seek(0)
            se.seek(0)
            stdout, stderr = so.read(), se.read()
        produced = out_path.read_bytes() if out_path is not None and out_path.exists() else None
        return proc.returncode, stdout, stderr, produced

    def round(self, ops, index: int) -> None:
        for kind, argv, want_code, what in self.calls:
            result = ops.run(kind, tuple(argv), self._call, argv)
            if isinstance(result, Failed):
                continue
            code, stdout, stderr, produced = result
            if self.tracer is not None:
                self._collect_trace(ops.attempted, stderr)
                if what == "field" and code == 0:
                    self.picard_iterations.append(json.loads(stdout)["iterations"])
                stderr = ""
            first = self.first.setdefault(tuple(argv), Call(argv, want_code, what, code, stdout, stderr, produced))
            self.checks((code, stdout, produced) == (first.code, first.stdout, first.produced),
                        f"{argv[0]} {what}: output differs from an identical earlier call")

    def _collect_trace(self, run_id: int, stderr: str) -> None:
        with open(self.workdir / "trace.json") as fh:
            data = json.load(fh)
        self.tracer.merge(data["state"], data["spans"], run_id)
        total = _importtime(stderr)
        self.cli_samples.setdefault("cli.import_s", []).append(total["cmc_annuli"])
        self.cli_samples.setdefault("cli.import_scipy_s", []).append(total["scipy"])
        main = data["state"]["totals"].get("cli.main", [0, 0.0, 0.0])
        self.cli_samples.setdefault("cli.main_s", []).append(main[1])

    def peak_rss_mb(self) -> float:
        """Largest resident set of any call; read before any other child process runs."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- correctness -------------------------------------------------------------
    def verify(self) -> None:
        """Checks the first call of each argument list; later ones matched it byte for byte."""
        check = self.checks
        for argv, want_code, what, code, stdout, stderr, produced in self.first.values():
            label = f"{argv[0]} {what}"
            if not check(code == want_code, f"{label}: exit {code}, want {want_code}; stderr {stderr[-300:]!r}"):
                continue
            payload = None
            if what not in ("profile", "family", "box"):
                try:
                    payload = json.loads(stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
                except (ValueError, IndexError) as exc:
                    check(False, f"{label}: stdout is not one valid JSON line ({exc}): {stdout[:200]!r}")
                    continue
            verify = {"bounds": self._verify_bounds, "profile": self._verify_profile,
                      "solved": self._verify_solved, "infeasible": self._verify_infeasible,
                      "field": self._verify_field, "family": self._verify_family,
                      "box": self._verify_box}.get(what, self._verify_verdict)
            verify(label, what, payload, produced)
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _verify_verdict(self, label, what, payload, produced):
        c, check = self.case, self.checks
        t_upper = c["o"] + c["d_max"]
        check(payload["verdict"] == what, f"{label}: verdict {payload['verdict']}")
        check.close(f"{label}: threshold_upper", payload["threshold_upper"], t_upper, VERTICAL_TOL)
        check.close(f"{label}: threshold_lower", payload["threshold_lower"], c["o"] + c["d_min"], VERTICAL_TOL)
        if what != "inconclusive":
            check.close(f"{label}: margin", payload["margin"], c["offset"], VERTICAL_TOL)

    def _verify_bounds(self, label, what, payload, produced):
        c, check = self.case, self.checks
        rows = _csv(produced, "rho,lower,upper", 256, check, label)
        check.close(f"{label}: upper_at_a", payload["upper_at_a"], c["o"] + c["d_max"], VERTICAL_TOL)
        check.close(f"{label}: lower_at_a", payload["lower_at_a"], c["o"] + c["d_min"], VERTICAL_TOL)
        if rows is not None:
            check(bool(np.all(rows[:, 1] <= rows[:, 2])), f"{label}: lower above upper")
            check.close(f"{label}: first upper row", rows[0, 2], payload["upper_at_a"], 0.0)

    def _verify_profile(self, label, what, payload, produced):
        rows = _csv(produced, "rho,height,slope", 100, self.checks, label)
        if rows is not None:
            worst = max(abs(hgt - oracle.neck_half_height(rho)) for rho, hgt in rows[:, :2])
            self.checks(worst <= 1e-8, f"{label}: closed-form rows off by {worst:g}")

    def _verify_solved(self, label, what, payload, produced):
        c, check = self.case, self.checks
        check(payload["status"] == "solved", f"{label}: status {payload['status']}")
        rows = _csv(produced, "rho,u", 256, check, label)
        if rows is not None:
            check.close(f"{label}: u(a)", rows[0, 1], c["o"] + self.target, 1e-8)
            check(rows[-1, 1] == c["o"], f"{label}: u(b) row {rows[-1, 1]!r} != {c['o']!r}")

    def _verify_infeasible(self, label, what, payload, produced):
        c, check = self.case, self.checks
        check(payload["status"] == "infeasible", f"{label}: status {payload['status']}")
        check.close(f"{label}: d_min", payload["d_min"], c["d_min"], VERTICAL_TOL)
        check.close(f"{label}: d_max", payload["d_max"], c["d_max"], VERTICAL_TOL)
        check(produced is None, f"{label}: wrote an output file")

    def _verify_field(self, label, what, payload, produced):
        check = self.checks
        check(payload["converged"] is True and payload["residual"] <= 1e-8,
              f"{label}: converged={payload['converged']} residual={payload['residual']}")
        rows = _csv(produced, "rho,theta,u", 64 * 64, check, label)
        if rows is not None:
            radial = self.ca.solve_radial(0.4, self.ca.Annulus(0.5, 1.5), self.shift + 0.1, self.shift)
            radii, index = np.unique(rows[:, 0], return_inverse=True)
            exact = np.array([radial.evaluator.value(r) for r in radii])[index]
            err = float(np.abs(rows[:, 2] - exact).max())
            # second-order discretisation error at 64x64 is about 2.3e-5
            check(err <= 1e-4, f"{label}: 2D solution differs from the radial solve by {err:g}")

    def _verify_family(self, label, what, payload, produced):
        self._svg(label, produced, 3)

    def _verify_box(self, label, what, payload, produced):
        self._svg(label, produced, 2)

    def _svg(self, label, produced, curves):
        try:
            root = ET.fromstring(produced)
        except (ET.ParseError, TypeError) as exc:
            self.checks(False, f"{label}: SVG is not well-formed XML ({exc})")
            return
        self.checks(root.tag == SVG + "svg", f"{label}: root element {root.tag}")
        self.checks(len(root.findall(f".//{SVG}polyline")) == curves, f"{label}: wrong number of curves")


def _csv(produced, header, n_rows, check, label):
    if not check(produced is not None, f"{label}: no output file"):
        return None
    lines = produced.decode().split("\n")
    check(lines[-1] == "", f"{label}: file does not end with a newline")
    check(lines[0] == header, f"{label}: header {lines[0]!r}, want {header!r}")
    body = lines[1:-1]
    if not check(len(body) == n_rows, f"{label}: {len(body)} rows, want {n_rows}"):
        return None
    return np.array([[float(x) if x else math.nan for x in line.split(",")] for line in body])


def _importtime(stderr: str) -> dict:
    """Cumulative import seconds of ``cmc_annuli`` and of scipy, from ``-X importtime``.

    Lines are printed children first, indented two spaces per level; scipy's
    share is the cumulative time of every scipy module not imported by
    another scipy module.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = {"cmc_annuli": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            totals["scipy"] += cumulative / 1e6
        if name == "cmc_annuli":
            totals["cmc_annuli"] += cumulative / 1e6
        stack.append((depth, name))
    return totals
