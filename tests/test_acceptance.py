"""Acceptance suite: each criterion prints one pass/fail line (run with -s to see them)."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np

import cmc_annuli as ca
from cmc_annuli.cli import main as cli_main


def check(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_closed_form_oracle():
    # symbolic oracle: at h = 1/2, alpha = 1 the slope is sinh(rho/2), so the
    # height is 2(cosh(rho/2) - 1)
    failures = []
    for rho in (0.1, 0.5, 1.0, 2.0, 3.0):
        got = ca.height(0.5, 1.0, rho)
        want = 2.0 * (math.cosh(rho / 2.0) - 1.0)
        if abs(got - want) > 1e-9:
            failures.append((rho, got, want))
    check(1, "height(1/2, 1, rho) matches 2(cosh(rho/2) - 1) to 1e-9", failures)


def test_criterion_2_flux_identity():
    rng = np.random.default_rng(20240817)
    failures = []
    count = 0
    while count < 200:
        h = rng.uniform(0.05, 0.5)
        use_small = rng.random() < 0.5
        if use_small:
            rho0 = rng.uniform(0.0, 0.95 * min(ca.hole_threshold(h), 2.0))
            alpha = ca.param_small(h, rho0)
        else:
            rho0 = rng.uniform(0.0, 2.0)
            alpha = ca.param_large(h, rho0)
        rho = rho0 + rng.uniform(0.05, 2.0)
        rhs = 2.0 * h * math.cosh(rho) - alpha
        scale = 2.0 * h * math.cosh(rho) + alpha
        if abs(rhs) < 0.05 * scale:
            continue  # keep the relative comparison away from the sign change
        count += 1
        lhs = ca.flux(ca.slope(h, alpha, rho), rho)
        if abs(lhs - rhs) > 1e-12 * abs(rhs):
            failures.append((h, alpha, rho, lhs, rhs))
    check(2, "flux identity to 1e-12 relative on 200 random triples", failures)


def test_criterion_3_cmc_verification():
    cases = [
        (0.25, ca.param_small(0.25, 0.3)),
        (0.4, ca.param_small(0.4, 0.5)),
        (0.4, ca.param_large(0.4, 1.0)),
        (0.5, 2.0),
        (0.5, 1.0),
    ]
    failures = []
    for h, param in cases:
        profile = ca.HeightProfile(h, param)
        rf = profile.as_radial_function()
        rho = profile.rho0 + 0.9
        err_at_1e4 = abs(ca.mean_curvature_radial(rf, rho, step=1e-4) - 2 * h)
        if err_at_1e4 > 1e-5:
            failures.append(("tolerance", h, param, err_at_1e4))
        errs = [abs(ca.mean_curvature_radial(rf, rho, step=s) - 2 * h) for s in (4e-4, 2e-4, 1e-4)]
        orders = [math.log2(c / f) for c, f in zip(errs, errs[1:])]
        for order in orders:
            if abs(order - 2.0) > 0.2:
                failures.append(("order", h, param, order))
    check(3, "curvature checker gives 2h to 1e-5 at step 1e-4, order 2.0 +/- 0.2", failures)


def test_criterion_4_inverse_round_trips():
    failures = []
    for h in (0.05, 0.25, 0.4, 0.499, 0.5):
        small_top = 0.999 * min(ca.hole_threshold(h), 4.0)
        for rho in np.linspace(0.0, small_top, 30):
            back = ca.boundary_radius(h, ca.param_small(h, rho))
            if abs(back - rho) > 1e-10:
                failures.append(("small", h, rho, back))
        for rho in np.linspace(0.0, 5.0, 30):
            back = ca.boundary_radius(h, ca.param_large(h, rho))
            if abs(back - rho) > 1e-10:
                failures.append(("large", h, rho, back))
    for rho in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        if ca.param_small(0.5, rho) != math.exp(-rho):
            failures.append(("half-small", rho))
        if ca.param_large(0.5, rho) != math.exp(rho):
            failures.append(("half-large", rho))
    check(4, "boundary_radius inverts both branches to 1e-10; h=1/2 exact", failures)


def test_criterion_5_hole_threshold():
    failures = []
    if abs(ca.hole_threshold(0.4) - math.log(3.0)) > 1e-12:
        failures.append(("threshold", ca.hole_threshold(0.4)))
    threshold = ca.hole_threshold(0.4)
    try:
        ca.lower_envelope(0.4, ca.Annulus(threshold - 1e-6, 2.0), 0.0)
    except ca.HoleTooLargeError:
        failures.append("rejected admissible hole at threshold - 1e-6")
    for a in (threshold, threshold + 1e-6):
        try:
            ca.lower_envelope(0.4, ca.Annulus(a, 2.0), 0.0)
            failures.append(("accepted oversized hole", a))
        except ca.HoleTooLargeError:
            pass
    check(5, "hole_threshold(0.4) = log 3 to 1e-12 and gates the lower bound sharply", failures)


def _annuli_for_sharpness():
    inner = (0.1, 0.2, 0.3, 0.4, 0.6, 0.9, 1.2, 1.5, 2.0, 2.5)
    return [ca.Annulus(a, a + w) for a in inner for w in (0.5, 1.3)]


def test_criterion_6_sharpness_cross_check():
    failures = []
    for h in (0.2, 0.4, 0.5):
        for annulus in _annuli_for_sharpness():
            drops = ca.extremal_drops(h, annulus)
            upper_at_a = ca.upper_envelope(h, annulus, 0.0).value(annulus.a)
            if abs(upper_at_a - drops.d_max) > 1e-7:
                failures.append(("upper", h, annulus.a, annulus.b))
            hole_ok = annulus.a < ca.hole_threshold(h)
            if hole_ok:
                lower_at_a = ca.lower_envelope(h, annulus, 0.0).value(annulus.a)
                if abs(lower_at_a - drops.d_min) > 1e-7:
                    failures.append(("lower", h, annulus.a, annulus.b))
            try:
                ca.solve_radial(h, annulus, drops.d_max - 1e-4, 0.0)
            except ca.InfeasibleBoundaryError:
                failures.append(("max-eps rejected", h, annulus.a, annulus.b))
            try:
                ca.solve_radial(h, annulus, drops.d_max + 1e-4, 0.0)
                failures.append(("max+eps accepted", h, annulus.a, annulus.b))
            except ca.InfeasibleBoundaryError:
                pass
            if hole_ok:
                try:
                    ca.solve_radial(h, annulus, drops.d_min + 1e-4, 0.0)
                except ca.InfeasibleBoundaryError:
                    failures.append(("min+eps rejected", h, annulus.a, annulus.b))
                try:
                    ca.solve_radial(h, annulus, drops.d_min - 1e-4, 0.0)
                    failures.append(("min-eps accepted", h, annulus.a, annulus.b))
                except ca.InfeasibleBoundaryError:
                    pass
    check(6, "extremal drops match envelopes to 1e-7; solvable exactly inside them", failures)


def test_criterion_7_nonexistence_verdicts(capsys, tmp_path):
    failures = []
    annulus = ca.Annulus(0.5, 2.0)
    for c in (-5.0, 0.0, 7.0):
        threshold = ca.upper_envelope(0.4, annulus, c).value(0.5)
        for eps in (1e-3, 1e-1, 1.0, 10.0):
            code = cli_main(
                ["check", "--h", "0.4", "--a", "0.5", "--b", "2",
                 "--inner", repr(threshold + eps), "--outer", repr(c)]
            )
            payload = json.loads(capsys.readouterr().out)
            if code != 0 or payload["verdict"] != "violates_upper":
                failures.append((c, eps, payload))
            elif abs(payload["margin"] - eps) > 1e-6 * max(1.0, eps):
                failures.append((c, eps, "margin", payload["margin"]))
    check(7, "check verdict reproduces the non-existence argument for all eps and c", failures)


def test_criterion_8_2d_radial_agreement():
    failures = []
    h, annulus = 0.4, ca.Annulus(0.5, 1.5)
    drops = ca.extremal_drops(h, annulus)
    u_a = 0.5 * (drops.d_min + drops.d_max)
    oracle = ca.solve_radial(h, annulus, u_a, 0.0)
    errs = {}
    for n in (32, 64, 128):
        field, report = ca.solve_dirichlet_2d(h, annulus, u_a, 0.0, grid=(n, n), tol=1e-9)
        if not report.converged:
            failures.append(("no convergence", n))
            continue
        radial = np.array([oracle.evaluator.value(r) for r in field.grid.rho])
        errs[n] = float(np.abs(field.values - radial[:, None]).max())
    if errs:
        # second order: the 32-grid error fixes the constant C in C*(spacing)^2
        spacing = {n: 1.0 / (n - 1) for n in errs}
        constant = errs[32] / spacing[32] ** 2
        for n in (64, 128):
            if errs[n] > 1.5 * constant * spacing[n] ** 2:
                failures.append(("order loss", n, errs))
    check(8, "2D solver matches the radial oracle at O(spacing^2), 32^2 to 128^2", failures)


def test_criterion_9_envelope_domination():
    failures = []
    h, annulus, c = 0.4, ca.Annulus(0.5, 1.5), 0.3
    data = ca.OuterBoundaryData(c - 0.1, c + 0.1)
    box = ca.bounding_box(h, annulus, data)
    inner = 0.5 * (box.lower.value(annulus.a) + box.upper.value(annulus.a))
    field, report = ca.solve_dirichlet_2d(
        h, annulus, inner, lambda t: c + 0.1 * math.cos(t), grid=(64, 64), tol=1e-9
    )
    if not report.converged:
        failures.append("solver did not converge")
    grid_tol = 10.0 * field.grid.d_rho**2
    upper = np.array([box.upper.value(r) for r in field.grid.rho])
    lower = np.array([box.lower.value(r) for r in field.grid.rho])
    above = float((field.values - upper[:, None]).max())
    below = float((lower[:, None] - field.values).max())
    if above > grid_tol:
        failures.append(("above upper", above))
    if below > grid_tol:
        failures.append(("below lower", below))
    check(9, "2D solution with wavy outer data stays inside the bounding box", failures)


def test_criterion_10_figure_reproduction(capsys, tmp_path):
    failures = []
    family_path = tmp_path / "family.svg"
    code = cli_main(
        ["figure", "family", "--h", "0.5", "--alphas", "0.3,1,3", "--rho-max", "4.5",
         "--n", "400", "--out", str(family_path)]
    )
    capsys.readouterr()
    if code != 0:
        failures.append("family exit code")
    try:
        root = ET.parse(family_path).getroot()
    except ET.ParseError as exc:
        failures.append(("family xml", str(exc)))
        root = None
    if root is not None:
        curves = {}
        for node in root.iter("{http://www.w3.org/2000/svg}polyline"):
            pts = [tuple(map(float, p.split(","))) for p in node.attrib["points"].split()]
            curves[node.attrib["data-label"]] = pts
        if set(curves) != {"α = 0.3", "α = 1", "α = 3"}:
            failures.append(("labels", set(curves)))
        else:
            small, neck, large = curves["α = 0.3"], curves["α = 1"], curves["α = 3"]
            # item 3: zero on the starting circle, vertical there (steep first step)
            for name, pts in (("small", small), ("large", large)):
                if pts[0][1] != 0.0:
                    failures.append((name, "nonzero start"))
            first_gap = small[1][0] - small[0][0]
            start_slope = (small[1][1] - small[0][1]) / first_gap
            interior_slope = (small[21][1] - small[20][1]) / first_gap
            if not start_slope > 3.0 * interior_slope > 0.0:
                failures.append(("verticality", start_slope, interior_slope))
            large_start = (large[1][1] - large[0][1]) / first_gap
            if not large_start < 0.0:
                failures.append(("large branch starts downward", large_start))
            # item 4: small branch nonnegative; neck nonnegative from rho = 0;
            # large branch dips below zero near its circle, positive far out
            if min(y for _, y in small) < -1e-12:
                failures.append("small branch went negative")
            if neck[0][0] != 0.0 or min(y for _, y in neck) < -1e-12:
                failures.append("neck profile pattern")
            if not (min(y for _, y in large) < -0.1 and large[-1][1] > 0.0):
                failures.append("large branch sign pattern")

    box_path = tmp_path / "box.svg"
    code = cli_main(
        ["figure", "box", "--h", "0.5", "--a", "1", "--b", "2", "--m", "-0.25",
         "--M", "0.5", "--out", str(box_path)]
    )
    capsys.readouterr()
    if code != 0:
        failures.append("box exit code")
    try:
        root = ET.parse(box_path).getroot()
        labels = {}
        for node in root.iter("{http://www.w3.org/2000/svg}polyline"):
            pts = [tuple(map(float, p.split(","))) for p in node.attrib["points"].split()]
            labels[node.attrib["data-label"]] = pts
        if labels["upper envelope"][-1] != (2.0, 0.5):
            failures.append("upper not anchored at M")
        if labels["lower envelope"][-1] != (2.0, -0.25):
            failures.append("lower not anchored at m")
    except ET.ParseError as exc:
        failures.append(("box xml", str(exc)))
    check(10, "figures are well-formed SVG with the documented sign/verticality pattern", failures)
