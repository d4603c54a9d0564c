"""radial-sweep: in-process point queries and tables over h in (0, 1/2].

Each case is an annulus and outer data for one h. Case 0 has h = 1/2 and
tabulates the alpha = 1 profile, whose closed form is 2(cosh(rho/2) - 1); the
other cases spread h over [0.05, 1/2) in strata and alternate the inner radius
below and above the hole threshold artanh(2h). The annuli and profile
parameters are a fixed design; the seed draws the outer data, shifts,
verdict offsets and (jittered) targets. Per case a round makes:

* three feasibility verdicts, inner data placed at the oracle thresholds plus
  or minus an offset (light operations);
* one ``extremal_drops`` query;
* three ``solve_radial`` calls at interior targets (medium operations) and one
  at a target outside the achievable interval, which must raise
  ``InfeasibleBoundaryError``;
* one table operation: ``sample_profile``, ``AprioriBounds.sample`` and the
  ``RadialSolution.evaluator`` rows of the middle solve (heavy operation).

Every round also makes two solves whose targets lie 1e-9 inside ``d_min`` and
``d_max`` on a fixed annulus; today both raise ``NonConvergenceError`` (the
rounding-floor snap of the flux constant in ``integrate_radial``) and count
as failed operations.
"""

from __future__ import annotations

import math
import random

import numpy as np

import oracle
from harness import Failed, Workload

LIGHT, MEDIUM, HEAVY = "verdict", "solve", "table"

# seed-independent near-extremal solves on (h, a, b), 1e-9 inside each end
NEAR_CASE = (0.4, 0.5, 2.0)
NEAR_OFFSET = 1e-9

#: Fixed shape of the cases, cycled over the case index. The cost of a
#: threshold at rho = a depends on how the recomputed starting radius rounds
#: against a (a quadrature over a sub-ulp interval when it rounds below), so
#: annuli drawn afresh per seed would make the verdict times follow the draw.
#: The seed moves only cost-neutral inputs: outer data, u(b), offsets, and by
#: up to JITTER (relative) the targets and the profile table's reach.
INSIDE = (0.35, 0.55, 0.75)  # inner radius / artanh(2h): a lower envelope exists
OUTSIDE = (1.25, 1.5, 1.75)  # inner radius / artanh(2h): hole too large
WIDTHS = (0.6, 1.0, 1.4)  # b - a
SMALL = (0.3, 0.5, 0.7)  # alpha / 2h, rising branch
LARGE = (1.7, 2.5, 3.5)  # alpha / 2h, dipping branch
REACH = (1.5, 2.0, 2.5)  # rho_max - rho0 of the profile table
FRACTIONS = (0.15, 0.5, 0.85)  # interior targets within (d_min, d_max)
JITTER = 0.03

#: Vertical-start heights carry a double-precision ambiguity of order
#: sqrt(ulp(rho0)) ~ 1e-8 (see the package README); the acceptance suite
#: compares envelopes with extremal drops at 1e-7, and so does this check.
VERTICAL_TOL = 1e-7
#: The neck profile starts at rho0 = 0 exactly and has no such ambiguity.
CLOSED_FORM_TOL = 1e-8


class RadialSweep(Workload):
    LIGHT, MEDIUM, HEAVY = LIGHT, MEDIUM, HEAVY

    def __init__(self, ca, seed: int, smoke: bool, checks):
        super().__init__()
        self.ca, self.checks = ca, checks
        rng = random.Random(seed)
        n_cases = 3 if smoke else 12
        self.rows = 16 if smoke else 128
        self.cases = [self._case(rng, k, n_cases) for k in range(n_cases)]
        h, a, b = NEAR_CASE
        d_min, d_max = oracle.extremal_drops(h, a, b)
        self.near = [(h, ca.Annulus(a, b), target) for target in (d_max - NEAR_OFFSET, d_min + NEAR_OFFSET)]
        self.reference = None

    def _case(self, rng, k, n_cases):
        ca = self.ca
        j = k % 3

        def near(value):
            return value * (1.0 + rng.uniform(-JITTER, JITTER))

        if k == 0:
            h, a, alpha = 0.5, 0.9, 1.0
        else:
            h = 0.05 + 0.45 * (k - 0.5) / (n_cases - 1)
            a = math.atanh(2 * h) * (INSIDE if k % 2 else OUTSIDE)[j]
            alpha = 2 * h * (SMALL if k % 2 else LARGE)[j]
        b = a + WIDTHS[j]
        m = rng.uniform(-1.0, 1.0)
        M = m + rng.uniform(0.0, 1.0)
        drops = oracle.extremal_drops(h, a, b)
        d_min, d_max = drops
        t_upper = M + d_max
        t_lower = m + d_min if oracle.hole_ok(h, a) else None
        offset = 10 ** rng.uniform(-6, -1)
        inside_hi = t_upper - offset
        inside_lo = inside_hi if t_lower is None else t_lower + offset
        verdicts = [((t_upper + offset, t_upper + offset), "violates_upper")]
        if t_lower is not None:
            verdicts.append(((t_lower - offset, t_lower - offset), "violates_lower"))
        verdicts.append(((min(inside_lo, inside_hi), max(inside_lo, inside_hi)), "inconclusive"))
        u_b = rng.uniform(-1.0, 1.0)
        targets = [d_min + near(f) * (d_max - d_min) for f in FRACTIONS]
        outside = d_max + offset if k % 2 else d_min - offset
        rho0 = ca.boundary_radius(h, alpha)
        return dict(h=h, annulus=ca.Annulus(a, b), data=ca.OuterBoundaryData(m, M), m=m, M=M,
                    drops=drops, offset=offset, verdicts=verdicts, u_b=u_b, targets=targets,
                    outside=outside, alpha=alpha, rho_max=rho0 + near(REACH[j]))

    # -- one round -------------------------------------------------------------
    def round(self, ops, index: int) -> None:
        ca = self.ca
        out = []
        for k, case in enumerate(self.cases):
            h, ann = case["h"], case["annulus"]
            for i, ((lo, hi), _) in enumerate(case["verdicts"]):
                out.append(ops.run(LIGHT, (k, i), ca.dirichlet_feasibility, h, ann, lo, hi, case["data"]))
            out.append(ops.run("drops", k, ca.extremal_drops, h, ann))
            solutions = [ops.run(MEDIUM, (k, i), ca.solve_radial, h, ann, case["u_b"] + t, case["u_b"])
                         for i, t in enumerate(case["targets"])]
            out.extend(solutions)
            out.append(ops.run("infeasible", k, ca.solve_radial, h, ann, case["u_b"] + case["outside"],
                               case["u_b"], expect=(ca.InfeasibleBoundaryError,)))
            out.append(ops.run(HEAVY, k, self._tables, ops, case, solutions[1]))
        for i, (h, ann, target) in enumerate(self.near):
            out.append(ops.run("near_extremal", i, ca.solve_radial, h, ann, target, 0.0))
        if self.reference is None:
            self.reference, self.reference_fingerprint = out, _fingerprint(out)
        else:
            self.checks(_fingerprint(out) == self.reference_fingerprint,
                        f"round {index} differs from round 0 on identical inputs")

    def _tables(self, ops, case, solution):
        ca, n = self.ca, self.rows
        profile = ca.sample_profile(case["h"], case["alpha"], case["rho_max"], n)
        box = ca.bounding_box(case["h"], case["annulus"], case["data"]).sample(n)
        radii = np.linspace(case["annulus"].a, case["annulus"].b, n)
        with ops.span("radial.evaluator"):
            rows = np.array([solution.evaluator.value(r) for r in radii])
        return profile, box, rows

    # -- correctness -------------------------------------------------------------
    def verify(self) -> None:
        ca, check = self.ca, self.checks
        it = iter(self.reference)
        for k, case in enumerate(self.cases):
            h, ann, (d_min, d_max) = case["h"], case["annulus"], case["drops"]
            label = f"case {k} (h={h:.6g}, a={ann.a:.6g}, b={ann.b:.6g})"
            for _, side in case["verdicts"]:
                result = next(it)
                if isinstance(result, Failed):
                    continue
                check(result.verdict.value == side, f"{label}: verdict {result.verdict.value}, want {side}")
                check.close(f"{label}: {side} margin", result.margin,
                            case["offset"] if side != "inconclusive" else -case["offset"], VERTICAL_TOL)
                check.close(f"{label}: upper threshold", result.threshold_upper, case["M"] + d_max, VERTICAL_TOL)
            drops = next(it)
            if not isinstance(drops, Failed):
                check.close(f"{label}: d_min", drops.d_min, d_min, VERTICAL_TOL)
                check.close(f"{label}: d_max", drops.d_max, d_max, VERTICAL_TOL)
            solutions = [next(it) for _ in case["targets"]]
            for target, sol in zip(case["targets"], solutions):
                if not isinstance(sol, Failed):
                    self._check_solution(label, case, target, sol)
            exc = next(it)
            if check(isinstance(exc, ca.InfeasibleBoundaryError), f"{label}: outside target solved"):
                check.close(f"{label}: reported d_min", exc.d_min, d_min, VERTICAL_TOL)
                check.close(f"{label}: reported d_max", exc.d_max, d_max, VERTICAL_TOL)
            tables = next(it)
            if not isinstance(tables, Failed):
                self._check_tables(label, case, solutions[1], tables)
        for (h, ann, target), result in zip(self.near, it):
            if not isinstance(result, Failed):
                self._check_solution(f"near-extremal h={h}", dict(h=h, annulus=ann, u_b=0.0), target, result)

    def _check_solution(self, label, case, target, sol):
        h, ann, u_b = case["h"], case["annulus"], case["u_b"]
        check = self.checks
        check.close(f"{label}: u(a)", sol.evaluator.value(ann.a), u_b + target, 1e-8)
        check(sol.evaluator.value(ann.b) == u_b, f"{label}: u(b) != u_b")
        # the flux sinh(rho) u' / sqrt(1 + u'^2) - 2h cosh(rho), with u' differenced
        # from the evaluated heights, must equal the solution's flux constant
        step = 1e-3
        for frac in (0.25, 0.5, 0.75):
            rho = ann.a + frac * (ann.b - ann.a)
            slope = (sol.evaluator.value(rho + step) - sol.evaluator.value(rho - step)) / (2 * step)
            flux = math.sinh(rho) * slope / math.hypot(1.0, slope) - 2 * h * math.cosh(rho)
            check.close(f"{label}: flux at rho={rho:.4g}", flux, sol.C, 1e-5 * (1 + math.sinh(rho)))

    def _check_tables(self, label, case, solution, tables):
        profile, box, rows = tables
        check, n = self.checks, self.rows
        h, ann = case["h"], case["annulus"]
        check(profile.shape == (n, 3) and box.shape == (n, 3) and rows.shape == (n,),
              f"{label}: table shapes {profile.shape}, {box.shape}, {rows.shape}")
        check(profile[0, 1] == 0.0, f"{label}: profile does not start at height 0")
        if h == 0.5 and case["alpha"] == 1.0:
            worst = max(abs(hgt - oracle.neck_half_height(rho)) for rho, hgt in profile[:, :2])
            check(worst <= CLOSED_FORM_TOL, f"{label}: closed-form rows off by {worst:g}")
        else:
            mid = n // 2
            want = oracle.profile_heights(h, case["alpha"], [profile[mid, 0]])[0]
            check.close(f"{label}: profile row {mid}", profile[mid, 1], want, VERTICAL_TOL)
        mid = n // 2
        lower, upper = oracle.envelope_at(h, ann.a, box[mid, 0], case["m"], case["M"], case["drops"])
        check.close(f"{label}: upper envelope row {mid}", box[mid, 2], upper, VERTICAL_TOL)
        if lower is None:
            check(bool(np.all(np.isnan(box[:, 1]))), f"{label}: lower envelope present without a hole")
        else:
            check.close(f"{label}: lower envelope row {mid}", box[mid, 1], lower, VERTICAL_TOL)
            check(bool(np.all(box[:, 1] <= box[:, 2])), f"{label}: lower envelope above upper")
        check.close(f"{label}: evaluator row 0", rows[0], case["u_b"] + case["targets"][1], 1e-8)
        check(rows[-1] == case["u_b"], f"{label}: evaluator last row != u_b")


def _fingerprint(outputs) -> list:
    """Comparable form of a round's outputs (solutions by flux constant and shift)."""
    result = []
    for value in outputs:
        if hasattr(value, "evaluator"):
            result.append(("solution", value.C, value.shift))
        elif isinstance(value, tuple):
            result.append(tuple(arr.tobytes() for arr in value))
        elif isinstance(value, (BaseException, Failed)):
            exc = value.exc if isinstance(value, Failed) else value
            result.append((type(exc).__name__, str(exc)))
        else:
            result.append(repr(value))
    return result
