"""grid-2d: ``solve_dirichlet_2d`` on a ladder of polar grids.

h = 0.4 on the annulus (0.5, 1.5). Each rung is solved twice per round: once
with radial data u(a) = c + 0.1, u(b) = c, and once with the same inner value
and wavy outer data c + 0.05 cos(3 theta + phi) given as a callable. The seed
sets the shift c and the phase phi, which leave the iteration counts (and so
the cost) unchanged. The smaller rungs are repeated so their medians have
enough samples; 32x32 is the light operation, 128x128 the medium and
256x256 the heavy one.
"""

from __future__ import annotations

import math
import random

import numpy as np

from harness import Failed, Workload

H, A, B = 0.4, 0.5, 1.5
RISE, AMPLITUDE, WAVES = 0.1, 0.05, 3

#: (grid size, solves per data kind and round); the smallest size is the light one
LADDER = [(32, 8), (64, 2), (128, 2), (256, 1)]
SMOKE_LADDER = [(32, 1), (64, 1)]


def _schedule(ladder):
    """One round's (size, data kind) solves, light ones spread evenly between the others.

    Machine noise drifts over seconds, so the light samples are taken across
    the whole round rather than in one burst at its start.
    """
    (small, repeats), rest = ladder[0], ladder[1:]
    light = [(small, kind) for _ in range(repeats) for kind in ("radial", "wavy")]
    big = [(n, kind) for n, reps in reversed(rest) for _ in range(reps) for kind in ("radial", "wavy")]
    order = []
    for i, item in enumerate(big):
        order += light[len(light) * i // len(big):len(light) * (i + 1) // len(big)]
        order.append(item)
    return order


class Grid2D(Workload):
    def __init__(self, ca, seed: int, smoke: bool, checks):
        super().__init__()
        self.ca, self.checks = ca, checks
        rng = random.Random(seed)
        self.shift = rng.uniform(-1.0, 1.0)
        self.phase = rng.uniform(0.0, 2.0 * math.pi)
        ladder = SMOKE_LADDER if smoke else LADDER
        self.schedule = _schedule(ladder)
        sizes = [n for n, _ in ladder]
        self.LIGHT, self.MEDIUM, self.HEAVY = (f"{n}x{n}" for n in (sizes[0], sizes[-2], sizes[-1]))
        self.annulus = ca.Annulus(A, B)
        self.reference = {}

    def outer(self, theta: float) -> float:
        return self.shift + AMPLITUDE * math.cos(WAVES * theta + self.phase)

    def round(self, ops, index: int) -> None:
        ca = self.ca
        inner = self.shift + RISE
        for n, kind in self.schedule:
            outer = self.shift if kind == "radial" else self.outer
            result = ops.run(f"{n}x{n}", (n, kind), ca.solve_dirichlet_2d, H, self.annulus, inner, outer,
                             grid=(n, n))
            if isinstance(result, Failed):
                continue
            field, report = result
            if ops.tracer is not None:
                self.picard_iterations.append(report.iterations)
            key = (n, kind)
            if key not in self.reference:
                self.reference[key] = (field, report)
            else:
                self.checks(np.array_equal(field.values, self.reference[key][0].values),
                            f"{n}x{n} {kind}: solution differs between identical solves")

    def verify(self) -> None:
        ca, check = self.ca, self.checks
        tol = 1e-8  # solve_dirichlet_2d's default residual tolerance
        radial = ca.solve_radial(H, self.annulus, self.shift + RISE, self.shift)
        box = ca.bounding_box(H, self.annulus,
                              ca.OuterBoundaryData(self.shift - AMPLITUDE, self.shift + AMPLITUDE))
        errors = []
        for (n, kind), (field, report) in sorted(self.reference.items()):
            label = f"{n}x{n} {kind}"
            residual = float(np.abs(ca.cmc_residual(field, H)).max())
            check(report.converged and residual <= tol, f"{label}: residual {residual:g} above {tol:g}")
            rho = field.grid.rho
            if kind == "radial":
                exact = np.array([radial.evaluator.value(r) for r in rho])
                errors.append((field.grid.d_rho, float(np.abs(field.values - exact[:, None]).max())))
            else:
                upper = np.array([box.upper.value(r) for r in rho])[:, None]
                lower = np.array([box.lower.value(r) for r in rho])[:, None]
                worst = float(max((field.values - upper).max(), (lower - field.values).max()))
                check(worst <= tol, f"{label}: leaves the envelope box by {worst:g}")
        # second order: error ratio against the grid-spacing ratio
        for (h1, e1), (h2, e2) in zip(errors, errors[1:]):
            order = math.log(e1 / e2) / math.log(h1 / h2)
            check(1.8 <= order <= 2.2, f"observed order {order:.3f} between spacings {h1:.4g} and {h2:.4g}")
        check(len(errors) >= 2, "fewer than two radial solves to measure the order")
