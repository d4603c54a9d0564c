import math
import warnings

import numpy as np
import pytest

from cmc_annuli import (
    Annulus,
    Field2D,
    HeightProfile,
    NonConvergenceError,
    OuterBoundaryData,
    PolarGrid,
    Verdict,
    bounding_box,
    cmc_residual,
    dirichlet_feasibility,
    extremal_drops,
    max_gradient,
    solve_dirichlet_2d,
    solve_radial,
)
from cmc_annuli.krylov import _armijo, givens, gmres, newton_krylov

ANN = Annulus(0.5, 1.5)
H = 0.4


def radial_field(grid, fn):
    column = np.array([fn(r) for r in grid.rho])
    return Field2D(grid, np.tile(column[:, None], (1, grid.n_theta)))


def averaged_jacobian(grid, u):
    """The theta means of the Jacobian's along coefficients at u, per interior
    row: the weights of its outer, inner, east and west neighbours."""
    from cmc_annuli.pde2d import _linearize

    a_rho, a_theta = _linearize(grid, u, H)[2]
    flux, s = a_rho.mean(axis=1), grid.sinh_rho[1:-1]
    return flux[1:] / s, flux[:-1] / s, a_theta[:, 1:].mean(axis=1), a_theta[:, :-1].mean(axis=1)


class TestGridAndField:
    def test_grid_nodes(self):
        grid = PolarGrid(ANN, 5, 8)
        assert grid.rho[0] == ANN.a and grid.rho[-1] == ANN.b
        assert len(grid.theta) == 8
        assert grid.theta[0] == 0.0
        assert grid.d_theta == pytest.approx(2 * math.pi / 8)

    @pytest.mark.parametrize("n_rho, n_theta", [(2, 8), (5, 3)])
    def test_grid_validation(self, n_rho, n_theta):
        with pytest.raises(ValueError):
            PolarGrid(ANN, n_rho, n_theta)

    @pytest.mark.parametrize("grid", [8, (8,), (8, 8, 8)], ids=["int", "one", "three"])
    def test_solve_grid_must_be_a_pair(self, grid):
        with pytest.raises(ValueError, match="grid must be a pair"):
            solve_dirichlet_2d(H, ANN, 0.1, 0.0, grid=grid)

    def test_field_shape_validation(self):
        grid = PolarGrid(ANN, 5, 8)
        with pytest.raises(ValueError):
            Field2D(grid, np.zeros((5, 7)))


class TestDiscreteOperator:
    def test_constant_field_residual(self):
        grid = PolarGrid(ANN, 16, 16)
        residual = cmc_residual(Field2D(grid, np.full((16, 16), 4.2)), H)
        assert residual.shape == (14, 16)
        assert np.allclose(residual, -2 * H, atol=1e-13)

    def test_radial_profile_residual_second_order(self):
        profile = HeightProfile(H, 0.5)
        errs = []
        for n in (16, 32, 64):
            grid = PolarGrid(ANN, n, 8)
            field = radial_field(grid, profile.height)
            errs.append(float(np.abs(cmc_residual(field, H)).max()))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=1.2)

    def test_matches_analytic_operator_on_wavy_bump(self):
        # independent referee: symbolic differentiation of the full operator
        sp = pytest.importorskip("sympy")
        rho_s, th_s = sp.symbols("rho theta", positive=True)
        u_s = sp.Rational(1, 10) * sp.cos(th_s) * sp.exp(-((rho_s - 1) ** 2) * 10)
        w_s = sp.sqrt(1 + sp.diff(u_s, rho_s) ** 2 + sp.diff(u_s, th_s) ** 2 / sp.sinh(rho_s) ** 2)
        q_s = (
            sp.diff(sp.sinh(rho_s) * sp.diff(u_s, rho_s) / w_s, rho_s)
            + sp.diff(sp.diff(u_s, th_s) / (sp.sinh(rho_s) * w_s), th_s)
        ) / sp.sinh(rho_s)
        q_fn = sp.lambdify((rho_s, th_s), q_s, "numpy")
        u_fn = sp.lambdify((rho_s, th_s), u_s, "numpy")

        errs = []
        for n in (32, 64):
            grid = PolarGrid(ANN, n, n)
            mesh_r, mesh_t = np.meshgrid(grid.rho, grid.theta, indexing="ij")
            field = Field2D(grid, u_fn(mesh_r, mesh_t))
            discrete = cmc_residual(field, H) + 2 * H
            exact = q_fn(mesh_r, mesh_t)[1:-1, :]
            errs.append(float(np.abs(discrete - exact).max()))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)
        assert errs[1] < 5e-3

    def test_preconditioner_inverts_the_jacobian_on_radial_field(self):
        # on a theta-independent field the Jacobian's cross terms vanish, so its
        # theta average is the Jacobian itself, with zero boundary rows
        from cmc_annuli.pde2d import _linearize, _preconditioner

        grid = PolarGrid(ANN, 12, 10)
        u = radial_field(grid, lambda r: math.sin(3 * r) + r**2).values
        x = np.random.default_rng(11).standard_normal((grid.n_rho - 2) * grid.n_theta)
        _, product, coefficients = _linearize(grid, u, H)
        back = _preconditioner(grid, coefficients)(product(x))
        assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("n_rho, n_theta", [(3, 4), (3, 5), (4, 7), (12, 10), (33, 17)])
    def test_preconditioner_matches_dense_averaged_operator(self, n_rho, n_theta):
        # referee: the theta-averaged Jacobian, without its cross terms,
        # assembled on the whole interior grid, with zero boundary rows, and
        # solved densely
        from cmc_annuli.pde2d import _linearize, _preconditioner

        grid = PolarGrid(ANN, n_rho, n_theta)
        mesh_r, mesh_t = np.meshgrid(grid.rho, grid.theta, indexing="ij")
        u = np.sin(3 * mesh_r) + mesh_r**2 + 0.3 * mesh_r * np.cos(mesh_t + 0.4 * np.sin(2 * mesh_t))
        c_out, c_in, c_east, c_west = averaged_jacobian(grid, u)
        radial = np.diag(-(c_out + c_in)) + np.diag(c_out[:-1], 1) + np.diag(c_in[1:], -1)
        shift = np.roll(np.eye(n_theta), 1, axis=1)  # (shift @ v)[j] = v[j + 1]
        dense = (
            np.kron(radial, np.eye(n_theta))
            + np.kron(np.diag(c_east), shift - np.eye(n_theta))
            + np.kron(np.diag(c_west), shift.T - np.eye(n_theta))
        )
        r = np.random.default_rng(5).standard_normal((n_rho - 2) * n_theta)
        expected = np.linalg.solve(dense, r)
        got = _preconditioner(grid, _linearize(grid, u, H)[2])(r)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("rows", ["inner", "all"])
    def test_preconditioner_is_none_when_weights_overflow(self, rows):
        # W overflows to inf and the theta weights to 0, next to the inner
        # row or on every row; the diagonalization scales each row by its
        # theta weight, so it needs all of them positive
        from cmc_annuli.pde2d import _linearize, _preconditioner

        grid = PolarGrid(ANN, 12, 10)
        u = np.zeros((12, 10))
        if rows == "inner":
            u[0, :] = 1e300
        else:
            u[:] = 1e300 * (grid.rho[:, None] - ANN.b)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not np.all(averaged_jacobian(grid, u)[2] > 0.0)
            assert _preconditioner(grid, _linearize(grid, u, H)[2]) is None
        assert caught == []

    def test_preconditioner_is_none_when_the_averaged_operator_is_singular(self):
        # rows alternating +-1.5e308: every rho slope overflows, so every rho
        # weight is 0, while the theta weights stay positive; mode 0 of the
        # averaged operator is then 0, and its inverse not finite
        from cmc_annuli.pde2d import _linearize, _preconditioner

        grid = PolarGrid(ANN, 12, 10)
        u = 1.5e308 * (-1.0) ** np.arange(12)[:, None] * np.ones((1, 10))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c_out, c_in, c_east, _ = averaged_jacobian(grid, u)
            assert not c_out.any() and not c_in.any() and np.all(c_east > 0.0)
            assert _preconditioner(grid, _linearize(grid, u, H)[2]) is None
        assert caught == []

    def test_preconditioner_is_none_when_its_weights_overflow(self):
        # on an annulus of radius 1e-160 the Jacobian's weights themselves
        # overflow to inf, so the theta weights pass the positivity check and
        # the scaled operator is inf / inf. numpy warns on that overflow, which
        # this test does not check. The solve never gets here: ``Annulus``
        # rejects inner radii below 1e-70, so the grid takes a stand-in
        from types import SimpleNamespace

        from cmc_annuli.pde2d import _linearize, _preconditioner

        grid = PolarGrid(SimpleNamespace(a=1e-160, b=2e-160), 5, 4)
        u = np.zeros((5, 4))
        with np.errstate(over="ignore", divide="ignore"):
            c_east = averaged_jacobian(grid, u)[2]
            assert np.all(c_east > 0.0) and not np.isfinite(c_east).any()
            assert _preconditioner(grid, _linearize(grid, u, H)[2]) is None

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    @pytest.mark.parametrize("n_rho, n_theta", [(3, 4), (12, 10), (20, 16)])
    def test_jacobian_product_matches_central_differences(self, n_rho, n_theta, scale):
        # referee: central differences of the residual, whose error falls 100x
        # per decade of the step, second order, while it is above rounding; the
        # perturbation's slopes are 20x the field's scale on every grid
        from cmc_annuli.pde2d import _linearize

        grid = PolarGrid(ANN, n_rho, n_theta)
        mesh_r, mesh_t = np.meshgrid(grid.rho, grid.theta, indexing="ij")
        u = scale * (np.sin(3 * mesh_r) + mesh_r**2 + 0.3 * mesh_r * np.cos(mesh_t + 0.4 * np.sin(2 * mesh_t)))
        v = np.zeros_like(u)
        v[1:-1, :] = 20 * scale * grid.d_rho * np.random.default_rng(5).standard_normal((n_rho - 2, n_theta))
        product = _linearize(grid, u, H)[1](v[1:-1, :].ravel())
        errors = []
        for e in (1e-4, 1e-5, 1e-6):
            plus = cmc_residual(Field2D(grid, u + e * v), H)
            minus = cmc_residual(Field2D(grid, u - e * v), H)
            errors.append(np.abs((plus - minus).ravel() / (2 * e) - product).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert 70 <= coarse / fine <= 140, errors

    @pytest.mark.parametrize("rows", ["inner", "all"])
    def test_jacobian_product_is_none_when_slopes_overflow(self, rows):
        # slopes past the double range make W inf and the product inf * 0;
        # the product reports that as None and prints nothing
        from cmc_annuli.pde2d import _linearize

        grid = PolarGrid(ANN, 12, 10)
        u = np.zeros((12, 10))
        if rows == "inner":
            u[0, :], u[1, :] = 1.5e308, -1.5e308
        else:
            u[:] = 1.5e308 * (-1.0) ** np.arange(12)[:, None]
        v = np.random.default_rng(3).standard_normal((10, 10)).ravel()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _linearize(grid, u, H)[1](v) is None
        assert caught == []

    def test_max_gradient_of_tilted_plane(self):
        grid = PolarGrid(ANN, 32, 16)
        field = radial_field(grid, lambda r: 3.0 * r)
        assert max_gradient(field) == pytest.approx(3.0, rel=1e-10)


class TestSolver:
    def test_matches_radial_oracle(self):
        drops = extremal_drops(H, ANN)
        u_a = 0.5 * (drops.d_min + drops.d_max)
        oracle = solve_radial(H, ANN, u_a, 0.0)
        errs = []
        for n in (32, 64):
            field, report = solve_dirichlet_2d(H, ANN, u_a, 0.0, grid=(n, n), tol=1e-9)
            assert report.converged and report.residual <= 1e-9
            radial_vals = np.array([oracle.evaluator.value(r) for r in field.grid.rho])
            errs.append(float(np.abs(field.values - radial_vals[:, None]).max()))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.2)

    @pytest.mark.parametrize(
        "h, a, b, fraction",
        [
            (0.45, 1.2, 2.0, 0.02),
            (0.45, 1.2, 2.0, 0.1),
            (0.45, 1.2, 2.0, 0.98),
            (0.5, 1.0, 2.0, 0.1),
        ],
    )
    def test_steep_solvable_data_converges(self, h, a, b, fraction):
        # radial data well inside (d_min, d_max) has a solution; a damped
        # Picard iteration stalled on these before reaching the tolerance
        ann = Annulus(a, b)
        drops = extremal_drops(h, ann)
        u_a = drops.d_min + fraction * (drops.d_max - drops.d_min)
        oracle = solve_radial(h, ann, u_a, 0.0)
        errs = []
        for n in (32, 64):
            field, report = solve_dirichlet_2d(h, ann, u_a, 0.0, grid=(n, n), tol=1e-8)
            assert report.converged and report.residual <= 1e-8
            exact = oracle.evaluator.value(field.grid.rho)
            errs.append(float(np.abs(field.values - exact[:, None]).max()))
        assert errs[1] < errs[0]

    @staticmethod
    def observed_orders(u_a, outer):
        """Observed orders of the successive max differences on (m+1) x m grids, m = 16..128.

        Every node of a grid is a node of the next, and tol = 1e-11 keeps the
        Newton error well below the differences.
        """
        fields = [solve_dirichlet_2d(H, ANN, u_a, outer, (m + 1, m), 1e-11)[0].values for m in (16, 32, 64, 128)]
        diffs = [np.abs(coarse - fine[::2, ::2]).max() for coarse, fine in zip(fields, fields[1:])]
        return [math.log2(coarse / fine) for coarse, fine in zip(diffs, diffs[1:])]

    @pytest.mark.parametrize("u_a, amplitude, k", [(0.1, 0.05, 3), (0.3, 0.1, 5)])
    def test_second_order_on_wavy_data(self, u_a, amplitude, k):
        # the theta fluxes of the residual and the cross terms of the Jacobian
        # enter here, unlike on radial data; measured 1.991, 1.998 and 1.939, 1.965
        orders = self.observed_orders(u_a, lambda theta: amplitude * np.cos(k * theta))
        assert orders == pytest.approx([2.0, 2.0], abs=0.2)

    def test_order_collapses_where_the_envelopes_are_inconclusive(self):
        # the inconclusive counterpart of the test above: u(a) = 0.4 against
        # 0.05 cos 3theta is 0.071 inside the upper threshold, every solve
        # converges, and the observed order is 0.695 and 0.651 while the
        # inner-row gradient grows under refinement; no second order to assert
        result = dirichlet_feasibility(H, ANN, 0.4, 0.4, OuterBoundaryData(-0.05, 0.05))
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.margin == pytest.approx(-0.071, abs=1e-3)
        assert max(self.observed_orders(0.4, lambda theta: 0.05 * np.cos(3 * theta))) < 1.0

    def test_comparison_principle(self):
        low, _ = solve_dirichlet_2d(H, ANN, 0.0, 0.0, grid=(24, 16), tol=1e-9)
        high, _ = solve_dirichlet_2d(H, ANN, 0.2, 0.1, grid=(24, 16), tol=1e-9)
        assert np.all(high.values >= low.values - 1e-9)

    def test_nonradial_solution_respects_envelopes(self):
        box = bounding_box(H, ANN, OuterBoundaryData(-0.1, 0.1))
        inner = 0.5 * (box.lower.value(ANN.a) + box.upper.value(ANN.a))
        field, report = solve_dirichlet_2d(
            H, ANN, inner, lambda t: 0.1 * math.cos(t), grid=(48, 48), tol=1e-9
        )
        assert report.converged
        grid_tol = 10.0 * field.grid.d_rho**2
        upper = np.array([box.upper.value(r) for r in field.grid.rho])
        lower = np.array([box.lower.value(r) for r in field.grid.rho])
        assert np.all(field.values <= upper[:, None] + grid_tol)
        assert np.all(field.values >= lower[:, None] - grid_tol)

    @pytest.mark.parametrize("h, a, b", [(0.4, 0.5, 1.5), (0.45, 1.2, 2.0)])
    def test_steep_wavy_data_near_envelope_converges(self, h, a, b):
        # theta-dependent W near the upper envelope, where its theta average
        # preconditions worst
        ann = Annulus(a, b)
        box = bounding_box(h, ann, OuterBoundaryData(-0.1, 0.1))
        lower, upper = box.lower.value(a), box.upper.value(a)
        level = lower + 0.98 * (upper - lower)
        for n in (32, 64):
            field, report = solve_dirichlet_2d(
                h,
                ann,
                lambda t: level + 0.02 * math.cos(2 * t),
                lambda t: 0.1 * math.cos(5 * t),
                grid=(n, n),
                tol=1e-8,
            )
            assert report.converged and report.residual <= 1e-8
            grid_tol = 10.0 * field.grid.d_rho**2
            top = np.array([box.upper.value(r) for r in field.grid.rho])
            bottom = np.array([box.lower.value(r) for r in field.grid.rho])
            assert np.all(field.values <= top[:, None] + grid_tol)
            assert np.all(field.values >= bottom[:, None] - grid_tol)

    @pytest.mark.parametrize(
        "u_a, u_b",
        [
            pytest.param(1e154, 0.0, id="1e+154"),
            pytest.param(1e160, 0.0, id="1e+160"),
            pytest.param(1e300, 0.0, id="1e+300"),
            pytest.param(1.7e308, 0.0, id="1.7e+308"),
            pytest.param(-1.7e308, 1.7e308, id="-1.7e+308-1.7e+308"),
        ],
    )
    def test_overflowing_data_fails_without_warnings(self, u_a, u_b):
        # W overflows on the starting interpolant (1e160 and up), so the
        # averaged Jacobian is singular, or nearly does so (1e154); at the
        # float limit the differences of the data overflow too. The solve
        # reports that and prints nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonConvergenceError) as excinfo:
                solve_dirichlet_2d(0.4, Annulus(0.5, 2.0), u_a, u_b, grid=(24, 12))
        assert excinfo.value.report is not None
        assert not excinfo.value.report.converged
        assert caught == []

    def test_super_envelope_data_fails_or_blows_up(self):
        top = bounding_box(H, ANN, OuterBoundaryData(0.0, 0.0)).upper.value(ANN.a)
        try:
            field, report = solve_dirichlet_2d(H, ANN, top + 1.0, 0.0, grid=(32, 32), tol=1e-9)
        except NonConvergenceError as exc:
            assert exc.report is not None
            assert not exc.report.converged
            assert exc.report.max_gradient > 5.0
        else:
            # a discrete solution may exist; the blow-up signature must show
            assert report.max_gradient > 1.0 / field.grid.d_rho

    def test_boundary_data_forms(self):
        values = np.full(12, 0.05)
        f1, _ = solve_dirichlet_2d(H, ANN, 0.05, 0.0, grid=(12, 12), tol=1e-8)
        f2, _ = solve_dirichlet_2d(H, ANN, values, 0.0, grid=(12, 12), tol=1e-8)
        f3, _ = solve_dirichlet_2d(H, ANN, lambda t: 0.05, 0.0, grid=(12, 12), tol=1e-8)
        assert np.allclose(f1.values, f2.values, atol=1e-12)
        assert np.allclose(f1.values, f3.values, atol=1e-12)

    def test_bad_boundary_array_rejected(self):
        with pytest.raises(ValueError):
            solve_dirichlet_2d(H, ANN, np.zeros(7), 0.0, grid=(12, 12))
        # a callable's non-number is a bad value like any other, not a TypeError
        with pytest.raises(ValueError, match="g_outer must be finite at every theta node"):
            solve_dirichlet_2d(H, ANN, 0.0, lambda t: None, grid=(12, 12))

    def test_boundary_rows_imposed_exactly(self):
        inner = lambda t: 0.02 * math.sin(t)
        field, _ = solve_dirichlet_2d(H, ANN, inner, 0.1, grid=(16, 16), tol=1e-8)
        expected = np.array([inner(t) for t in field.grid.theta])
        assert np.array_equal(field.values[0, :], expected)
        assert np.all(field.values[-1, :] == 0.1)

    def test_report_carries_residual_history(self):
        _, report = solve_dirichlet_2d(H, ANN, 0.1, lambda t: 0.05 * math.cos(t), grid=(24, 16))
        assert report.converged
        assert len(report.residual_history) == report.iterations + 1
        assert report.residual_history[-1] == report.residual
        assert report.residual_history[0] > report.residual
        assert report.krylov_iterations >= report.iterations
        # the start and one line-search trial per step: the Jacobian products
        # evaluate no residual, and this solve takes every full step
        assert report.residual_evaluations == report.iterations + 1

    def test_each_iterate_is_evaluated_once(self, monkeypatch):
        # one half-node evaluation gives a trial's residual and its Jacobian
        # product, and the start's also builds the preconditioner; the field is
        # wrapped once, at the end. Above the upper envelope the line search
        # backtracks, so trials outnumber Newton steps
        from cmc_annuli import pde2d

        calls = {"_half_nodes": 0, "Field2D": 0}

        def counted(name):
            original = getattr(pde2d, name)

            def call(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(pde2d, name, call)

        counted("_half_nodes")
        counted("Field2D")
        _, report = solve_dirichlet_2d(*TestNewtonKrylov.steep_wavy_case(), grid=(32, 32))
        assert report.converged and report.residual_evaluations > report.iterations + 1
        assert calls == {"_half_nodes": report.residual_evaluations, "Field2D": 1}

    def test_failed_report_carries_residual_history(self):
        # W overflows on the interpolant, so no Newton step is taken
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_dirichlet_2d(0.4, Annulus(0.5, 2.0), 1e300, 0.0, grid=(24, 12))
        report = excinfo.value.report
        assert (report.iterations, report.krylov_iterations) == (0, 0)
        assert report.residual_history == (report.residual,)
        assert report.residual_evaluations == 1

    @staticmethod
    def gmres_steps(monkeypatch) -> list:
        """The GMRES steps of each Newton step of the solves that follow."""
        from cmc_annuli import krylov

        steps, cycle = [], krylov.gmres

        def counted(*args):
            solved = cycle(*args)
            steps.append(None if solved is None else solved[1])
            return solved

        monkeypatch.setattr(krylov, "gmres", counted)
        return steps

    def test_last_newton_step_stops_at_the_tolerance(self, monkeypatch):
        # the 128x128 radial rung of the grid-2d ladder from the linear start:
        # the forcing term asks its last Newton step for a relative residual
        # near 1e-17, which GMRES would chase through the whole cycle without
        # the floor at 0.5 tol / |F|_2
        from cmc_annuli import krylov, pde2d

        monkeypatch.setattr(pde2d, "_radial_start", pde2d._linear_start)
        steps, tol = self.gmres_steps(monkeypatch), 1e-8
        _, report = solve_dirichlet_2d(H, ANN, 0.1, 0.0, grid=(128, 128), tol=tol)
        assert report.start == "linear"
        assert report.iterations == len(steps) == 6
        assert steps[-1] < krylov._RESTART
        assert report.residual <= tol
        # no residual per Jacobian product: the start and one per full step
        assert report.residual_evaluations == report.iterations + 1

    def test_radial_start_on_radial_data(self, monkeypatch):
        # the same rung from the radial start: the start is the residual's own
        # radial solution up to rounding, so it meets the tolerance and the
        # solve takes no Newton step
        steps = self.gmres_steps(monkeypatch)
        _, report = solve_dirichlet_2d(H, ANN, 0.1, 0.0, grid=(128, 128), tol=1e-8)
        assert report.start == "radial"
        assert report.iterations == 0
        assert steps == []
        assert report.residual_evaluations == 1

    def test_wavy_gmres_steps_do_not_grow_with_the_grid(self):
        # grid-2d's wavy data: the theta-averaged Jacobian preconditions the
        # Newton steps alike on every grid, measured 8 GMRES steps in 3
        reports = [solve_dirichlet_2d(H, ANN, 0.1, wavy, grid=(n, n))[1] for n in (32, 64, 128)]
        assert [report.iterations for report in reports] == [3, 3, 3]
        assert len({report.krylov_iterations for report in reports}) == 1

    def test_far_annulus_at_half_converges_from_the_discrete_start(self):
        # h = 1/2 on (10, 11) with data in the middle of the drop interval
        # (-28873, 0.527): from the linear start the solve fails with residual
        # 127. The root of the start's flux lies closer to its end than an ulp
        # of F_0, and its slack from the end resolves it, so the start meets
        # tol on every rho grid and no Newton step is taken
        for grid in ((64, 32), (256, 32)):
            _, report = solve_dirichlet_2d(0.5, Annulus(10.0, 11.0), -1.44e4, 0.0, grid=grid)
            assert report.converged and report.start == "radial"
            assert (report.iterations, report.krylov_iterations) == (0, 0)


def wavy(theta):
    return 0.05 * np.cos(3 * theta)


class TestStart:
    """The radial start and its fallback to the linear-in-rho interpolant."""

    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("u_a, outer", [(0.1, 0.0), (0.1, wavy), (0.4, wavy), (-1.3, 0.0)],
                             ids=["radial", "wavy", "inconclusive", "dipping"])
    def test_answer_does_not_depend_on_the_start(self, n, u_a, outer, monkeypatch):
        # measured at most 1.5e-11
        from cmc_annuli import pde2d

        tol = 1e-8
        radial, report = solve_dirichlet_2d(H, ANN, u_a, outer, grid=(n, n), tol=tol)
        monkeypatch.setattr(pde2d, "_radial_start", pde2d._linear_start)
        linear, linear_report = solve_dirichlet_2d(H, ANN, u_a, outer, grid=(n, n), tol=tol)
        assert (report.start, linear_report.start) == ("radial", "linear")
        assert report.iterations < linear_report.iterations
        assert np.abs(radial.values - linear.values).max() <= tol / 10

    def test_boundary_rows_are_the_data(self):
        from cmc_annuli import pde2d

        grid = PolarGrid(ANN, 16, 16)
        inner, outer = 0.1 + 0.02 * np.sin(grid.theta), wavy(grid.theta)
        u, name = pde2d._radial_start(grid, H, inner, outer)
        linear, _ = pde2d._linear_start(grid, H, inner, outer)
        assert name == "radial"
        assert np.array_equal(u[0], inner) and np.array_equal(u[-1], outer)
        # the correction is the same on every interior row's theta nodes
        correction = u[1:-1] - linear[1:-1]
        assert np.abs(correction).max() > 1e-3
        assert np.allclose(correction, correction[:, :1], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("u_a, u_b", [(1.4, 0.0), (1e300, 0.0), (1.7e308, 1.7e308)])
    def test_infeasible_average_keeps_the_linear_start(self, u_a, u_b, monkeypatch):
        # the averaged drop is outside (d_min, d_max), or (1.7e308) the means
        # of the rows overflow: the solve is the linear start's, report and
        # last iterate alike, and still fails
        from cmc_annuli import pde2d

        ann = Annulus(0.5, 2.0)
        with pytest.raises(NonConvergenceError) as started:
            solve_dirichlet_2d(0.4, ann, u_a, u_b, grid=(24, 12))
        monkeypatch.setattr(pde2d, "_radial_start", pde2d._linear_start)
        with pytest.raises(NonConvergenceError) as linear:
            solve_dirichlet_2d(0.4, ann, u_a, u_b, grid=(24, 12))
        assert started.value.report.start == "linear"
        assert started.value.report == linear.value.report
        assert np.array_equal(started.value.field.values, linear.value.field.values)

    @pytest.mark.parametrize("fallback", ["d_min", "d_max", "evaluation-cap"])
    def test_radial_failure_keeps_the_linear_start(self, fallback, monkeypatch):
        # a drop on an end of extremal_drops' open interval has a discrete
        # radial solution but no continuous one, and the gate keeps the linear
        # start; so does a flux root find stopped by its step cap
        from cmc_annuli import pde2d, radial

        grid = PolarGrid(ANN, 16, 16)
        drops = extremal_drops(H, ANN)
        u_a = {"d_min": drops.d_min, "d_max": drops.d_max}.get(fallback, 0.1)
        inner, outer = np.full(16, u_a), np.zeros(16)
        if fallback == "evaluation-cap":
            assert pde2d._radial_start(grid, H, inner, outer)[1] == "radial"
            monkeypatch.setattr(radial, "_MAXITER", 1)
        else:
            assert pde2d._radial_rows(grid, H, u_a, 0.0) is not None
        u, name = pde2d._radial_start(grid, H, inner, outer)
        assert name == "linear"
        assert np.array_equal(u, pde2d._linear_start(grid, H, inner, outer)[0])

    def test_scaled_slopes_are_finite_at_the_ends_of_the_flux_interval(self):
        # s p_j at s = 0 is its limit, sign / sqrt(2 alpha_j) on the half nodes
        # that reach the end and 0 elsewhere; next to the end it tends there,
        # and numpy warns of nothing on the way
        from cmc_annuli import pde2d

        alpha, delta = np.array([0.5, 0.125, 0.5]), np.array([0.0, 2.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sign in (1.0, -1.0):
                at_end = pde2d._scaled_slopes(alpha, delta, sign, 0.0)
                assert at_end.tolist() == [sign, 0.0, sign]
                for s in (1e-150, 1e-9):
                    near = pde2d._scaled_slopes(alpha, delta, sign, s)
                    assert np.all(np.isfinite(near))
                    np.testing.assert_allclose(near, at_end, rtol=1e-15, atol=1e-8)

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    @pytest.mark.parametrize("data", ["benchmark", 1e-6, 0.999999])
    def test_start_is_the_discrete_radial_solution(self, n, data, monkeypatch):
        # on theta-independent data the start solves the residual up to rounding
        # (measured at most 3.5e-11, at 256^2), Newton leaves it where it is,
        # and the flux root find takes 11-16 evaluations, the middle and the
        # end of the flux interval included
        from cmc_annuli import pde2d

        if data == "benchmark":  # grid-2d's radial data, at one of its shifts
            u_a, u_b = 0.1 - 0.3, -0.3
        else:
            drops = extremal_drops(H, ANN)
            u_a, u_b = drops.d_min + data * (drops.d_max - drops.d_min), 0.0
        evaluations, slopes = [], pde2d._scaled_slopes

        def counted(*args):
            evaluations.append(args[-1])
            return slopes(*args)

        monkeypatch.setattr(pde2d, "_scaled_slopes", counted)
        grid = PolarGrid(ANN, n, n)
        start, name = pde2d._radial_start(grid, H, np.full(n, u_a), np.full(n, u_b))
        assert name == "radial" and len(evaluations) <= 20
        assert np.abs(pde2d._linearize(grid, start, H)[0]).max() <= 1e-10
        tol = 1e-8
        field, report = solve_dirichlet_2d(H, ANN, u_a, u_b, grid=(n, n), tol=tol)
        assert report.converged and report.start == "radial"
        assert np.abs(field.values - start).max() <= tol / 10

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    @pytest.mark.parametrize("data", ["benchmark", 1e-6, 0.999999])
    def test_radial_data_return_the_start(self, n, data, monkeypatch):
        # the start's residual meets tol, so the solve returns the start bit
        # for bit, builds no preconditioner and takes no Newton step
        from cmc_annuli import pde2d

        if data == "benchmark":
            u_a, u_b = 0.1 - 0.3, -0.3
        else:
            drops = extremal_drops(H, ANN)
            u_a, u_b = drops.d_min + data * (drops.d_max - drops.d_min), 0.0
        grid = PolarGrid(ANN, n, n)
        start, _ = pde2d._radial_start(grid, H, np.full(n, u_a), np.full(n, u_b))
        residual = float(np.abs(pde2d._linearize(grid, start, H)[0]).max())
        for patched in ("_preconditioner", "newton_krylov"):
            monkeypatch.setattr(pde2d, patched, TestNewtonKrylov.never)
        field, report = solve_dirichlet_2d(H, ANN, u_a, u_b, grid=(n, n))
        assert np.array_equal(field.values, start)
        assert report.converged and report.start == "radial"
        assert (report.iterations, report.krylov_iterations, report.residual_evaluations) == (0, 0, 1)
        assert report.residual_history == (residual,) and report.residual == residual

    def test_the_residual_decides_not_the_start(self, monkeypatch):
        # wavy data return their radial start too, when tol is above its
        # residual; at the default tol the same data take Newton steps
        from cmc_annuli import pde2d

        n = 32
        grid = PolarGrid(ANN, n, n)
        start, name = pde2d._radial_start(grid, H, np.full(n, 0.1), wavy(grid.theta))
        residual = float(np.abs(pde2d._linearize(grid, start, H)[0]).max())
        assert name == "radial" and residual > 1e-3
        field, report = solve_dirichlet_2d(H, ANN, 0.1, wavy, grid=(n, n))
        assert report.converged and report.iterations >= 1 and report.krylov_iterations >= 1
        for patched in ("_preconditioner", "newton_krylov"):
            monkeypatch.setattr(pde2d, patched, TestNewtonKrylov.never)
        field, report = solve_dirichlet_2d(H, ANN, 0.1, wavy, grid=(n, n), tol=2.0 * residual)
        assert np.array_equal(field.values, start)
        assert report.converged and (report.iterations, report.residual_evaluations) == (0, 1)
        assert report.residual_history == (residual,)


class TestNewtonKrylov:
    """The in-package Newton-GMRES against scipy's ``nonlin_solve`` and ``gmres``."""

    def test_givens_matches_lapack(self):
        lartg = pytest.importorskip("scipy.linalg").get_lapack_funcs("lartg", dtype=np.float64)
        rng = np.random.default_rng(3)
        pairs = rng.standard_normal((20000, 2)) * 10.0 ** rng.uniform(-6, 6, (20000, 2))
        extremes = [(0.0, 0.0), (0.0, -2.0), (3.0, 0.0), (-0.0, 1.0), (1e200, -3e190),
                    (-2e-160, 5e-170), (1e-300, 1e-310), (5e153, 5e153), (1.0, 1e160)]
        for f, g in list(map(tuple, pairs)) + extremes:
            assert givens(f, g) == tuple(lartg(f, g)), (f, g)

    @pytest.mark.parametrize(
        "slope, quadratic, cubic",
        [
            (1.0, 0.99, 0.0),  # full step, decrease 1e-2
            (1.0, 1.0 - 1.2e-4, 0.0),  # full step, decrease 1.2e-4 just above c1
            (1.0, 1.0 - 0.8e-4, 0.0),  # decrease 0.8e-4 just below c1: quadratic step
            (1.0, 0.0, 30.0),  # quadratic step
            (0.1, 1.0, 0.0),  # cubic steps
            (0.01, 1.0, 0.0),  # cubic steps below the smallest step
            (-1.0, 0.0, 0.0),  # ascent: no step
        ],
    )
    def test_armijo_matches_scipy(self, slope, quadratic, cubic):
        search = pytest.importorskip("scipy.optimize._linesearch").scalar_search_armijo
        phi = lambda s: 1.0 - slope * s + quadratic * s**2 + cubic * s**3
        ours, theirs = [], []
        step = _armijo(lambda s: ours.append(s) or phi(s), 1.0)
        expected, _ = search(lambda s: theirs.append(s) or phi(s), 1.0, -1.0, amin=1e-2)
        assert step == expected
        assert ours == theirs

    @pytest.mark.parametrize("rtol", [1e-6, 1e-14])
    def test_gmres_cycle_matches_scipy(self, rtol):
        linalg = pytest.importorskip("scipy.sparse.linalg")
        from cmc_annuli.pde2d import _linearize, _preconditioner

        # the Jacobian of wavy data, preconditioned by its theta average;
        # rtol = 1e-6 takes 10 steps, 1e-14 stops at the cycle's 20
        grid = PolarGrid(ANN, 12, 10)
        mesh_r, mesh_t = np.meshgrid(grid.rho, grid.theta, indexing="ij")
        u = 0.3 * mesh_r + 0.3 * np.cos(2 * mesh_t) * np.sin(3 * mesh_r)
        shape = (grid.n_rho - 2, grid.n_theta)
        _, apply, coefficients = _linearize(grid, u, H)
        psolve = _preconditioner(grid, coefficients)
        b = np.random.default_rng(7).standard_normal(shape).ravel()
        x, steps = gmres(apply, b, psolve, rtol)

        n, counted = b.size, []
        expected, _ = linalg.gmres(
            linalg.LinearOperator((n, n), matvec=apply), b, rtol=rtol, atol=0, restart=20, maxiter=1,
            M=linalg.LinearOperator((n, n), matvec=psolve), callback=counted.append,
            callback_type="pr_norm",
        )
        assert steps == len(counted)
        assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()

    @staticmethod
    def never(*args):
        raise AssertionError("not to be called")

    def test_gmres_of_a_zero_right_hand_side_is_zero(self):
        x, steps = gmres(self.never, np.zeros(5), self.never, 1e-6)
        assert steps == 0 and x.shape == (5,) and not x.any()

    def test_newton_stops_on_a_non_finite_start(self):
        x0 = np.zeros(3)
        x, history, steps = newton_krylov(self.never, x0, np.full(3, np.inf), self.never, self.never, 1e-8, 10)
        assert x is x0 and history == [math.inf] and steps == 0

    def test_newton_stops_on_a_non_finite_jacobian_product(self):
        x0 = np.zeros(3)
        x, history, steps = newton_krylov(self.never, x0, x0 - 1.0, lambda v: None, lambda v: v.copy(), 1e-8, 10)
        assert x is x0 and history == [1.0] and steps == 0

    def test_newton_stops_on_a_non_finite_trial(self):
        # F is finite at the start only, so every step of the line search
        # fails, and the unit step it then takes is not finite
        calls = []

        def linearize(x):
            calls.append(x.copy())
            return (x - 1.0 if len(calls) == 1 else np.full_like(x, np.nan)), lambda v: v.copy()

        x0 = np.zeros(3)
        x, history, steps = newton_krylov(linearize, x0, *linearize(x0), lambda v: v.copy(), 1e-8, 10)
        assert x is x0 and history == [1.0] and steps == 1
        assert len(calls) == 3 and not calls[-1].any()  # the start, the unit step and step 0

    def test_newton_stops_when_the_line_search_accepts_a_zero_step(self):
        # F = x - 1 is finite below 0.5 only, so the unit step from 0 is not
        # finite and Armijo's quadratic step is 0, where F is the start's
        # residual again; that zero step counts as a failed search, whose full
        # step stops the solve, where scipy would repeat x = 0 up to maxiter
        calls = []

        def linearize(x):
            calls.append(x.copy())
            return np.where(x < 0.5, x - 1.0, np.inf), lambda v: v.copy()

        x0 = np.zeros(3)
        x, history, steps = newton_krylov(linearize, x0, *linearize(x0), lambda v: v.copy(), 1e-8, 10)
        assert x is x0 and history == [1.0] and steps == 1
        # the start, the unit step (its GMRES step is 1 - 2^-52) and step 0
        assert len(calls) == 3 and np.all(calls[1] > 0.5) and not calls[0].any() and not calls[2].any()

    @staticmethod
    def scipy_newton_krylov(linearize, x, fx, product, psolve, f_tol, maxiter):
        """``krylov.newton_krylov``'s contract on top of scipy's ``nonlin_solve``.

        scipy's ``newton_krylov`` with the package's exact Jacobian product in
        place of its forward difference: the start's ``product`` at ``setup``,
        linearized again at each accepted iterate by ``update``. scipy
        evaluates F at the start itself; ``fx`` is its first history entry.
        GMRES's relative tolerance is floored at 0.5 f_tol / |F|_2, as the
        package floors it: ``nonlin_solve`` hands the forcing term
        min(eta, eta |F|) to the Jacobian's ``solve``.
        """
        optimize = pytest.importorskip("scipy.optimize")
        nonlin = pytest.importorskip("scipy.optimize._nonlin")
        linalg = pytest.importorskip("scipy.sparse.linalg")

        def F(x):
            return linearize(x)[0]

        def jacobian(x):
            return linearize(x)[1]

        history, last, krylov = [float(np.abs(fx).max())], [x], []

        def record(x, fx):
            last[0] = x
            history.append(float(np.abs(fx).max()))

        class ExactFlooredJacobian(nonlin.KrylovJacobian):
            def setup(self, x, f, func):
                super().setup(x, f, func)
                self.product = product

            def update(self, x, f):
                super().update(x, f)
                self.product = jacobian(x)

            def matvec(self, v):
                jv = self.product(v)
                if jv is None:
                    raise ValueError("Jacobian product returned non-finite results")
                return jv

            def solve(self, rhs, tol=0):
                return super().solve(rhs, min(0.9999, max(tol, 0.5 * f_tol / np.linalg.norm(rhs))))

        inner = ExactFlooredJacobian(
            method="gmres", inner_M=linalg.LinearOperator((x.size,) * 2, matvec=psolve),
            inner_callback=krylov.append, inner_callback_type="pr_norm",
        )
        try:
            nonlin.nonlin_solve(F, x, inner, f_tol=f_tol, maxiter=maxiter, line_search="armijo",
                                callback=record)
        except (optimize.NoConvergence, ValueError):
            pass
        return last[0], history, len(krylov)

    @staticmethod
    def steep_wavy_case():
        # ROADMAP item 8's wavy outer row with u(a) = 0.6, above d_max = 0.421:
        # the solve starts from the linear interpolant, and on 32^2 its line
        # search takes 20 trials for 15 Newton steps
        return H, ANN, 0.6, lambda t: 0.05 * math.cos(3 * t)

    @staticmethod
    def wavy_case():
        box = bounding_box(H, ANN, OuterBoundaryData(0.2, 0.4))
        inner = 0.5 * (box.lower.value(ANN.a) + box.upper.value(ANN.a))
        return H, ANN, inner, lambda t: 0.3 + 0.1 * math.cos(t)

    @pytest.mark.parametrize(
        "case, tol",
        [("radial", 1e-9), ("wavy", 1e-9), ("steep wavy", 1e-9)],
        ids=["radial", "wavy", "steep-wavy-backtracking"],
    )
    def test_solves_match_scipy(self, case, tol, monkeypatch):
        from cmc_annuli import pde2d

        if case == "radial":
            drops = extremal_drops(H, ANN)
            data = (H, ANN, 0.5 * (drops.d_min + drops.d_max), 0.0)
        else:
            data = self.wavy_case() if case == "wavy" else self.steep_wavy_case()
        field, report = solve_dirichlet_2d(*data, grid=(32, 32), tol=tol)
        monkeypatch.setattr(pde2d, "newton_krylov", self.scipy_newton_krylov)
        expected_field, expected = solve_dirichlet_2d(*data, grid=(32, 32), tol=tol)
        assert (report.iterations, report.krylov_iterations) == (expected.iterations, expected.krylov_iterations)
        assert np.abs(field.values - expected_field.values).max() <= 1e-9

    def test_start_within_tol_takes_one_step_as_scipy(self):
        # the 2D solve returns a start within tol without calling Newton;
        # called on one, Newton takes one step, as scipy's nonlin_solve does.
        # The start is the discrete radial solution of mid-interval radial data
        from cmc_annuli import pde2d

        grid, f_tol = PolarGrid(ANN, 32, 32), 1e-9
        drops = extremal_drops(H, ANN)
        inner, outer = np.full(32, 0.5 * (drops.d_min + drops.d_max)), np.zeros(32)
        u, name = pde2d._radial_start(grid, H, inner, outer)
        shape = (grid.n_rho - 2, grid.n_theta)

        def linearize(x):
            residual, product, _ = pde2d._linearize(grid, np.concatenate((u[:1], x.reshape(shape), u[-1:])), H)
            return residual.ravel(), product

        residual, product, weights = pde2d._linearize(grid, u, H)
        x0, fx = u[1:-1, :].ravel(), residual.ravel()
        assert name == "radial" and 0.0 < np.abs(fx).max() <= f_tol
        psolve = pde2d._preconditioner(grid, weights)
        x, history, krylov_steps = newton_krylov(linearize, x0, fx, product, psolve, f_tol, 50)
        # within f_tol, scipy's first convergence check reads its infinite
        # initial step over an infinite x_rtol, inf / inf, which keeps it stepping
        with np.errstate(invalid="ignore"):
            expected_x, expected_history, expected_steps = self.scipy_newton_krylov(
                linearize, x0, fx, product, psolve, f_tol, 50
            )
        assert len(history) == len(expected_history) == 2
        assert krylov_steps == expected_steps >= 1
        assert np.abs(x - expected_x).max() <= 1e-12
