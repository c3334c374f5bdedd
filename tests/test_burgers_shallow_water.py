"""Tests for the Burgers and shallow-water schemes."""

import numpy as np
import pytest

from repro.solvers import BurgersScheme, ShallowWaterScheme


def periodic_fill(u, g):
    u[:, :g] = u[:, -2 * g : -g]
    u[:, -g:] = u[:, g : 2 * g]


def outflow_fill(u, g):
    u[:, :g] = u[:, g : g + 1]
    u[:, -g:] = u[:, -g - 1 : -g]


def run_1d(scheme, u, dx, t_end, fill, g=2):
    t = 0.0
    while t < t_end - 1e-14:
        fill(u, g)
        dt = min(scheme.stable_dt(u, (dx,), 1), t_end - t)
        scheme.step_midpoint(u, (dx,), dt, g, lambda a: fill(a, g))
        t += dt
    return u


class TestBurgers:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurgersScheme(())

    def test_constant_is_fixed_point(self):
        sch = BurgersScheme((1.0,))
        u = np.full((1, 20), 2.0)
        sch.step(u, (0.1,), 0.01, 2)
        np.testing.assert_allclose(u, 2.0, rtol=1e-14)

    def test_characteristic_speed_is_solution_value(self):
        sch = BurgersScheme((1.0,))
        w = np.array([[3.0, -2.0]])
        np.testing.assert_allclose(sch.normal_velocity(w, 0), [3.0, -2.0])

    def test_smooth_solution_via_characteristics(self):
        # Pre-shock: q(x,t) solves q = q0(x - q t) exactly.
        n, g = 256, 2
        sch = BurgersScheme((1.0,), order=2, limiter="mc", cfl=0.3)
        x = (np.arange(n) + 0.5) / n
        q0 = lambda s: 0.2 + 0.1 * np.sin(2 * np.pi * s)
        u = np.zeros((1, n + 2 * g))
        u[0, g:-g] = q0(x)
        t_end = 0.3  # shock time ~ 1/(0.2*pi) ~ 1.6, well before
        run_1d(sch, u, 1.0 / n, t_end, periodic_fill)
        # Invert the characteristic map numerically.
        exact = np.empty(n)
        for i, xi in enumerate(x):
            q = 0.2
            for _ in range(80):
                q = q0((xi - q * t_end) % 1.0)
            exact[i] = q
        assert np.abs(u[0, g:-g] - exact).max() < 2e-3

    def test_shock_forms_and_is_stable(self):
        n, g = 128, 2
        sch = BurgersScheme((1.0,), order=2)
        x = (np.arange(n) + 0.5) / n
        u = np.zeros((1, n + 2 * g))
        u[0, g:-g] = 0.5 + 0.5 * np.sin(2 * np.pi * x)
        run_1d(sch, u, 1.0 / n, 1.5, periodic_fill)  # well past shock time
        q = u[0, g:-g]
        assert np.all(np.isfinite(q))
        # TVD: no overshoot beyond the initial range.
        assert q.max() <= 1.0 + 1e-8 and q.min() >= 0.0 - 1e-8
        # A genuine shock: some cell-to-cell jump is large.
        assert np.abs(np.diff(q)).max() > 0.2

    def test_conservation(self):
        n, g = 64, 2
        sch = BurgersScheme((1.0,), order=2)
        x = (np.arange(n) + 0.5) / n
        u = np.zeros((1, n + 2 * g))
        u[0, g:-g] = 1.0 + 0.3 * np.cos(2 * np.pi * x)
        total0 = u[0, g:-g].sum()
        run_1d(sch, u, 1.0 / n, 0.5, periodic_fill)
        assert u[0, g:-g].sum() == pytest.approx(total0, rel=1e-12)

    def test_rankine_hugoniot_shock_speed(self):
        # Step q_l=1, q_r=0: shock speed = (f_l-f_r)/(q_l-q_r) = 1/2.
        n, g = 400, 2
        sch = BurgersScheme((1.0,), order=2, limiter="minmod")
        x = (np.arange(n) + 0.5) / n
        u = np.zeros((1, n + 2 * g))
        u[0, g:-g] = np.where(x < 0.25, 1.0, 0.0)
        t_end = 0.5
        run_1d(sch, u, 1.0 / n, t_end, outflow_fill)
        q = u[0, g:-g]
        front = x[np.argmin(np.abs(q - 0.5))]
        assert front == pytest.approx(0.25 + 0.5 * t_end, abs=0.02)


class TestShallowWater:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShallowWaterScheme(3)
        with pytest.raises(ValueError):
            ShallowWaterScheme(1, gravity=0.0)

    def test_prim_cons_roundtrip(self):
        sch = ShallowWaterScheme(2)
        rng = np.random.default_rng(0)
        w = np.empty((3, 8))
        w[0] = rng.random(8) + 0.5
        w[1:] = rng.standard_normal((2, 8))
        np.testing.assert_allclose(
            sch.cons_to_prim(sch.prim_to_cons(w)), w, rtol=1e-12
        )

    def test_lake_at_rest_is_fixed_point(self):
        sch = ShallowWaterScheme(2, gravity=9.81)
        w = np.zeros((3, 12, 12))
        w[0] = 2.0
        u = sch.prim_to_cons(w)
        sch.step(u, (0.1, 0.1), 0.001, 2)
        np.testing.assert_allclose(u[0], 2.0, rtol=1e-13)
        np.testing.assert_allclose(u[1:], 0.0, atol=1e-13)

    def test_gravity_wave_speed(self):
        sch = ShallowWaterScheme(1, gravity=9.81)
        w = np.array([[4.0], [0.0]])
        assert sch.char_speed(w, 0)[0] == pytest.approx(np.sqrt(9.81 * 4.0))

    def test_dam_break_structure(self):
        # Stoker's dam-break: h_l=1, h_r=0.2, g=1.  Solving the left-
        # rarefaction + right-shock jump conditions gives h* = 0.5078.
        n, g = 400, 2
        sch = ShallowWaterScheme(1, gravity=1.0, order=2, limiter="mc",
                                 riemann="hll")
        x = (np.arange(n) + 0.5) / n
        w = np.zeros((2, n))
        w[0] = np.where(x < 0.5, 1.0, 0.2)
        u = np.zeros((2, n + 2 * g))
        u[:, g:-g] = sch.prim_to_cons(w)
        run_1d(sch, u, 1.0 / n, 0.15, outflow_fill)
        we = sch.cons_to_prim(u[:, g:-g])
        assert np.all(np.isfinite(we))
        assert we[0].min() > 0
        mid = (x > 0.55) & (x < 0.62)
        assert abs(we[0][mid].mean() - 0.5078) < 0.01

    def test_mass_conserved(self):
        n, g = 64, 2
        sch = ShallowWaterScheme(1, gravity=1.0, order=2)
        x = (np.arange(n) + 0.5) / n
        w = np.zeros((2, n))
        w[0] = 1.0 + 0.2 * np.sin(2 * np.pi * x)
        u = np.zeros((2, n + 2 * g))
        u[:, g:-g] = sch.prim_to_cons(w)
        total0 = u[0, g:-g].sum()
        run_1d(sch, u, 1.0 / n, 0.3, periodic_fill)
        assert u[0, g:-g].sum() == pytest.approx(total0, rel=1e-12)

    def test_2d_radial_wave_symmetry(self):
        n, g = 32, 2
        sch = ShallowWaterScheme(2, gravity=1.0, order=2, cfl=0.3)
        x = (np.arange(n) + 0.5) / n - 0.5
        X, Y = np.meshgrid(x, x, indexing="ij")
        w = np.zeros((3, n, n))
        w[0] = 1.0 + 0.5 * np.exp(-100 * (X**2 + Y**2))
        u = np.zeros((3, n + 2 * g, n + 2 * g))
        u[:, g:-g, g:-g] = sch.prim_to_cons(w)

        def fill2(a):
            a[:, :g, :] = a[:, g : g + 1, :]
            a[:, -g:, :] = a[:, -g - 1 : -g, :]
            a[:, :, :g] = a[:, :, g : g + 1]
            a[:, :, -g:] = a[:, :, -g - 1 : -g]

        t = 0.0
        while t < 0.1:
            dt = min(sch.stable_dt(u, (1 / n, 1 / n), 2), 0.1 - t)
            sch.step_midpoint(u, (1 / n, 1 / n), dt, g, fill2)
            t += dt
        h = sch.cons_to_prim(u[:, g:-g, g:-g])[0]
        # 4-fold symmetry of the expanding ring.
        np.testing.assert_allclose(h, h[::-1, :], rtol=1e-10)
        np.testing.assert_allclose(h, h[:, ::-1], rtol=1e-10)
        np.testing.assert_allclose(h, h.T, rtol=1e-10)

    def test_order1_midpoint_applies_depth_floor(self):
        """Regression: the order-1 branch of ``step_midpoint`` skipped
        ``apply_floors``, so the depth sank below an active floor."""
        n, g, floor = 64, 1, 1.6
        sch = ShallowWaterScheme(1, gravity=1.0, order=1, h_floor=floor)
        x = (np.arange(n) + 0.5) / n
        w = np.zeros((2, n))
        w[0] = 1.5 + 0.4 * np.sin(2 * np.pi * x)
        w[1] = 0.2
        u = np.zeros((2, n + 2 * g))
        u[:, g:-g] = sch.prim_to_cons(w)
        run_1d(sch, u, 1.0 / n, 0.05, periodic_fill, g=g)
        assert u[0, g:-g].min() >= floor
