"""Tests for the finite-volume schemes (advection, Euler, MHD).

Verification problems with known answers:

* advection — exact translation of smooth and discontinuous profiles;
* Euler — Sod shock tube (standard intermediate states), isentropic
  consistency, exact preservation of uniform flow;
* MHD — Brio–Wu shock tube stability/positivity, reduction to Euler for
  zero field, Powell source behaviour.
"""

import numpy as np
import pytest

from repro.solvers import (
    AdvectionScheme,
    EulerScheme,
    MHDScheme,
    advection_flops_per_cell,
    euler_flops_per_cell,
    mhd_flops_per_cell,
    get_riemann,
    rusanov,
)
from repro.util.geometry import Box


def periodic_fill_1d(u, g):
    u[:, :g] = u[:, -2 * g : -g]
    u[:, -g:] = u[:, g : 2 * g]


def outflow_fill_1d(u, g):
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


class TestAdvection:
    def test_bad_velocity(self):
        with pytest.raises(ValueError):
            AdvectionScheme(())

    def test_constant_state_is_fixed_point(self):
        sch = AdvectionScheme((1.0, -2.0))
        u = np.full((1, 12, 12), 3.0)
        sch.step(u, (0.1, 0.1), 0.01, 2)
        np.testing.assert_allclose(u, 3.0, rtol=1e-14)

    def test_translation_periodic(self):
        n, g = 128, 2
        sch = AdvectionScheme((1.0,), order=2, limiter="mc")
        x = (np.arange(n) + 0.5) / n
        u = np.zeros((1, n + 2 * g))
        u[0, g:-g] = np.sin(2 * np.pi * x)
        run_1d(sch, u, 1.0 / n, 1.0, periodic_fill_1d)
        err = np.abs(u[0, g:-g] - np.sin(2 * np.pi * x)).max()
        assert err < 0.01

    def test_second_order_convergence(self):
        errs = []
        for n in (32, 64, 128):
            g = 2
            sch = AdvectionScheme((1.0,), order=2, limiter="mc", cfl=0.2)
            x = (np.arange(n) + 0.5) / n
            u = np.zeros((1, n + 2 * g))
            u[0, g:-g] = np.sin(2 * np.pi * x)
            run_1d(sch, u, 1.0 / n, 0.5, periodic_fill_1d)
            exact = np.sin(2 * np.pi * (x - 0.5))
            errs.append(np.abs(u[0, g:-g] - exact).mean())
        rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert rate[0] > 1.5 and rate[1] > 1.5

    def test_first_order_more_diffusive(self):
        n, g = 64, 2
        results = []
        for order in (1, 2):
            sch = AdvectionScheme((1.0,), order=order)
            x = (np.arange(n) + 0.5) / n
            u = np.zeros((1, n + 2 * g))
            u[0, g:-g] = np.where(np.abs(x - 0.5) < 0.1, 1.0, 0.0)
            run_1d(sch, u, 1.0 / n, 0.3, periodic_fill_1d)
            results.append(u[0, g:-g].max())
        assert results[0] < results[1]  # order 1 smears the top harder

    def test_tvd_no_new_extrema(self):
        n, g = 64, 2
        sch = AdvectionScheme((1.0,), order=2, limiter="minmod")
        x = (np.arange(n) + 0.5) / n
        u = np.zeros((1, n + 2 * g))
        u[0, g:-g] = np.where(np.abs(x - 0.3) < 0.1, 1.0, 0.0)
        run_1d(sch, u, 1.0 / n, 0.4, periodic_fill_1d)
        assert u.max() <= 1.0 + 1e-10
        assert u.min() >= -1e-10

    def test_2d_diagonal_translation(self):
        n, g = 32, 2
        sch = AdvectionScheme((1.0, 1.0), order=2, cfl=0.3)
        x = (np.arange(n) + 0.5) / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        u = np.zeros((1, n + 2 * g, n + 2 * g))
        u[0, g:-g, g:-g] = np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
        def fill2d(a):
            a[:, :g, :] = a[:, -2 * g : -g, :]
            a[:, -g:, :] = a[:, g : 2 * g, :]
            a[:, :, :g] = a[:, :, -2 * g : -g]
            a[:, :, -g:] = a[:, :, g : 2 * g]

        t = 0.0
        while t < 1.0 - 1e-14:
            dt = min(sch.stable_dt(u, (1 / n, 1 / n), 2), 1.0 - t)
            sch.step_midpoint(u, (1 / n, 1 / n), dt, g, fill2d)
            t += dt
        exact = np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
        assert np.abs(u[0, g:-g, g:-g] - exact).max() < 0.2


class TestEuler:
    def test_bad_ndim(self):
        with pytest.raises(ValueError):
            EulerScheme(4)

    def test_uniform_flow_is_fixed_point(self):
        sch = EulerScheme(2, order=2)
        w = np.empty((4, 12, 12))
        w[0], w[1], w[2], w[3] = 1.0, 2.0, -1.0, 3.0
        u = sch.prim_to_cons(w)
        before = u.copy()
        sch.step(u, (0.1, 0.1), 0.005, 2)
        np.testing.assert_allclose(u, before, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("riemann", ["rusanov", "hll"])
    def test_sod_shock_tube(self, riemann):
        n, g = 400, 2
        sch = EulerScheme(1, gamma=1.4, order=2, riemann=riemann, limiter="mc")
        x = (np.arange(n) + 0.5) / n
        w = np.stack(
            [
                np.where(x < 0.5, 1.0, 0.125),
                np.zeros(n),
                np.where(x < 0.5, 1.0, 0.1),
            ]
        )
        u = np.zeros((3, n + 2 * g))
        u[:, g:-g] = sch.prim_to_cons(w)
        run_1d(sch, u, 1.0 / n, 0.2, outflow_fill_1d)
        wend = sch.cons_to_prim(u[:, g:-g])
        # Exact Sod solution at t=0.2 (gamma=1.4): rarefaction spans
        # [0.263, 0.486], contact at x=0.685, shock at x=0.850;
        # star-state left rho = 0.4263, right rho = 0.2656, p* = 0.3031.
        star_left = (x > 0.52) & (x < 0.66)
        assert np.abs(wend[0][star_left].mean() - 0.4263) < 0.02
        star_right = (x > 0.71) & (x < 0.83)
        assert np.abs(wend[0][star_right].mean() - 0.2656) < 0.02
        star_all = (x > 0.52) & (x < 0.83)
        assert np.abs(wend[2][star_all].mean() - 0.3031) < 0.02
        assert wend[0].min() > 0 and wend[2].min() > 0

    def test_mass_conserved_periodic(self):
        n, g = 64, 2
        sch = EulerScheme(1, order=2)
        x = (np.arange(n) + 0.5) / n
        w = np.stack([1.0 + 0.2 * np.sin(2 * np.pi * x), 0.5 * np.ones(n), np.ones(n)])
        u = np.zeros((3, n + 2 * g))
        u[:, g:-g] = sch.prim_to_cons(w)
        mass0 = u[0, g:-g].sum()
        run_1d(sch, u, 1.0 / n, 0.3, periodic_fill_1d)
        assert u[0, g:-g].sum() == pytest.approx(mass0, rel=1e-12)

    def test_positivity_strong_rarefaction(self):
        # Double rarefaction (123 problem): hard positivity test.
        n, g = 200, 2
        sch = EulerScheme(1, gamma=1.4, order=2, riemann="hll", cfl=0.3)
        x = (np.arange(n) + 0.5) / n
        w = np.stack(
            [np.ones(n), np.where(x < 0.5, -2.0, 2.0), 0.4 * np.ones(n)]
        )
        u = np.zeros((3, n + 2 * g))
        u[:, g:-g] = sch.prim_to_cons(w)
        run_1d(sch, u, 1.0 / n, 0.1, outflow_fill_1d)
        wend = sch.cons_to_prim(u[:, g:-g])
        assert np.all(np.isfinite(wend))
        assert wend[0].min() > 0


class TestMHD:
    def test_uniform_magnetized_flow_is_fixed_point(self):
        sch = MHDScheme(2, order=2)
        w = np.zeros((8, 12, 12))
        w[0], w[4] = 1.0, 1.0
        w[1], w[2], w[3] = 0.5, -0.25, 0.1
        w[5], w[6], w[7] = 1.0, 2.0, -0.5
        u = sch.prim_to_cons(w)
        before = u.copy()
        sch.step(u, (0.1, 0.1), 0.002, 2)
        np.testing.assert_allclose(u, before, rtol=1e-11, atol=1e-12)

    def test_reduces_to_euler_without_field(self):
        n, g = 100, 2
        mhd = MHDScheme(1, gamma=1.4, order=2, limiter="mc")
        eul = EulerScheme(1, gamma=1.4, order=2, limiter="mc")
        x = (np.arange(n) + 0.5) / n
        rho = np.where(x < 0.5, 1.0, 0.125)
        p = np.where(x < 0.5, 1.0, 0.1)
        wm = np.zeros((8, n))
        wm[0], wm[4] = rho, p
        we = np.stack([rho, np.zeros(n), p])
        um = np.zeros((8, n + 2 * g))
        ue = np.zeros((3, n + 2 * g))
        um[:, g:-g] = mhd.prim_to_cons(wm)
        ue[:, g:-g] = eul.prim_to_cons(we)
        run_1d(mhd, um, 1.0 / n, 0.1, outflow_fill_1d)
        run_1d(eul, ue, 1.0 / n, 0.1, outflow_fill_1d)
        np.testing.assert_allclose(
            um[0, g:-g], ue[0, g:-g], rtol=1e-8, atol=1e-10
        )

    def test_brio_wu_stable_and_positive(self):
        n, g = 256, 2
        sch = MHDScheme(1, gamma=2.0, order=2)
        x = (np.arange(n) + 0.5) / n
        w = np.zeros((8, n))
        w[0] = np.where(x < 0.5, 1.0, 0.125)
        w[4] = np.where(x < 0.5, 1.0, 0.1)
        w[5] = 0.75
        w[6] = np.where(x < 0.5, 1.0, -1.0)
        u = np.zeros((8, n + 2 * g))
        u[:, g:-g] = sch.prim_to_cons(w)
        run_1d(sch, u, 1.0 / n, 0.1, outflow_fill_1d)
        wend = sch.cons_to_prim(u[:, g:-g])
        assert np.all(np.isfinite(wend))
        assert wend[0].min() > 0 and wend[4].min() > 0
        # The compound-wave region develops intermediate densities;
        # tiny overshoots at the left fast rarefaction are acceptable.
        assert wend[0].max() <= 1.01
        assert 0.1 < wend[0][(x > 0.4) & (x < 0.6)].mean() < 1.0

    def test_powell_source_zero_for_divergence_free_field(self):
        sch = MHDScheme(2, order=2)
        w = np.zeros((8, 10, 10))
        w[0], w[4] = 1.0, 1.0
        w[1] = 0.3
        w[5], w[6] = 1.5, -2.0  # uniform field: div B = 0
        u = sch.prim_to_cons(w)
        src = sch.source(u[:, 2:-2, 2:-2], w, (0.1, 0.1), 2)
        np.testing.assert_allclose(src, 0.0, atol=1e-14)

    def test_powell_source_nonzero_for_divergent_field(self):
        sch = MHDScheme(2, order=2)
        w = np.zeros((8, 10, 10))
        w[0], w[4] = 1.0, 1.0
        w[1] = 1.0  # ux
        x = np.arange(10) * 0.1
        w[5] = x[:, None] * np.ones(10)  # Bx = x, div B = 1
        u = sch.prim_to_cons(w)
        src = sch.source(u[:, 2:-2, 2:-2], w, (0.1, 0.1), 2)
        # Induction source: -divB * u = -1 * 1 on Bx.
        np.testing.assert_allclose(src[5], -1.0, rtol=1e-12)

    def test_powell_disabled(self):
        sch = MHDScheme(2, powell_source=False)
        w = np.ones((8, 8, 8))
        u = sch.prim_to_cons(w)
        assert sch.source(u[:, 2:-2, 2:-2], w, (0.1, 0.1), 2) is None

    def test_div_b_diagnostic(self):
        sch = MHDScheme(2)
        u = np.zeros((8, 8, 8))
        u[5] = 5.0
        np.testing.assert_allclose(
            sch.div_b_interior(u, (0.1, 0.1), 2), 0.0
        )


def _noisy_block(scheme, shape=(16, 16), seed=0):
    """Conserved 2-D block with seeded noise in every primitive."""
    rng = np.random.default_rng(seed)
    w = np.zeros((scheme.nvar,) + shape)
    w[0] = 1.0 + 0.1 * rng.random(shape)
    w[1:3] = 0.1 * rng.standard_normal((2,) + shape)
    p = scheme.nvar - 1 if scheme.nvar == 4 else 4
    w[p] = 1.0 + 0.1 * rng.random(shape)
    if scheme.nvar == 8:
        w[5:8] = 0.2 + 0.05 * rng.standard_normal((3,) + shape)
    return scheme.prim_to_cons(w)


FLOORED = {
    "euler": lambda **kw: EulerScheme(2, **kw),
    "mhd": lambda **kw: MHDScheme(2, **kw),
}


class TestFloors:
    @pytest.mark.parametrize("physics", sorted(FLOORED))
    def test_inactive_floors_leave_every_bit(self, physics):
        """Regression: ``apply_floors`` rewrote every cell through a
        cons -> prim -> cons round trip, changing low bits of cells no
        floor touched."""
        scheme = FLOORED[physics](rho_floor=1e-9, p_floor=1e-9)
        u = _noisy_block(scheme)
        before = u.copy()
        scheme.apply_floors(u)
        np.testing.assert_array_equal(u, before)

    @pytest.mark.parametrize("physics", sorted(FLOORED))
    def test_only_clipped_cells_change(self, physics):
        scheme = FLOORED[physics](rho_floor=1.05)
        u = _noisy_block(scheme)
        before = u.copy()
        low = u[0] < 1.05
        assert low.any() and not low.all()
        scheme.apply_floors(u)
        np.testing.assert_array_equal(u[:, ~low], before[:, ~low])
        w = scheme.cons_to_prim(u)
        np.testing.assert_array_equal(w[0][low], 1.05)

    @pytest.mark.parametrize("physics", sorted(FLOORED))
    def test_inactive_floors_run_equals_no_floors_bitwise(self, physics):
        from repro.amr import Simulation
        from repro.core import BlockForest

        states = []
        for floors in ({}, {"rho_floor": 1e-6, "p_floor": 1e-6}):
            scheme = FLOORED[physics](order=2, **floors)
            forest = BlockForest(
                Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8),
                nvar=scheme.nvar, n_ghost=2, periodic=(True, True),
            )
            for i, b in enumerate(forest):
                b.interior[...] = _noisy_block(scheme, (8, 8), seed=i)
            sim = Simulation(forest, scheme)
            for _ in range(3):
                sim.advance(1e-3)
            states.append({b.id: b.interior.copy() for b in forest})
        plain, floored = states
        for bid in plain:
            np.testing.assert_array_equal(floored[bid], plain[bid])


class TestSchemeValidation:
    def test_bad_order(self):
        with pytest.raises(ValueError):
            AdvectionScheme((1.0,), order=3)

    def test_bad_cfl(self):
        with pytest.raises(ValueError):
            AdvectionScheme((1.0,), cfl=0.0)

    def test_required_ghost(self):
        assert AdvectionScheme((1.0,), order=1).required_ghost == 1
        assert AdvectionScheme((1.0,), order=2).required_ghost == 2

    def test_unknown_riemann(self):
        with pytest.raises(ValueError, match="unknown Riemann"):
            AdvectionScheme((1.0,), riemann="roe")

    def test_stable_dt_positive_and_scales(self):
        sch = EulerScheme(1)
        w = np.stack([np.ones(10), np.zeros(10), np.ones(10)])
        u = sch.prim_to_cons(w)
        dt1 = sch.stable_dt(u, (0.1,), 1)
        dt2 = sch.stable_dt(u, (0.05,), 1)
        assert dt2 == pytest.approx(dt1 / 2)

    def test_stable_dt_infinite_for_static_advection(self):
        sch = AdvectionScheme((0.0,))
        u = np.ones((1, 10))
        assert sch.stable_dt(u, (0.1,), 1) == np.inf


class TestFlopCounts:
    def test_mhd_heavier_than_euler(self):
        assert (
            mhd_flops_per_cell(3, 2).per_cell_per_step
            > euler_flops_per_cell(3, 2).per_cell_per_step
            > advection_flops_per_cell(3, 2).per_cell_per_step
        )

    def test_order2_doubles_stages(self):
        f1 = mhd_flops_per_cell(3, 1)
        f2 = mhd_flops_per_cell(3, 2)
        assert f2.stages == 2 and f1.stages == 1
        assert f2.per_cell_per_step > f1.per_cell_per_step

    def test_mhd_3d_order2_in_plausible_range(self):
        # The paper-era 3-D MHD codes ran ~1-3 kFLOPs per cell per step.
        n = mhd_flops_per_cell(3, 2).per_cell_per_step
        assert 500 < n < 5000
