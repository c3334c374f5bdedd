"""The benchmark's workloads: seeded inputs, one episode at a time.

Every workload is built here from the seed alone, through the library's
public constructors (``SimulationConfig``/``BlockForest``, the schemes,
``Simulation``).  Nothing comes from ``repro.analysis.engine_bench`` or
``benchmarks/``, so editing those cannot silently change what this
benchmark measures.

A run repeats *episodes*: a fresh set-up followed by a fixed number of
steps from the same initial state.  Fixing the step count keeps the work
of an episode independent of how fast the program is (the blast grows
its mesh as it runs, so "as many steps as fit" would tie cost to speed),
and it makes every episode's final state comparable bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.amr.boundary import OutflowBC
from repro.amr.config import SimulationConfig
from repro.amr.driver import Simulation
from repro.core.block_id import BlockID
from repro.core.refine_criteria import MonitorCriterion, compute_flags
from repro.solvers.advection import AdvectionScheme
from repro.solvers.mhd import MHDScheme
from repro.util.geometry import Box

#: The one place the execution engine and kernel backend are chosen.
ENGINE = "batched"
KERNEL_BACKEND = "numpy"

#: Seed used when none is given, and a second seed kept out of tuning
#: for confirming a claimed gain.
DEFAULT_SEED = 1
HELD_OUT_SEED = 97


def state_digest(arrays: Dict[BlockID, np.ndarray]) -> str:
    """SHA-256 over every block's interior, in block-id order."""
    h = hashlib.sha256()
    for bid in sorted(arrays):
        h.update(repr(bid).encode())
        h.update(np.ascontiguousarray(arrays[bid]).tobytes())
    return h.hexdigest()[:16]


def _totals(sim: Simulation) -> Tuple[np.ndarray, np.ndarray]:
    """Volume-weighted total and L1 norm of every conserved variable."""
    nvar = sim.forest.nvar
    tot = np.zeros(nvar)
    l1 = np.zeros(nvar)
    for block in sim.forest:
        vol = math.prod(block.dx)
        u = block.interior.reshape(nvar, -1)
        tot += u.sum(axis=1) * vol
        l1 += np.abs(u).sum(axis=1) * vol
    return tot, l1


class Episode:
    """One fresh instance of a workload: set up, step, check, tear down.

    ``setup`` is timed as set-up; each ``step`` is timed from outside;
    ``check``, ``digest`` and ``counts`` run outside the timed region.
    """

    #: steps per episode (coarse steps under subcycling)
    steps: int
    #: untraced episodes every run takes and pools for the step-time
    #: tail.  The steps of an episode are a fixed mix (regrid steps cost
    #: up to twice the others), so the highest percentile with ten
    #: samples beyond it would land on a different kind of step as the
    #: number of episodes changed; a fixed count keeps it on the same.
    tail_episodes: int
    #: cells per block (every workload uses one block shape)
    cells_per_block: int
    sim: Simulation

    def setup(self) -> None:
        raise NotImplementedError

    def check(self) -> List[str]:
        """Problems found in the final output (empty when correct)."""
        raise NotImplementedError

    def _warm(self) -> None:
        # Fill the caches the first step would otherwise fill: the
        # batched CFL pass compacts the arena, and the first exchange
        # compiles the ghost plan for that layout.  Neither changes the
        # interior state.
        self.sim.stable_dt()
        self.sim.fill_ghosts()

    def step(self) -> Tuple[float, int]:
        """Advance one step; return (simulated time advanced, block
        updates), block updates counting each block once per substep."""
        sim = self.sim
        t0 = sim.time
        sim.step()
        return sim.time - t0, sim.updates_per_step()

    def digest(self) -> str:
        return state_digest(
            {bid: b.interior for bid, b in self.sim.forest.blocks.items()}
        )

    def counts(self) -> Dict[str, int]:
        """Counts the program reports itself, without any tracing."""
        return {
            "steps": self.sim.step_count,
            "blocks": self.sim.forest.n_blocks,
            "compactions": self.sim.forest.arena.n_compactions,
        }

    def close(self) -> None:
        sim = self.__dict__.pop("sim", None)
        if sim is not None:
            sim.close()


# ----------------------------------------------------------------------
# fig5_mhd3d: the paper's Fig-5 case
# ----------------------------------------------------------------------


class Fig5MHD3D(Episode):
    """3-D uniform periodic ideal MHD, 64 blocks of 8^3, order 2."""

    steps = 10
    tail_episodes = 10
    #: conserved totals must hold to this share of their L1 norm
    CONSERVATION_RTOL = 1e-12

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        cfg = SimulationConfig(
            domain=Box((0.0,) * 3, (1.0,) * 3),
            n_root=(4, 4, 4),
            m=(8, 8, 8),
            periodic=(True,) * 3,
            max_level=0,
        )
        forest = cfg.make_forest(8)
        scheme = MHDScheme(3, order=2)
        rng = np.random.default_rng(self.seed)
        for block in forest:
            w = np.empty((8,) + block.m)
            w[0] = 1.0 + 0.1 * rng.random(block.m)
            w[1:4] = 0.1
            w[4] = 1.0
            w[5:8] = 0.2
            block.interior[...] = scheme.prim_to_cons(w)
        self.sim = Simulation(
            forest, scheme, engine=ENGINE, kernel_backend=KERNEL_BACKEND
        )
        self.cells_per_block = 8**3
        self.tot0, self.l1_0 = _totals(self.sim)
        self._warm()

    def check(self) -> List[str]:
        problems = []
        tot, _ = _totals(self.sim)
        for var in range(len(tot)):
            drift = abs(tot[var] - self.tot0[var])
            if not drift <= self.CONSERVATION_RTOL * self.l1_0[var]:
                problems.append(
                    f"conserved total {var} drifted by {drift:.3e} "
                    f"(L1 {self.l1_0[var]:.3e})"
                )
        for block in self.sim.forest:
            if not np.all(np.isfinite(block.interior)):
                problems.append(f"non-finite state in {block.id}")
                break
        return problems


# ----------------------------------------------------------------------
# deep_pulse_sub: subcycled advection on a deep static hierarchy
# ----------------------------------------------------------------------

_PULSE_V = (1.0, 0.5)


def _gaussian(center, sigma, t):
    """Exact advected Gaussian on the periodic unit square at time t."""

    def profile(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        dx = ((x - center[0] - _PULSE_V[0] * t + 0.5) % 1.0) - 0.5
        dy = ((y - center[1] - _PULSE_V[1] * t + 0.5) % 1.0) - 0.5
        return np.exp(-(dx * dx + dy * dy) / (2.0 * sigma**2))

    return profile


class DeepPulseSub(Episode):
    """2-D advected Gaussian on a static 4-level hierarchy (levels 0-3
    piled on one corner root), subcycled, reflux on."""

    steps = 4
    tail_episodes = 10
    #: L1 error bound against the exact advected Gaussian after
    #: ``steps`` coarse steps; measured errors are 1.5e-4 to 1.9e-4.
    L1_BOUND = 2.5e-4
    #: relative mass drift bound: per-substep reflux accumulation keeps
    #: subcycled coarse-fine faces conservative to round-off
    MASS_RTOL = 1e-13

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.center = (0.1 + 0.01 * rng.uniform(-1, 1),
                       0.1 + 0.01 * rng.uniform(-1, 1))
        self.sigma = 0.05 * (1.0 + 0.05 * rng.uniform(-1, 1))

    def setup(self) -> None:
        cfg = SimulationConfig(
            domain=Box((0.0, 0.0), (1.0, 1.0)),
            n_root=(4, 4),
            m=(8, 8),
            periodic=(True, True),
            max_level=3,
        )
        forest = cfg.make_forest(1)
        for lvl in range(3):
            forest.adapt([BlockID(lvl, (0, 0))])
        profile = _gaussian(self.center, self.sigma, 0.0)
        for block in forest:
            block.interior[0] = profile(*block.meshgrid())
        self.sim = Simulation(
            forest,
            AdvectionScheme(_PULSE_V, order=2),
            engine=ENGINE,
            kernel_backend=KERNEL_BACKEND,
            subcycle=True,
            reflux=True,
        )
        self.cells_per_block = 8**2
        self.mass0 = self.sim.total(0)
        self._warm()

    def check(self) -> List[str]:
        problems = []
        sim = self.sim
        err = sim.error_vs(_gaussian(self.center, self.sigma, sim.time))
        if not err <= self.L1_BOUND:
            problems.append(f"L1 error {err:.3e} above {self.L1_BOUND:.1e}")
        drift = abs(sim.total(0) - self.mass0)
        if not drift <= self.MASS_RTOL * abs(self.mass0):
            problems.append(f"mass drifted by {drift:.3e}")
        return problems


# ----------------------------------------------------------------------
# mhd_blast_amr: adaptive MHD blast with reflux and floors
# ----------------------------------------------------------------------


class MHDBlastAMR(Episode):
    """2-D MHD blast, adaptation checked every 4 steps up to level 3,
    reflux on, density and pressure floors configured but inactive."""

    steps = 24
    tail_episodes = 8
    RHO_FLOOR = 1e-3
    P_FLOOR = 1e-3
    #: relative mass drift bound: reflux makes every coarse-fine face
    #: conservative, and the blast stays clear of the outflow boundary
    MASS_RTOL = 1e-13
    #: rounds of criterion-driven refinement of the initial grid
    INITIAL_ADAPT_ROUNDS = 3

    #: blast radius; fixed, so every seed refines the same blocks
    R_BLAST = 0.1
    #: amplitude of the seeded ambient density waves
    RHO_NOISE = 0.01

    def __init__(self, seed: int) -> None:
        # The seed shapes a smooth density perturbation (wave vectors and
        # phases).  It leaves pressure, and so the refinement monitor
        # (total energy, with the gas at rest), unchanged, so every seed
        # regrids alike and costs the same work per step.
        rng = np.random.default_rng(seed)
        self.waves = [
            (rng.integers(1, 4, size=2), rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(3)
        ]

    def _init_forest(self, forest, scheme: MHDScheme) -> None:
        bhat = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)
        for block in forest:
            x, y = block.meshgrid()
            w = np.zeros((8,) + x.shape)
            w[0] = 1.0
            for (kx, ky), phase in self.waves:
                w[0] += self.RHO_NOISE / 3.0 * np.sin(
                    2.0 * math.pi * (kx * x + ky * y) + phase)
            w[4] = np.where(x * x + y * y < self.R_BLAST**2, 10.0, 0.1)
            for c in range(3):
                w[5 + c] = bhat[c]
            block.interior[...] = scheme.prim_to_cons(w)

    def setup(self) -> None:
        cfg = SimulationConfig(
            domain=Box((-0.5, -0.5), (0.5, 0.5)),
            n_root=(2, 2),
            m=(8, 8),
            max_level=3,
            adapt_interval=4,
        )
        forest = cfg.make_forest(8)
        scheme = MHDScheme(
            2, 5.0 / 3.0, order=2, rho_floor=self.RHO_FLOOR, p_floor=self.P_FLOOR
        )
        energy = scheme.layout.I_E
        criterion = MonitorCriterion(
            lambda d: d[energy],
            refine_threshold=0.12,
            coarsen_threshold=0.03,
            max_level=cfg.max_level,
        )
        self._init_forest(forest, scheme)
        self.sim = Simulation(
            forest,
            scheme,
            bc=OutflowBC(),
            criterion=criterion,
            adapt_interval=cfg.adapt_interval,
            buffer_band=cfg.buffer_band,
            reflux=True,
            engine=ENGINE,
            kernel_backend=KERNEL_BACKEND,
        )
        self.cells_per_block = 8**2
        for _ in range(self.INITIAL_ADAPT_ROUNDS):
            self.sim.fill_ghosts()
            refine, _ = compute_flags(
                forest, criterion, buffer_band=cfg.buffer_band
            )
            if not refine or not forest.adapt(refine).changed:
                break
            self._init_forest(forest, scheme)
        self.mass0 = self.sim.total(0)
        self._warm()

    def check(self) -> List[str]:
        problems = []
        sim = self.sim
        drift = abs(sim.total(0) - self.mass0)
        if not drift <= self.MASS_RTOL * abs(self.mass0):
            problems.append(f"mass drifted by {drift:.3e}")
        layout = sim.scheme.layout
        for block in sim.forest:
            w = layout.cons_to_prim(block.interior)
            if not (np.all(w[0] >= self.RHO_FLOOR) and np.all(w[4] >= self.P_FLOOR)):
                problems.append(f"density or pressure below floor in {block.id}")
                break
            if not np.all(np.isfinite(block.interior)):
                problems.append(f"non-finite state in {block.id}")
                break
        return problems


#: workload name -> episode class, built from the seed
WORKLOADS: Dict[str, Callable[[int], Episode]] = {
    "fig5_mhd3d": Fig5MHD3D,
    "deep_pulse_sub": DeepPulseSub,
    "mhd_blast_amr": MHDBlastAMR,
}
