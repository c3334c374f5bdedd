"""Ideal magnetohydrodynamics — the paper's production system.

The 8-variable ideal-MHD equations solved with a Godunov-type
finite-volume scheme and Powell's 8-wave divergence control: the
non-conservative source term ``-(div B) * (0, B, u·B, u)`` advects
magnetic-divergence errors with the flow instead of letting them
accumulate — the method used by the authors' solar-wind / CME / comet
simulations on the Cray T3D.

The per-cell arithmetic of this scheme (reconstruction in 8 variables,
two flux evaluations per face per stage, fast-magnetosonic dissipation)
is the high-FLOP workload whose per-cell time the paper's Figure 5
plots against block size.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.solvers.scheme import FVScheme
from repro.solvers.state import DEFAULT_GAMMA, MHDLayout, clip_to_floors

__all__ = ["MHDScheme"]


class MHDScheme(FVScheme):
    """Finite-volume ideal MHD with the Powell 8-wave source term.

    Parameters
    ----------
    ndim:
        Grid dimension 1–3; velocity and magnetic field always carry
        three components (2.5-D convention).
    gamma:
        Ratio of specific heats.
    powell_source:
        Enable the 8-wave divergence source (default True).
    """

    def __init__(
        self,
        ndim: int,
        gamma: float = DEFAULT_GAMMA,
        *,
        powell_source: bool = True,
        rho_floor: Optional[float] = None,
        p_floor: Optional[float] = None,
        **kw,
    ) -> None:
        super().__init__(**kw)
        if not 1 <= ndim <= 3:
            raise ValueError(f"ndim must be 1..3, got {ndim}")
        self.layout = MHDLayout(gamma)
        self.ndim = ndim
        self.gamma = gamma
        self.powell_source = powell_source
        # Problem-level floors (production MHD practice): strong
        # rarefactions can drive density toward vacuum, and the Alfvén
        # speed B/sqrt(rho) then blows up the CFL step.  A physical
        # density floor bounds it; the pressure floor keeps the EOS sane
        # behind strong shocks.  None disables the fix-up (defaults).
        if rho_floor is not None and rho_floor <= 0:
            raise ValueError("rho_floor must be positive")
        if p_floor is not None and p_floor <= 0:
            raise ValueError("p_floor must be positive")
        self.rho_floor = rho_floor
        self.p_floor = p_floor
        self.nvar = self.layout.nvar

    def apply_floors(self, u: np.ndarray) -> None:
        """Clip density/pressure up to the configured floors, in place,
        rewriting only the clipped cells (see
        :func:`~repro.solvers.state.clip_to_floors`).  Velocity and
        magnetic field are preserved; energy is rebuilt consistently.
        """
        clip_to_floors(self.layout, u, ((0, self.rho_floor), (4, self.p_floor)))

    @property
    def positivity_indices(self):
        # Density and pressure (primitive layout [rho, u, p, B]); the
        # matching conserved slots (rho, E) must be positive too.
        return (0, 4)

    def cons_to_prim(self, u: np.ndarray) -> np.ndarray:
        return self.layout.cons_to_prim(u)

    def prim_to_cons(self, w: np.ndarray) -> np.ndarray:
        return self.layout.prim_to_cons(w)

    def flux(self, w: np.ndarray, axis: int) -> np.ndarray:
        return self.layout.flux(w, axis)

    def normal_velocity(self, w: np.ndarray, axis: int) -> np.ndarray:
        return w[1 + axis]

    def char_speed(self, w: np.ndarray, axis: int) -> np.ndarray:
        return self.layout.fast_speed(w, axis)

    def source(
        self,
        u_interior: np.ndarray,
        w: np.ndarray,
        dx: Sequence[float],
        g: int,
    ) -> Optional[np.ndarray]:
        """Powell 8-wave source: ``dU/dt -= (div B) (0, B, u·B, u)``.

        ``div B`` is the central-difference cell divergence; the source
        vector uses the cell's own velocity and field.  Evaluated on the
        interior only.
        """
        if not self.powell_source:
            return None
        # Spatial axes are the last ``self.ndim`` of ``w`` (the leading
        # axes are the variable axis plus, when batched, the block axis),
        # so per-block arrays and var-major stacks share this code.
        ndim = self.ndim
        lead = w.ndim - ndim  # 1 per-block, 2 batched
        shape = w.shape[lead:]
        interior = tuple(slice(g, s - g) for s in shape)
        batch = (slice(None),) * (lead - 1)
        div = np.zeros(w.shape[1:lead] + tuple(s - 2 * g for s in shape))
        for a in range(ndim):
            plus = list(batch + interior)
            minus = list(batch + interior)
            plus[lead - 1 + a] = slice(g + 1, shape[a] - g + 1)
            minus[lead - 1 + a] = slice(g - 1, shape[a] - g - 1)
            div += (w[5 + a][tuple(plus)] - w[5 + a][tuple(minus)]) / (2.0 * dx[a])
        wi = w[(slice(None),) + batch + interior]
        src = np.zeros_like(wi)
        udotb = wi[1] * wi[5] + wi[2] * wi[6] + wi[3] * wi[7]
        for c in range(3):
            src[1 + c] = -div * wi[5 + c]   # momentum: -divB * B
            src[5 + c] = -div * wi[1 + c]   # induction: -divB * u
        src[4] = -div * udotb               # energy:   -divB * (u . B)
        return src

    def div_b_interior(self, u: np.ndarray, dx: Sequence[float], g: int) -> np.ndarray:
        """Diagnostic: central-difference div B over the interior cells."""
        return self.layout.div_b(u, dx, u.ndim - 1, g)
