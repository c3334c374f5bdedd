"""State-variable layouts and primitive/conserved conversions.

Three equation systems are supported, in increasing complexity:

* **Advection** — one scalar, used as the cheap correctness workload;
* **Euler** — compressible gas dynamics, ``ndim + 2`` variables;
* **Ideal MHD** — the paper's production system: 8 variables
  ``[rho, mx, my, mz, E, Bx, By, Bz]`` regardless of grid dimension
  (velocity and magnetic field always carry three components — the
  standard 2.5-D convention), with total energy including the magnetic
  contribution ``B^2/2`` (Lorentz–Heaviside units, mu0 = 1).

All conversions are vectorized over arrays of shape ``(nvar, ...)``.
Density and pressure floors keep the conversions robust near vacuum —
production block-AMR flow codes all do this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EulerLayout",
    "MHDLayout",
    "DEFAULT_GAMMA",
    "RHO_FLOOR",
    "P_FLOOR",
    "clip_to_floors",
]

DEFAULT_GAMMA = 5.0 / 3.0
RHO_FLOOR = 1e-12
P_FLOOR = 1e-14


def clip_to_floors(layout, u: np.ndarray, floors) -> None:
    """Raise primitive variables to their floors, in place on the
    conserved ``u`` (variable axis first, any trailing layout).

    ``floors`` pairs primitive indices with floors (``None`` = unset).
    Only the cells below a floor are rewritten, from the clipped
    primitives (so the layout's other primitives are kept and the
    energy is rebuilt consistently); every other cell keeps its exact
    bits, so floors that never fire are identical to no floors.
    """
    active = [(i, f) for i, f in floors if f is not None]
    if not active:
        return
    w = layout.cons_to_prim(u)
    clip = np.zeros(w.shape[1:], dtype=bool)
    for i, floor in active:
        clip |= w[i] < floor
        np.maximum(w[i], floor, out=w[i])
    if clip.any():
        np.copyto(u, layout.prim_to_cons(w), where=clip)


@dataclass(frozen=True)
class EulerLayout:
    """Compressible Euler equations in ``ndim`` dimensions.

    Conserved: ``[rho, mom_0..mom_{d-1}, E]``.
    Primitive: ``[rho, u_0..u_{d-1}, p]``.
    """

    ndim: int
    gamma: float = DEFAULT_GAMMA

    @property
    def nvar(self) -> int:
        return self.ndim + 2

    @property
    def i_energy(self) -> int:
        return self.ndim + 1

    def momentum_index(self, axis: int) -> int:
        return 1 + axis

    def cons_to_prim(self, u: np.ndarray) -> np.ndarray:
        """Conserved → primitive, with floors applied."""
        w = np.empty_like(u)
        rho = np.maximum(u[0], RHO_FLOOR)
        w[0] = rho
        ke = np.zeros_like(rho)
        for a in range(self.ndim):
            w[1 + a] = u[1 + a] / rho
            ke += u[1 + a] * w[1 + a]
        p = (self.gamma - 1.0) * (u[self.i_energy] - 0.5 * ke)
        w[self.i_energy] = np.maximum(p, P_FLOOR)
        return w

    def prim_to_cons(self, w: np.ndarray) -> np.ndarray:
        """Primitive → conserved."""
        u = np.empty_like(w)
        rho = np.maximum(w[0], RHO_FLOOR)
        u[0] = rho
        ke = np.zeros_like(rho)
        for a in range(self.ndim):
            u[1 + a] = rho * w[1 + a]
            ke += rho * w[1 + a] ** 2
        u[self.i_energy] = (
            np.maximum(w[self.i_energy], P_FLOOR) / (self.gamma - 1.0) + 0.5 * ke
        )
        return u

    def pressure(self, u: np.ndarray) -> np.ndarray:
        return self.cons_to_prim(u)[self.i_energy]

    def sound_speed(self, w: np.ndarray) -> np.ndarray:
        """Acoustic speed from primitives."""
        return np.sqrt(self.gamma * w[self.i_energy] / np.maximum(w[0], RHO_FLOOR))

    def max_signal_speed(self, u: np.ndarray) -> float:
        """max(|u_a| + c) over all cells and axes (CFL speed)."""
        w = self.cons_to_prim(u)
        c = self.sound_speed(w)
        best = 0.0
        for a in range(self.ndim):
            best = max(best, float(np.max(np.abs(w[1 + a]) + c)))
        return best

    def flux(self, w: np.ndarray, axis: int) -> np.ndarray:
        """Physical flux along ``axis`` from primitive variables."""
        rho = w[0]
        un = w[1 + axis]
        p = w[self.i_energy]
        f = np.empty_like(w)
        f[0] = rho * un
        for a in range(self.ndim):
            f[1 + a] = rho * un * w[1 + a]
        f[1 + axis] += p
        e = p / (self.gamma - 1.0)
        for a in range(self.ndim):
            e += 0.5 * rho * w[1 + a] ** 2
        f[self.i_energy] = un * (e + p)
        return f


@dataclass(frozen=True)
class MHDLayout:
    """Ideal MHD, 8 variables, any grid dimension (2.5-D convention).

    Conserved: ``[rho, mx, my, mz, E, Bx, By, Bz]`` with
    ``E = p/(gamma-1) + rho |u|^2 / 2 + |B|^2 / 2``.
    Primitive: ``[rho, ux, uy, uz, p, Bx, By, Bz]``.
    """

    gamma: float = DEFAULT_GAMMA

    nvar: int = 8
    I_RHO: int = 0
    I_MX: int = 1
    I_E: int = 4
    I_BX: int = 5

    def momentum_index(self, comp: int) -> int:
        return self.I_MX + comp

    def b_index(self, comp: int) -> int:
        return self.I_BX + comp

    def cons_to_prim(self, u: np.ndarray) -> np.ndarray:
        w = np.empty_like(u)
        rho = np.maximum(u[0], RHO_FLOOR)
        w[0] = rho
        ke = np.zeros_like(rho)
        for c in range(3):
            w[1 + c] = u[1 + c] / rho
            ke += u[1 + c] * w[1 + c]
        b2 = u[5] ** 2 + u[6] ** 2 + u[7] ** 2
        p = (self.gamma - 1.0) * (u[4] - 0.5 * ke - 0.5 * b2)
        w[4] = np.maximum(p, P_FLOOR)
        w[5:8] = u[5:8]
        return w

    def prim_to_cons(self, w: np.ndarray) -> np.ndarray:
        u = np.empty_like(w)
        rho = np.maximum(w[0], RHO_FLOOR)
        u[0] = rho
        ke = np.zeros_like(rho)
        for c in range(3):
            u[1 + c] = rho * w[1 + c]
            ke += rho * w[1 + c] ** 2
        b2 = w[5] ** 2 + w[6] ** 2 + w[7] ** 2
        u[4] = np.maximum(w[4], P_FLOOR) / (self.gamma - 1.0) + 0.5 * ke + 0.5 * b2
        u[5:8] = w[5:8]
        return u

    def fast_speed(self, w: np.ndarray, axis: int) -> np.ndarray:
        """Fast magnetosonic speed normal to ``axis`` from primitives."""
        rho = np.maximum(w[0], RHO_FLOOR)
        a2 = self.gamma * np.maximum(w[4], P_FLOOR) / rho
        b2 = (w[5] ** 2 + w[6] ** 2 + w[7] ** 2) / rho
        bn2 = w[5 + axis] ** 2 / rho
        s = a2 + b2
        disc = np.sqrt(np.maximum(s * s - 4.0 * a2 * bn2, 0.0))
        return np.sqrt(np.maximum(0.5 * (s + disc), 0.0))

    def max_signal_speed(self, u: np.ndarray, ndim: int) -> float:
        """max(|u_a| + c_fast,a) over cells and grid axes (CFL speed)."""
        w = self.cons_to_prim(u)
        best = 0.0
        for a in range(ndim):
            cf = self.fast_speed(w, a)
            best = max(best, float(np.max(np.abs(w[1 + a]) + cf)))
        return best

    def flux(self, w: np.ndarray, axis: int) -> np.ndarray:
        """Physical ideal-MHD flux along grid ``axis`` from primitives."""
        rho = w[0]
        un = w[1 + axis]
        p = w[4]
        bn = w[5 + axis]
        b2 = w[5] ** 2 + w[6] ** 2 + w[7] ** 2
        ptot = p + 0.5 * b2
        udotb = w[1] * w[5] + w[2] * w[6] + w[3] * w[7]
        f = np.empty_like(w)
        f[0] = rho * un
        for c in range(3):
            f[1 + c] = rho * un * w[1 + c] - bn * w[5 + c]
        f[1 + axis] += ptot
        e = p / (self.gamma - 1.0) + 0.5 * rho * (
            w[1] ** 2 + w[2] ** 2 + w[3] ** 2
        ) + 0.5 * b2
        f[4] = un * (e + ptot) - bn * udotb
        for c in range(3):
            f[5 + c] = un * w[5 + c] - w[1 + c] * bn
        f[5 + axis] = 0.0
        return f

    def div_b(self, u: np.ndarray, dx, ndim: int, g: int) -> np.ndarray:
        """Central-difference divergence of B over the interior cells.

        Shape: the interior (unpadded) cell array.  Used both by the
        Powell source term and as a diagnostic.
        """
        shape = u.shape[1:]
        interior = tuple(slice(g, s - g) for s in shape)
        div = np.zeros(tuple(s - 2 * g for s in shape))
        for a in range(ndim):
            plus = list(interior)
            minus = list(interior)
            plus[a] = slice(g + 1, shape[a] - g + 1)
            minus[a] = slice(g - 1, shape[a] - g - 1)
            div += (u[5 + a][tuple(plus)] - u[5 + a][tuple(minus)]) / (2.0 * dx[a])
        return div
