"""Per-layer tracing from outside the program.

The library has no spans of its own below the driver's flat phase
timer, so the benchmark records them itself: it wraps the public
functions the driver looks up at call time (module-level names and
instance attributes) and records one span per call with its name, start,
end and parent.  Spans are kept in memory; self time is a span's
duration minus what its children cover.  Every wrapper is removed again
by :meth:`Tracer.uninstall`, so untraced episodes in the same process
run the program's own code.

Tracing only observes: wrappers pass arguments and results through
unchanged, which the benchmark checks by comparing the final-state
digest of traced and untraced episodes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.amr.driver as driver_mod
import repro.core.ghost as ghost_mod
from repro.core.reflux import FluxRegister

#: Span name -> layer bucket used for the self-time accounting and the
#: dominant-layer check.
BUCKETS = {
    "step": "driver",
    "stable_dt": "driver",
    "advance": "driver",
    "ghost.fill": "ghost.copy",
    "ghost.gather": "ghost.cross",
    "ghost.prolong": "ghost.cross",
    "ghost.restrict_contrib": "ghost.cross",
    "ghost.restrict_apply": "ghost.cross",
    "ghost.bc": "ghost.bc",
    "compute.flux_divergence": "compute",
    "compute.face_states": "compute",
    "compute.riemann": "compute",
    "compute.cons_to_prim": "compute",
    "compute.floors": "compute",
    "reflux.apply": "reflux",
    "adapt.criteria": "adapt",
    "adapt.regrid": "adapt",
    "arena.compact": "arena",
}


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    # -- recording -------------------------------------------------------

    def wrap(
        self, name: str, fn: Callable, after: Optional[Callable] = None
    ) -> Callable:
        """``fn`` wrapped to record one span per call; ``after(result,
        args, kwargs)`` then updates the counters, outside the span."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(
        self, owner: Any, attr: str, name: str, after: Optional[Callable] = None
    ) -> None:
        """Replace ``owner.attr`` by its traced wrapper (undone by
        :meth:`uninstall`)."""
        own = vars(owner)
        had = attr in own
        self._undo.append((owner, attr, had, own.get(attr)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def uninstall(self) -> None:
        for owner, attr, had, orig in reversed(self._undo):
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- installation ----------------------------------------------------

    def trace_simulation(self, sim: Any) -> None:
        """Wrap every layer boundary a ``Simulation`` step crosses."""
        counts = self.counts

        def count_transfers(result, args, kwargs):
            counts["ghost.transfers"] += result

        def count_cells(result, args, kwargs):
            u, g = args[0], args[2]
            nd = kwargs.get("ndim")
            nd = u.ndim - 1 if nd is None else nd
            batch = u.shape[0] if u.ndim == nd + 2 else 1
            cells = batch * int(np.prod([s - 2 * g for s in u.shape[-nd:]]))
            counts["compute.cells"] += cells
            if kwargs.get("face_flux_out") is not None:
                counts["compute.capture_calls"] += 1
                counts["compute.capture_cells"] += cells

        def count_interfaces(result, args, kwargs):
            counts["reflux.interfaces"] += args[0].n_interfaces

        def count_regrid(summary, args, kwargs):
            if summary.changed:
                counts["adapt.regrids"] += 1
            counts["adapt.blocks_changed"] += summary.refined + summary.coarsened

        self.patch(driver_mod, "fill_ghosts", "ghost.fill", after=count_transfers)
        self.patch(driver_mod, "compute_flags", "adapt.criteria")
        self.patch(ghost_mod, "gather_bordered", "ghost.gather")
        self.patch(ghost_mod, "prolong_bordered", "ghost.prolong")
        self.patch(ghost_mod, "restriction_contribution", "ghost.restrict_contrib")
        self.patch(ghost_mod, "apply_restrictions", "ghost.restrict_apply")
        self.patch(FluxRegister, "apply", "reflux.apply", after=count_interfaces)
        scheme = sim.scheme
        self.patch(scheme, "flux_divergence", "compute.flux_divergence", after=count_cells)
        self.patch(scheme, "face_states", "compute.face_states")
        self.patch(scheme, "riemann", "compute.riemann")
        self.patch(scheme, "cons_to_prim", "compute.cons_to_prim")
        self.patch(scheme, "apply_floors", "compute.floors")
        if sim.bc is not None:
            self.patch(sim, "bc", "ghost.bc")
        self.patch(sim.forest, "adapt", "adapt.regrid", after=count_regrid)
        self.patch(sim.forest.arena, "ensure_compact", "arena.compact")
        self.patch(sim, "stable_dt", "stable_dt")
        self.patch(sim, "advance", "advance")
        self.patch(sim, "step", "step")

    # -- aggregation -----------------------------------------------------

    def totals(self) -> Tuple[Dict[str, Dict[str, float]], float]:
        """Per span name: inclusive seconds, self seconds and calls; plus
        the summed duration of the root spans."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros_like(dur)
        child = parents >= 0
        np.add.at(covered, parents[child], dur[child])
        self_t = dur - covered
        out: Dict[str, Dict[str, float]] = {}
        for i, name in enumerate(self.names):
            agg = out.setdefault(name, {"incl": 0.0, "self": 0.0, "calls": 0})
            agg["incl"] += dur[i]
            agg["self"] += self_t[i]
            agg["calls"] += 1
        return out, float(dur[~child].sum())

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines (name, start, end,
        parent index), times relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "i": i,
                    "name": name,
                    "start": self.starts[i] - t0,
                    "end": self.ends[i] - t0,
                    "parent": self.parents[i],
                }) + "\n")


def layer_metrics(tracer: Tracer, steps: int) -> Dict[str, float]:
    """Per-layer metrics of one traced episode of ``steps`` steps (coarse
    steps under subcycling)."""
    agg, _ = tracer.totals()
    c = tracer.counts

    def incl(*names: str) -> float:
        return sum(agg[n]["incl"] for n in names if n in agg)

    def self_(*names: str) -> float:
        return sum(agg[n]["self"] for n in names if n in agg)

    def calls(name: str) -> int:
        return int(agg[name]["calls"]) if name in agg else 0

    fd_calls = calls("compute.flux_divergence")
    cells = c["compute.cells"]
    fill_calls = calls("ghost.fill")
    return {
        "driver.stable_dt_s": incl("stable_dt"),
        "driver.advance_self_s": self_("advance"),
        "ghost.fill_s": incl("ghost.fill"),
        "ghost.fill_calls": fill_calls,
        "ghost.transfers": c["ghost.transfers"],
        "ghost.prolong_s": incl("ghost.gather", "ghost.prolong"),
        "ghost.prolong_calls": calls("ghost.prolong"),
        "ghost.restrict_s": incl("ghost.restrict_contrib", "ghost.restrict_apply"),
        "ghost.restrict_calls": calls("ghost.restrict_contrib"),
        "ghost.bc_s": incl("ghost.bc"),
        "ghost.bc_calls": calls("ghost.bc"),
        "ghost.copy_self_s": self_("ghost.fill"),
        "subcycle.fills_per_coarse_step": fill_calls / steps,
        "compute.flux_divergence_s": incl("compute.flux_divergence"),
        "compute.flux_divergence_calls": fd_calls,
        "compute.cells_per_call": cells / fd_calls if fd_calls else 0.0,
        "compute.face_states_s": incl("compute.face_states"),
        "compute.riemann_s": incl("compute.riemann"),
        "compute.cons_to_prim_s": incl("compute.cons_to_prim"),
        "compute.floors_s": incl("compute.floors"),
        "compute.capture_calls": c["compute.capture_calls"],
        "compute.recompute_frac": c["compute.capture_cells"] / cells if cells else 0.0,
        "reflux.apply_s": incl("reflux.apply"),
        "reflux.interfaces": c["reflux.interfaces"],
        "adapt.criteria_s": incl("adapt.criteria"),
        "adapt.regrid_s": incl("adapt.regrid"),
        "adapt.regrids": c["adapt.regrids"],
        "adapt.blocks_changed": c["adapt.blocks_changed"],
        "arena.compact_s": incl("arena.compact"),
    }


def bucket_shares(tracer: Tracer) -> Tuple[Dict[str, float], float]:
    """Self seconds per layer bucket and the root-span total they must
    add up to."""
    agg, root_s = tracer.totals()
    buckets: Dict[str, float] = defaultdict(float)
    for name, a in agg.items():
        buckets[BUCKETS[name]] += a["self"]
    return dict(buckets), root_s
