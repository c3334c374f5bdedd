"""Repository benchmark: time to solution and a per-layer split.

Run one workload (the form the benchmark contract fixes)::

    python3 perfbench/run.py --workload fig5_mhd3d --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``fail_rate`` is ``failed / attempted``.

Run every workload, each in a fresh process, and print every metric by
name and unit; with ``--repeat N`` each workload runs N times on seeds
``seed .. seed+N-1`` and the median, quartiles and min/max of every
metric are printed with the machine's facts::

    python3 perfbench/run.py --workload all --repeat 10 --seconds 35

The load is a closed loop: one driver process, no thread pool, each step
issued when the previous one returns.  A run repeats episodes (fresh
set-up, then the workload's fixed number of steps from the same initial
state) while the next one is expected to end within ``--seconds``.
Before every step and after the last, three fixed calibration kernels
sample the host's speed (``hostspeed.py``); the reported times are at
the reference host's speed, with the raw wall times printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: end-to-end metrics: name -> unit (all lower is better).  ``ref_``
#: times are step times at the reference host's speed (``hostspeed.py``):
#: each step's wall time divided by the host slowness measured around
#: it.  ``setup_s`` is scaled the same way.  Raw wall times are printed
#: beside them.
END_TO_END = {
    "ref_s_per_sim_t": "ref_s/t_sim",
    "ref_us_per_cell_update": "ref_us",
    "ref_step_ms_p50": "ref_ms",
    "ref_step_ms_tail": "ref_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics: name -> unit.  Values are per episode (the
#: workload's fixed step count) unless the unit says otherwise.
PER_LAYER = {
    "driver.stable_dt_s": "s",
    "driver.advance_self_s": "s",
    "ghost.fill_s": "s",
    "ghost.fill_calls": "count",
    "ghost.transfers": "count",
    "ghost.prolong_s": "s",
    "ghost.prolong_calls": "count",
    "ghost.restrict_s": "s",
    "ghost.restrict_calls": "count",
    "ghost.bc_s": "s",
    "ghost.bc_calls": "count",
    "ghost.copy_self_s": "s",
    "subcycle.block_updates": "count",
    "subcycle.fills_per_coarse_step": "count/step",
    "compute.flux_divergence_s": "s",
    "compute.flux_divergence_calls": "count",
    "compute.cells_per_call": "cells",
    "compute.face_states_s": "s",
    "compute.riemann_s": "s",
    "compute.cons_to_prim_s": "s",
    "compute.floors_s": "s",
    "compute.capture_calls": "count",
    "compute.recompute_frac": "ratio",
    "reflux.apply_s": "s",
    "reflux.interfaces": "count",
    "adapt.criteria_s": "s",
    "adapt.regrid_s": "s",
    "adapt.regrids": "count",
    "adapt.blocks_changed": "count",
    "arena.compact_s": "s",
    "arena.compact_calls": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}

#: Per-layer metrics that are counts: they must repeat exactly across
#: traced episodes.
EXACT = {
    name for name, unit in PER_LAYER.items()
    if unit in ("count", "count/step", "cells")
} | {"compute.recompute_frac"}

#: Predicted dominant layer bucket(s) per workload and their predicted
#: share of traced wall time, written down before any optimisation.
PREDICTED = {
    "fig5_mhd3d": (("compute",), 0.85),
    "deep_pulse_sub": (("ghost.cross",), 0.82),
    "mhd_blast_amr": (("compute", "ghost.copy", "ghost.cross", "ghost.bc"), 0.95),
}

#: Root spans must cover this share of the traced step time.
TRACE_TOLERANCE = 0.05
#: The tail percentile is the highest with at least this many samples
#: beyond it.
TAIL_BEYOND = 10
#: Steps taken by the warm-up episode, whose timings are discarded.
WARMUP_STEPS = 2


def import_library() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: library source not found under {SRC}\n")
        sys.exit(2)
    # numpy advises huge pages for large arrays; whether the host grants
    # them varies from minute to minute and moves resident memory by
    # several MB, so the benchmark measures without that advice.
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------


def run_episode(ep, tracer, host=None) -> Dict[str, Any]:
    """Set up, step and check one episode; never raises.  With a
    ``HostSpeed`` the host slowness is sampled before every step and
    after the last, outside the steps' timing."""
    rec: Dict[str, Any] = {
        "traced": tracer is not None, "walls": [], "slow": [], "simt": 0.0,
        "updates": 0, "error": None, "problems": [], "attempted": 1,
    }
    t0 = time.perf_counter()
    try:
        ep.setup()
    except Exception:
        # counted as one failed attempt, so a run never attempts nothing
        rec["error"] = traceback.format_exc()
        ep.close()
        return rec
    rec["setup_s"] = time.perf_counter() - t0
    start_counts = ep.counts()
    try:
        if tracer is not None:
            tracer.trace_simulation(ep.sim)
        clock = time.perf_counter
        for i in range(ep.steps):
            rec["attempted"] = i + 1
            if host is not None:
                rec["slow"].append(host.slowness())
            t = clock()
            dt, updates = ep.step()
            rec["walls"].append(clock() - t)
            rec["simt"] += dt
            rec["updates"] += updates
        if host is not None:
            rec["slow"].append(host.slowness())
    except Exception:
        rec["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        if rec["error"] is None:
            rec["problems"] = ep.check()
            rec["digest"] = ep.digest()
            end_counts = ep.counts()
            rec["counts"] = end_counts
            rec["delta"] = {k: end_counts[k] - start_counts[k] for k in end_counts}
    except Exception:
        rec["error"] = traceback.format_exc()
    finally:
        ep.close()
        # Release the episode before the next one is built, so memory
        # peaks do not depend on when the cycle collector happens to run.
        gc.collect()
    return rec


def episode_layers(rec: Dict[str, Any], tracer, steps: int) -> Dict[str, float]:
    from spans import bucket_shares, layer_metrics

    m = layer_metrics(tracer, steps)
    m["subcycle.block_updates"] = rec["updates"]
    m["arena.compact_calls"] = rec["delta"]["compactions"]
    buckets, root_s = bucket_shares(tracer)
    m["trace.coverage"] = root_s / sum(rec["walls"])
    rec["buckets"] = buckets
    rec["root_s"] = root_s
    return m


def tail(walls: List[float]) -> tuple:
    """(value, percentile, samples): the highest percentile with at
    least TAIL_BEYOND samples beyond it (the maximum when too few)."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def ref_walls(rec: Dict[str, Any]) -> List[float]:
    """An episode's step times at the reference host's speed: each
    divided by the mean of the host slowness sampled just before and
    just after it."""
    slow = rec["slow"]
    return [2.0 * w / (slow[i] + slow[i + 1]) for i, w in enumerate(rec["walls"])]


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from hostspeed import HostSpeed
    from spans import Tracer
    from workloads import WORKLOADS

    host = HostSpeed()
    ep = WORKLOADS[workload](seed)
    # Warm-up: one set-up and a few steps, timings discarded.  A failure
    # here recurs in the timed episodes, which count it.
    try:
        ep.setup()
        for _ in range(min(WARMUP_STEPS, ep.steps)):
            ep.step()
    except Exception:
        traceback.print_exc()
    finally:
        ep.close()

    episodes: List[Dict[str, Any]] = []
    layers: List[Dict[str, float]] = []
    spans_tracer = None
    clock = time.perf_counter
    deadline = clock() + seconds
    min_episodes = 4 if trace else ep.tail_episodes
    last = 0.0  # duration of the previous episode: the next one's estimate
    while len(episodes) < min_episodes or clock() + last <= deadline:
        traced = trace and len(episodes) % 2 == 1
        tracer = Tracer() if traced else None
        t0 = clock()
        rec = run_episode(ep, tracer, host)
        last = clock() - t0
        episodes.append(rec)
        if traced and rec["error"] is None:
            layers.append(episode_layers(rec, tracer, ep.steps))
            spans_tracer = tracer

    # -- correctness: failures, output checks, determinism -------------
    # A step that raises fails itself; a wrong output, a determinism
    # mismatch or a broken accounting fails every step of the run.
    attempted = sum(r["attempted"] for r in episodes)
    raised = [f"episode {i} raised:\n{r['error']}"
              for i, r in enumerate(episodes) if r["error"]]
    wrong: List[str] = [f"episode {i}: {p}"
                        for i, r in enumerate(episodes) for p in r["problems"]]
    good = [r for r in episodes if not r["error"]]
    for r in good[1:]:
        kind = "traced" if r["traced"] else "untraced"
        if r["digest"] != good[0]["digest"]:
            wrong.append(f"final state of a {kind} episode differs: "
                         f"{r['digest']} != {good[0]['digest']}")
        if r["counts"] != good[0]["counts"] or r["updates"] != good[0]["updates"]:
            wrong.append(f"program counts of a {kind} episode differ: "
                         f"{r['counts']} != {good[0]['counts']}")
    for lm in layers[1:]:
        wrong.extend(f"traced count {name} differs: {lm[name]} != {layers[0][name]}"
                     for name in sorted(EXACT) if lm[name] != layers[0][name])
    for r in good:
        if r["traced"]:
            if abs(sum(r["buckets"].values()) - r["root_s"]) > 1e-6 * r["root_s"]:
                wrong.append("layer self times do not add up to the root spans")
            coverage = r["root_s"] / sum(r["walls"])
            if not 1.0 - TRACE_TOLERANCE <= coverage <= 1.0 + 1e-9:
                wrong.append(f"spans cover {coverage:.3f} of the traced step time")
    failed = attempted if wrong else len(raised)
    correct = not (raised or wrong)

    print(f"workload {workload} seed {seed}: {len(episodes)} episodes x "
          f"{ep.steps} steps ({sum(1 for r in episodes if r['traced'])} traced), "
          f"digest {good[0]['digest'] if good else '-'}")
    print(f"fail_rate = {failed}/{attempted}")
    for msg in (raised + wrong)[:10]:
        print(f"FAILED: {msg}")

    untraced = [r for r in good if not r["traced"]]
    metrics: Dict[str, Dict[str, Any]] = {}
    if not trace:
        if untraced:
            simt = sum(r["simt"] for r in untraced)
            cells = ep.cells_per_block * sum(r["updates"] for r in untraced)
            values, raw = {}, {}
            pooled = untraced[:ep.tail_episodes]
            for prefix, walls, tail_walls, out in (
                ("ref_", [w for r in untraced for w in ref_walls(r)],
                 [w for r in pooled for w in ref_walls(r)], values),
                ("wall_", [w for r in untraced for w in r["walls"]],
                 [w for r in pooled for w in r["walls"]], raw),
            ):
                t_val, t_pct, t_n = tail(tail_walls)
                out[prefix + "s_per_sim_t"] = sum(walls) / simt
                out[prefix + "us_per_cell_update"] = 1e6 * sum(walls) / cells
                out[prefix + "step_ms_p50"] = 1e3 * statistics.median(walls)
                out[prefix + "step_ms_tail"] = 1e3 * t_val
            # set-up at the reference speed too, scaled like its episode's steps
            values["setup_s"] = statistics.median(
                r["setup_s"] / statistics.fmean(r["slow"]) for r in untraced)
            raw["wall_setup_s"] = statistics.median(r["setup_s"] for r in untraced)
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            for k, v in values.items():
                print(f"  {k} = {v:.6g} {END_TO_END[k]}")
            print(f"  (step_ms_tail is p{t_pct:.1f} of {t_n} steps, "
                  f"the first {len(pooled)} episodes)")
            slow = [s for r in untraced for s in r["slow"]]
            print(f"  host slowness: median {statistics.median(slow):.3f}, "
                  f"min {min(slow):.3f}, max {max(slow):.3f}")
            for k, v in raw.items():
                print(f"  {k} = {v:.6g} (wall time, printed only)")
    elif layers and untraced:
        values = {k: statistics.median(lm[k] for lm in layers) for k in layers[0]}
        traced_wall = statistics.median(sum(ref_walls(r)) for r in good if r["traced"])
        untraced_wall = statistics.median(sum(ref_walls(r)) for r in untraced)
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        for k in PER_LAYER:
            print(f"  {k} = {values[k]:.6g} {PER_LAYER[k]}")
        report_buckets(workload, [r for r in good if r["traced"]])
        if spans_tracer is not None:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            path = out / f"spans-{workload}-seed{seed}.jsonl"
            spans_tracer.dump(str(path))
            print(f"  spans of the last traced episode: {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def report_buckets(workload: str, traced: List[Dict[str, Any]]) -> None:
    """Print each layer's share of traced time and check the predicted
    dominant layer."""
    names = sorted({b for r in traced for b in r["buckets"]})
    share = {
        b: statistics.median(r["buckets"].get(b, 0.0) / r["root_s"] for r in traced)
        for b in names
    }
    print("  layer self-time shares (median over traced episodes):")
    for b in sorted(names, key=lambda b: -share[b]):
        print(f"    {b:<14} {share[b]:7.1%}")
    predicted, predicted_share = PREDICTED[workload]
    got = sum(share.get(b, 0.0) for b in predicted)
    others = [share[b] for b in names if b not in predicted]
    ok = got >= 0.5 and all(got > s for s in others)
    verdict = "matches" if ok else "MISMATCH"
    print(f"  dominant layer {'+'.join(predicted)}: {got:.1%} "
          f"(predicted {predicted_share:.0%}) - {verdict}")


# ----------------------------------------------------------------------
# every workload, repeated: the steadiness report
# ----------------------------------------------------------------------


def machine_facts() -> Dict[str, Any]:
    import numpy

    facts: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    caches = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
            caches.append(f"L{level} {kind} {size}")
        except OSError:
            continue
    facts["caches"] = caches
    try:
        facts["git"] = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        facts["git"] = "unknown"
    return facts


def child_run(workload: str, seed: int, seconds: float, trace: bool,
              echo: bool) -> Optional[Dict]:
    """One run in a fresh process; its result line, or None on failure.
    With ``echo`` the run's report lines are printed too."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    if echo:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def repeat(workloads: List[str], seed: int, seconds: float, trace: bool, n: int) -> int:
    facts = machine_facts()
    print("machine: " + json.dumps(facts))
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(spec.read_text()).get("end_to_end", [])}
    units = PER_LAYER if trace else END_TO_END
    status = 0
    for wl in workloads:
        runs = [child_run(wl, seed + i, seconds, trace, echo=n == 1) for i in range(n)]
        ok = [r for r in runs if r is not None]
        attempted = sum(r["attempted"] for r in ok)
        failed = sum(r["failed"] for r in ok)
        all_correct = len(ok) == n and all(r["correct"] for r in ok)
        status |= 0 if all_correct else 1
        print(f"\n{wl}: {len(ok)}/{n} runs, seeds {seed}..{seed + n - 1}, "
              f"correct={all_correct}, fail_rate={failed}/{attempted}")
        if n == 1:
            continue  # the run's own report, echoed above, has every value
        print(f"  {'metric':<32} {'unit':<10} {'median':>11} {'q1':>11} "
              f"{'q3':>11} {'min':>11} {'max':>11} {'iqr/med':>8}")
        for name, unit in units.items():
            vals = [r["metrics"][name]["value"] for r in ok if name in r["metrics"]]
            if not vals:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            flag = ""
            if name in bounds and name != "setup_s" and spread >= bounds[name] / 3:
                flag = f"  above bound/3 ({bounds[name] / 3:.3f})"
            print(f"  {name:<32} {unit:<10} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{min(vals):11.5g} {max(vals):11.5g} {spread:8.3f}{flag}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    import_library()
    from workloads import DEFAULT_SEED, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, each in a fresh process, "
                         "reported as median/quartiles/min/max")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        ap.error("--seconds must be > 0 and --repeat >= 1")
    if args.workload == "all" or args.repeat > 1:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        return repeat(names, args.seed, args.seconds, bool(args.trace), args.repeat)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
