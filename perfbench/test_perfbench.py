"""The benchmark's own tests: determinism, tracing neutrality, accounting
and the contract's shape.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

import repro.amr.driver as driver_mod  # noqa: E402
import repro.core.ghost as ghost_mod  # noqa: E402
from repro.core.reflux import FluxRegister  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer, bucket_shares, layer_metrics  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

#: steps per test episode: enough to cross a regrid on the blast and
#: every level's substeps on the deep pulse, short enough to stay quick
SHORT = {"fig5_mhd3d": 2, "deep_pulse_sub": 1, "mhd_blast_amr": 5}


def _episode(name: str, seed: int = HELD_OUT_SEED):
    ep = WORKLOADS[name](seed)
    ep.steps = SHORT[name]
    return ep


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_episodes_agree_bit_for_bit(name):
    ep = _episode(name)
    plain = run.run_episode(ep, None)
    tracers = [Tracer(), Tracer()]
    traced = [run.run_episode(ep, t) for t in tracers]
    again = run.run_episode(ep, None)
    for rec in [plain, *traced, again]:
        assert rec["error"] is None, rec["error"]
        assert rec["problems"] == []
        assert rec["digest"] == plain["digest"]
        assert rec["counts"] == plain["counts"]
        assert rec["updates"] == plain["updates"]
    layers = [
        run.episode_layers(rec, t, ep.steps)
        for rec, t in zip(traced, tracers)
    ]
    for key in run.EXACT:
        assert layers[0][key] == layers[1][key], key


def test_uninstall_restores_every_wrapped_name():
    before = (
        driver_mod.fill_ghosts, driver_mod.compute_flags,
        ghost_mod.gather_bordered, ghost_mod.prolong_bordered,
        ghost_mod.restriction_contribution, ghost_mod.apply_restrictions,
        FluxRegister.__dict__["apply"],
    )
    ep = _episode("mhd_blast_amr")
    ep.setup()
    try:
        scheme_attrs = dict(vars(ep.sim.scheme))
        sim_attrs = dict(vars(ep.sim))
        tracer = Tracer()
        tracer.trace_simulation(ep.sim)
        assert driver_mod.fill_ghosts is not before[0]
        tracer.uninstall()
        assert vars(ep.sim.scheme) == scheme_attrs
        assert vars(ep.sim) == sim_attrs
    finally:
        ep.close()
    after = (
        driver_mod.fill_ghosts, driver_mod.compute_flags,
        ghost_mod.gather_bordered, ghost_mod.prolong_bordered,
        ghost_mod.restriction_contribution, ghost_mod.apply_restrictions,
        FluxRegister.__dict__["apply"],
    )
    assert all(a is b for a, b in zip(before, after))


def test_self_times_add_up_to_root_spans():
    tracer = Tracer(clock=lambda: float(next(ticks)))
    ticks = iter(range(100))
    inner = tracer.wrap("ghost.fill", lambda: 0)
    outer = tracer.wrap("advance", lambda: inner() or inner())
    tracer.wrap("step", outer)()
    agg, root_s = tracer.totals()
    # step [0, 7] > advance [1, 6] > two fills [2, 3] and [4, 5]
    assert root_s == 7.0
    assert agg["ghost.fill"] == {"incl": 2.0, "self": 2.0, "calls": 2}
    assert agg["advance"]["self"] == 3.0
    assert agg["step"]["self"] == 2.0
    buckets, total = bucket_shares(tracer)
    assert buckets == {"driver": 5.0, "ghost.copy": 2.0}
    assert sum(buckets.values()) == total
    assert layer_metrics(tracer, 1)["ghost.copy_self_s"] == 2.0


def test_host_slowness_brackets_every_step():
    ep = _episode("deep_pulse_sub")
    rec = run.run_episode(ep, None, HostSpeed())
    assert rec["error"] is None, rec["error"]
    assert len(rec["slow"]) == len(rec["walls"]) + 1 == ep.steps + 1
    assert all(s > 0.0 for s in rec["slow"])


def test_ref_walls_divide_by_the_slowness_around_each_step():
    rec = {"walls": [1.0, 3.0], "slow": [1.5, 2.5, 3.5]}
    assert run.ref_walls(rec) == [0.5, 1.0]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    walls = [float(i) for i in range(100)]
    value, pct, n = run.tail(walls)
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(w > value for w in walls) == run.TAIL_BEYOND
    assert run.tail([3.0, 1.0])[0] == 3.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tail_pools_enough_steps_to_be_a_percentile(name):
    ep = WORKLOADS[name](HELD_OUT_SEED)
    assert ep.tail_episodes * ep.steps > run.TAIL_BEYOND


def test_benchmark_json_names_match_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.PREDICTED) == set(WORKLOADS)


def test_fails_without_the_library(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5_mhd3d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
