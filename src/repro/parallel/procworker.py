"""Worker-process side of the real-process parallel backend.

Each rank of a :class:`~repro.parallel.procmachine.ProcessMachine` runs
:func:`worker_main` in a forked OS process.  The worker is a pure
command executor: it blocks on its control pipe, executes one *phase*
per command — a barrier-synchronous slice of the step — and replies
with a CRC32-checksummed acknowledgement.  All block data lives in the
shared-memory segments (:mod:`repro.parallel.shared_arena`); the pipes
carry only control messages, never payloads.

Phase protocol (each command is a global barrier: the supervisor sends
the next phase only after every alive rank acknowledged the previous
one):

``exch1``
    Stage 1 of the ghost exchange for the rank's own blocks: same-level
    copies and source-side restrictions, reading only *interiors* of
    neighbor segments (stable during the exchange), then physical BCs.
``exch2-gather``
    Read-only half of stage 2: gather every bordered coarse source
    region (which may read ghosts stage 1 just filled) into private
    scratch.  Nothing is written, so concurrent readers cannot race.
``exch2-write``
    Write half of stage 2: prolong the gathered payloads into the
    rank's own ghost regions, then BCs.  Splitting stage 2 around a
    barrier makes the concurrent exchange bit-for-bit equal to the
    serial one regardless of cross-rank timing: every gather sees
    exactly the post-stage-1 state, matching the two-stage data
    dependency contract checked by the race detector.
``step``, ``predictor``, ``corrector``
    Rank-local compute on own blocks (reads own ghosts, writes own
    interiors).
``config``
    (Re)build the worker's view of the world: attach segments, create
    Block views per the row locator, recompute the exchange plan
    filter.  Sent at spawn, after recoveries, and after respawns.
``resend``
    Supervision probe: retransmit the cached reply for the last
    executed sequence number (idempotent recovery for dropped or
    corrupted acknowledgements).
``shutdown``
    Acknowledge and exit cleanly.

Deterministic scripted misbehavior for the failure-detector tests is
injected through ``test_hooks`` — ``hang``, ``slow:<seconds>``,
``exit``, ``mute``, ``garble``, ``garble-forever`` keyed by
``(step, phase)`` — so edge cases like "slow but alive" and "heartbeat
stale" are exactly reproducible.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.protocol import phase_effect
from repro.core.block import Block
from repro.core.block_id import BlockID
from repro.core.forest import BlockForest
from repro.core.integrity import content_crc
from repro.core.ghost import (
    BoundaryHandler,
    NeighborKind,
    Transfer,
    _neg,
    all_offsets,
    _region_transfers,
    apply_restrictions,
    gather_bordered,
    prolong_bordered,
    prolongation_border,
    restriction_contribution,
)
from repro.parallel.shared_arena import SharedBlockArena
from repro.resilience.faults import apply_bitflip
from repro.solvers.scheme import FVScheme

__all__ = ["WorkerSpec", "worker_main", "build_exchange_plan"]

#: transfer plan entry: (dst block, ghost-region offset, transfers)
PlanEntry = Tuple[BlockID, Tuple[int, ...], List[Transfer]]


def build_exchange_plan(topology: BlockForest) -> List[PlanEntry]:
    """All transfers of one exchange, from the replicated topology.

    Identical to the emulated machine's plan — both sides of the
    process backend (supervisor and workers) derive their schedules
    from this single source of truth, in the same deterministic order.
    """
    plan: List[PlanEntry] = []
    offsets = all_offsets(topology.ndim)
    for bid in topology.sorted_ids():
        block = topology.blocks[bid]
        for offset in offsets:
            ts = list(_region_transfers(topology, block, offset))
            if ts:
                plan.append((bid, offset, ts))
    return plan


@dataclass
class WorkerSpec:
    """Everything a freshly forked worker needs (passed through fork)."""

    rank: int
    conn: Connection
    topology: BlockForest
    scheme: FVScheme
    bc: Optional[BoundaryHandler]
    heartbeat_name: str
    heartbeat_interval: float
    config: Dict[str, Any]
    #: scripted misbehavior: (step, phase) -> action
    test_hooks: Dict[Tuple[int, str], str] = field(default_factory=dict)
    #: connections inherited from the parent that this worker must close
    #: so a dead supervisor EOFs every worker instead of leaking pipes
    inherited: List[Connection] = field(default_factory=list)


class _Heartbeat:
    """Daemon thread bumping this rank's slot on the shared board."""

    def __init__(self, name: str, rank: int, interval: float) -> None:
        # Forked workers share the creator's resource tracker, so the
        # attach re-registers the name there (a set: no-op) — never
        # unregister, that would erase the creator's registration.
        self.shm = shared_memory.SharedMemory(name=name)
        self.board: Optional[np.ndarray] = np.frombuffer(
            self.shm.buf, dtype=np.float64
        )
        self.rank = rank
        self.interval = interval
        self.paused = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            board = self.board
            if board is None:
                return
            if not self.paused.is_set():
                board[self.rank] += 1.0
            time.sleep(self.interval)

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=1.0)
        # Drop the board view so the mapping can actually close.
        self.board = None
        try:
            self.shm.close()
        except BufferError:
            # The join timed out with the thread mid-increment; the
            # mapping dies with the process instead.
            pass


class _Worker:
    """Mutable worker state: segments, block views, exchange plan."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.rank = spec.rank
        self.conn = spec.conn
        self.topology = spec.topology
        self.scheme = spec.scheme
        self.bc = spec.bc
        self.hooks = dict(spec.test_hooks)
        self.plan = build_exchange_plan(spec.topology)
        self.segments: Dict[int, SharedBlockArena] = {}
        self.blocks: Dict[BlockID, Block] = {}
        self.assignment: Dict[BlockID, int] = {}
        self.saved: Dict[BlockID, np.ndarray] = {}
        self._payloads: List[np.ndarray] = []
        self._payload_crcs: List[int] = []

    # -- configuration --------------------------------------------------

    @phase_effect("config")
    def apply_config(self, cfg: Dict[str, Any]) -> Dict[str, Any]:
        """Attach segments and rebuild block views per the row locator."""
        wanted: Dict[int, Tuple[str, int, int]] = cfg["segments"]
        # Drop every old Block view first: a stale segment cannot close
        # while views into its pool are still referenced.
        self.blocks = {}
        self.saved = {}
        self._payloads = []
        self._payload_crcs = []
        for rank in list(self.segments):
            seg = self.segments[rank]
            if rank not in wanted or wanted[rank][0] != seg.name:
                seg.destroy()  # attach-side: close only, never unlink
                del self.segments[rank]
        geom = self.topology
        for rank, (name, capacity, mirror_capacity) in wanted.items():
            if rank not in self.segments:
                self.segments[rank] = SharedBlockArena(
                    geom.m, geom.n_ghost, geom.nvar,
                    capacity=capacity, mirror_capacity=mirror_capacity,
                    name=name, create=False,
                )
        self.assignment = dict(cfg["assignment"])
        locator: Dict[BlockID, Tuple[int, int]] = cfg["locator"]
        self.blocks = {}
        for bid, (rank, row) in locator.items():
            tmpl = self.topology.blocks[bid]
            blk = Block(
                id=tmpl.id, box=tmpl.box, m=tmpl.m,
                n_ghost=tmpl.n_ghost, nvar=tmpl.nvar,
                data=self.segments[rank].pool_view(row),
            )
            blk.face_neighbors = tmpl.face_neighbors
            self.blocks[bid] = blk
        self.saved = {}
        self._payloads = []
        self._payload_crcs = []
        return {"status": "ok", "n_blocks": len(self.own_blocks())}

    def own_blocks(self) -> List[Block]:
        """This rank's blocks in deterministic (Morton) order."""
        return [
            self.blocks[bid]
            for bid in self.topology.sorted_ids()
            if self.assignment.get(bid) == self.rank
            and bid in self.blocks
        ]

    # -- exchange phases ------------------------------------------------

    def _apply_bc(self) -> None:
        if self.bc is None:
            return
        ndim = self.topology.ndim
        for block in self.own_blocks():
            for axis in range(ndim):
                other = tuple(a for a in range(ndim) if a != axis)
                for side in (0, 1):
                    face = 2 * axis + side
                    fn = block.face_neighbors.get(face)
                    if fn is not None and fn.kind == NeighborKind.BOUNDARY:
                        region = block.ghost_region(face, other)
                        self.bc(block, face, region, self.topology)

    @phase_effect("exch1")
    def exch1(self) -> Dict[str, Any]:
        """Stage 1: same-level copies + restrictions into own ghosts."""
        ndim = self.topology.ndim
        n_remote = 0
        n_values = 0
        n_local = 0
        for bid, offset, transfers in self.plan:
            if self.assignment.get(bid) != self.rank:
                continue
            dst = self.blocks[bid]
            restrict_items = []
            for t in transfers:
                src = self.blocks[t.src_id]
                remote = self.assignment[t.src_id] != self.rank
                if t.delta == 0:
                    payload = src.view(t.src_box)
                    dst.view(t.dst_box)[...] = payload
                    if remote:
                        n_remote += 1
                        n_values += payload.size
                    else:
                        n_local += 1
                elif t.delta > 0:
                    coarse_box, csum, wsum = restriction_contribution(
                        src, t, ndim
                    )
                    restrict_items.append((t.dst_box, coarse_box, csum, wsum))
                    if remote:
                        n_remote += 1
                        n_values += csum.size + wsum.size
                    else:
                        n_local += 1
            if restrict_items:
                apply_restrictions(dst, restrict_items)
        self._apply_bc()
        return {
            "status": "ok", "n_messages": n_remote,
            "n_values": n_values, "n_local": n_local,
        }

    @phase_effect("exch2-gather")
    def exch2_gather(self, cmd: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Read-only half of stage 2: gather bordered coarse sources.

        When the supervisor asks (``payload={"verify": True}`` — the
        scrub tier is on), the worker CRC-tags every gathered payload;
        :meth:`exch2_write` re-checks the tags before prolonging, so a
        bit flipped in the staging buffers between the two phases is
        caught before it ever reaches a ghost region.
        """
        order = self.topology.prolong_order
        n_remote = 0
        n_values = 0
        n_local = 0
        payloads: List[np.ndarray] = []
        for bid, offset, transfers in self.plan:
            if self.assignment.get(bid) != self.rank:
                continue
            for t in transfers:
                if t.delta >= 0:
                    continue
                src = self.blocks[t.src_id]
                border = prolongation_border(-t.delta, order)
                payload = gather_bordered(src, t.src_box, border)
                payloads.append(payload)
                if self.assignment[t.src_id] != self.rank:
                    n_remote += 1
                    n_values += payload.size
                else:
                    n_local += 1
        self._payloads = payloads
        if cmd is not None and cmd.get("verify"):
            self._payload_crcs = [content_crc(p) for p in payloads]
        else:
            self._payload_crcs = []
        return {
            "status": "ok", "n_messages": n_remote,
            "n_values": n_values, "n_local": n_local,
            "n_payloads": len(payloads),
        }

    @phase_effect("exch2-write")
    def exch2_write(self, cmd: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Write half of stage 2: prolong gathered payloads, then BCs.

        Scripted staging bitflips addressed to this rank are applied
        first (after the gather-side CRC tags were taken), then every
        payload is re-checked against its tag: a mismatched payload is
        *not* prolonged — the corruption stays contained in the staging
        buffer — and its index is reported back so the supervisor can
        raise the corruption for the recovery ladder.
        """
        ndim = self.topology.ndim
        order = self.topology.prolong_order
        payloads = self._payloads
        if cmd is not None and payloads:
            for f in cmd.get("flips", ()):
                if int(f["rank"]) == self.rank:
                    apply_bitflip(
                        payloads[int(f["index"]) % len(payloads)],
                        f["byte"], f["bit"],
                    )
        bad = set()
        if self._payload_crcs:
            bad = {
                i for i, p in enumerate(payloads)
                if content_crc(p) != self._payload_crcs[i]
            }
        i = 0
        for bid, offset, transfers in self.plan:
            if self.assignment.get(bid) != self.rank:
                continue
            dst = self.blocks[bid]
            for t in transfers:
                if t.delta >= 0:
                    continue
                if i in bad:
                    i += 1
                    continue
                up = -t.delta
                fine = prolong_bordered(payloads[i], t.src_box, up, order, ndim)
                i += 1
                cover = t.src_box.refined(up).shift(_neg(t.shift))
                sub = t.dst_box.slices(cover.lo)
                dst.view(t.dst_box)[...] = fine[(slice(None),) + sub]
        self._payloads = []
        self._payload_crcs = []
        self._apply_bc()
        body: Dict[str, Any] = {"status": "ok", "n_prolonged": i}
        if bad:
            body["staging_bad"] = sorted(bad)
        return body

    # -- compute phases -------------------------------------------------

    @phase_effect("step")
    def step_single(self, dt: float) -> Dict[str, Any]:
        g = self.topology.n_ghost
        for block in self.own_blocks():
            self.scheme.step(block.data, block.dx, dt, g)
        return {"status": "ok"}

    @phase_effect("predictor")
    def predictor(self, dt: float) -> Dict[str, Any]:
        g = self.topology.n_ghost
        for block in self.own_blocks():
            self.saved[block.id] = block.interior.copy()
            self.scheme.step(block.data, block.dx, 0.5 * dt, g)
        return {"status": "ok"}

    @phase_effect("corrector")
    def corrector(self, dt: float) -> Dict[str, Any]:
        g = self.topology.n_ghost
        for block in self.own_blocks():
            self.scheme.step(block.data, block.dx, dt, g, base=self.saved[block.id])
        self.saved = {}
        return {"status": "ok"}


def _execute(worker: _Worker, msg: Dict[str, Any]) -> Dict[str, Any]:
    op = msg["op"]
    if op == "config":
        return worker.apply_config(msg["payload"])
    if op == "exch1":
        return worker.exch1()
    if op == "exch2-gather":
        return worker.exch2_gather(msg.get("payload"))
    if op == "exch2-write":
        return worker.exch2_write(msg.get("payload"))
    if op == "step":
        return worker.step_single(msg["dt"])
    if op == "predictor":
        return worker.predictor(msg["dt"])
    if op == "corrector":
        return worker.corrector(msg["dt"])
    if op == "shutdown":
        return {"status": "ok"}
    raise ValueError(f"unknown worker op {op!r}")


def worker_main(spec: WorkerSpec) -> None:
    """Entry point of one rank process (the fork target)."""
    from repro.parallel.supervisor import reply_crc

    # Close inherited control pipes of other ranks: otherwise siblings
    # keep each other's (and the dead supervisor's) pipe ends open and
    # orphaned workers never see EOF.
    for conn in spec.inherited:
        conn.close()
    heartbeat = _Heartbeat(
        spec.heartbeat_name, spec.rank, spec.heartbeat_interval
    )
    heartbeat.start()
    worker = _Worker(spec)
    cached: Optional[Dict[str, Any]] = None
    last_seq = -1

    def send_reply(seq: int, body: Dict[str, Any], *, garbled: bool) -> Dict[str, Any]:
        reply = {
            "seq": seq,
            "rank": spec.rank,
            "body": body,
            "crc": reply_crc(body, seq, spec.rank) + (1 if garbled else 0),
        }
        spec.conn.send(reply)
        return reply

    try:
        # Bootstrap: apply the config carried through the fork and
        # acknowledge it — this reply is the spawn handshake.
        boot_seq = int(spec.config["seq"])
        boot_body = worker.apply_config(spec.config["payload"])
        cached = {
            "seq": boot_seq,
            "rank": spec.rank,
            "body": boot_body,
            "crc": reply_crc(boot_body, boot_seq, spec.rank),
        }
        last_seq = boot_seq
        spec.conn.send(cached)
        while True:
            try:
                msg = spec.conn.recv()
            except EOFError:
                break  # supervisor is gone; die quietly
            op = msg.get("op")
            if op == "resend":
                if msg.get("seq") == last_seq and cached is not None:
                    spec.conn.send(cached)
                continue
            seq = int(msg["seq"])
            if seq == last_seq and cached is not None:
                spec.conn.send(cached)  # duplicate command: idempotent
                continue
            body = _execute(worker, msg)
            step = int(msg.get("step", -1))
            action = worker.hooks.pop((step, str(op)), None)
            if action == "exit":
                heartbeat.stop()
                return  # clean exit without replying
            if action == "hang":
                heartbeat.paused.set()
                time.sleep(600.0)  # wedged: the supervisor must kill us
            if action is not None and action.startswith("slow:"):
                time.sleep(float(action.split(":", 1)[1]))
            if action == "mute":
                # Compute and cache the reply but never send it — the
                # supervisor's resend probe recovers it.
                cached = {
                    "seq": seq, "rank": spec.rank, "body": body,
                    "crc": reply_crc(body, seq, spec.rank),
                }
                last_seq = seq
                continue
            if action == "garble-forever":
                # Corrupt this reply and every future resend of it.
                cached = send_reply(seq, body, garbled=True)
                last_seq = seq
                continue
            garbled_once = action == "garble"
            good = {
                "seq": seq, "rank": spec.rank, "body": body,
                "crc": reply_crc(body, seq, spec.rank),
            }
            if garbled_once:
                send_reply(seq, body, garbled=True)
            else:
                spec.conn.send(good)
            cached = good  # resends always carry the intact reply
            last_seq = seq
            if op == "shutdown":
                break
    finally:
        heartbeat.stop()
        # Drop every Block view before closing the mappings, otherwise
        # the exported-pointer check keeps the segments pinned.
        worker.blocks = {}
        worker.saved = {}
        worker._payloads = []
        for seg in worker.segments.values():
            seg.destroy()
        spec.conn.close()
