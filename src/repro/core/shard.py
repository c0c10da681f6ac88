"""Distributed campaign service: sharded journals over a shared filesystem.

``repro matrix`` (the experiment-matrix runner) drives a whole grid from
one host, so a single slow ISA×workload cell serializes the tail and a
host crash loses the in-flight batch.  This module promotes the matrix to
a *service* whose only coordination substrate is the filesystem the
journals already live on — no broker, no sockets, no database:

* **plan** — the coordinator (``repro serve``) splits every grid cell's
  mask-index range ``[0, faults)`` into fixed-size *shards* and writes one
  immutable ``plan.json`` (plus a byte-exact copy of the grid TOML so any
  worker re-derives the identical :class:`~repro.core.matrix.MatrixGrid`);
* **leases** — any number of workers (``repro work``), on one host or many
  sharing a filesystem, claim shards by atomically creating
  ``leases/<shard>.json`` (``os.link`` of a fully-written temp file, which
  is exclusive even on NFS) and renew it ahead of a wall-clock deadline;
* **generation-fenced shard journals** — a claim at generation *g* appends
  records only to ``shards/<shard>.g<g>.jsonl``.  Every (shard,
  generation) journal has exactly one writer *ever*, so a zombie worker
  that lost its lease but keeps simulating can never corrupt a file the
  new owner writes — the worst a race costs is duplicated work, and the
  duplicate records are byte-identical because fault simulation is
  deterministic;
* **crash recovery** — an expired lease is reclaimed at generation
  ``g+1``: the torn tail the dead worker left is repaired with
  :func:`~repro.core.journal.repair_torn_tail` and every completed record
  from older generations is *skipped, not re-simulated*;
* **work stealing** — an idle worker writes ``leases/<shard>.steal``
  (exclusive create); the owner answers by publishing a child shard
  descriptor for the back half of its remaining range and shrinking its
  own effective range.  The descriptor is written *before* the owner
  shortens its loop, and :meth:`ShardStore.effective_stop` truncates any
  shard at the start of a same-cell shard inside its range, so a crash
  between the two steps can never orphan a mask range;
* **graceful degradation** — every store touch goes through
  :func:`~repro.core.supervisor.run_with_retry`; a worker whose filesystem
  disappears retries with backoff, then exits cleanly with its lease left
  to expire for someone else (:class:`StoreDegraded`);
* **byte-identical merge** — :func:`merge_shards` reconstructs each
  canonical ``cells/<key>.jsonl`` from the *raw line bytes* of the shard
  journals (mask-id ordered, fingerprint-verified, adaptive stop
  re-derived), so the merged output is byte-for-byte what a single-host
  serial ``repro matrix`` run would have written and every downstream
  consumer — telemetry fold, resume, report — is untouched.

Everything observable (lease expirations, stolen shards, merge conflicts)
is *folded purely from the files* by :func:`fold_shard_counters`, so live
and replayed telemetry agree by construction.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.journal import (
    CampaignJournal,
    JournalError,
    raw_journal_lines,
    repair_torn_tail,
)
from repro.core.campaign import _worker, _worker_init, open_cell
from repro.core.matrix import (
    MatrixGrid,
    adaptive_to_dict,
    load_grid,
    manifest_text,
)
from repro.core.sampling import AdaptiveSampling, error_margin_for, stop_decision
from repro.core.sanitizer import DEFAULT_HANG_CYCLES
from repro.core.supervisor import SupervisorPolicy, run_with_retry

PLAN_VERSION = 1
DEFAULT_SHARD_SIZE = 25
DEFAULT_TTL_S = 60.0
#: an owner keeps ranges smaller than this rather than splitting them
MIN_STEAL_RANGE = 2

_GEN_RE = re.compile(r"\.g(\d+)\.jsonl$")


class ShardError(RuntimeError):
    """A shard plan or output directory cannot be used."""


class StoreDegraded(ShardError):
    """The shared filesystem stopped answering; the worker must exit."""


# --------------------------------------------------------------------------
# shard planning
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One claimable unit of work: a mask-index range of one cell."""

    id: str
    cell: str
    start: int
    stop: int
    stolen_from: str | None = None

    def to_dict(self) -> dict:
        doc = {"id": self.id, "cell": self.cell,
               "start": self.start, "stop": self.stop}
        if self.stolen_from is not None:
            doc["stolen_from"] = self.stolen_from
        return doc


def shard_name(cell: str, start: int, stop: int) -> str:
    return f"{cell}@{start}-{stop}"


def plan_shards(grid: MatrixGrid,
                shard_size: int = DEFAULT_SHARD_SIZE) -> list[ShardSpec]:
    """Tile every cell's budget into shards, interleaved round-robin.

    Round-robin interleaving (first shard of every cell, then second of
    every cell, ...) means workers claiming in plan order spread across
    cells instead of queueing on the first one — the same anti-starvation
    order the single-host matrix queue uses.
    """
    if shard_size < 1:
        raise ShardError(f"shard_size must be >= 1: {shard_size}")
    per_cell: list[list[ShardSpec]] = []
    for cell in grid.cells:
        budget = int(cell.spec.faults)
        tiles = []
        for start in range(0, budget, shard_size):
            stop = min(start + shard_size, budget)
            tiles.append(ShardSpec(
                id=shard_name(cell.key, start, stop),
                cell=cell.key, start=start, stop=stop,
            ))
        per_cell.append(tiles)
    shards: list[ShardSpec] = []
    depth = max((len(t) for t in per_cell), default=0)
    for i in range(depth):
        for tiles in per_cell:
            if i < len(tiles):
                shards.append(tiles[i])
    return shards


# --------------------------------------------------------------------------
# the filesystem store (leases, shard journals, markers)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Lease:
    """Proof of a successful claim: (shard, generation) names our journal."""

    shard: str
    worker: str
    gen: int
    deadline: float
    ttl_s: float


class ShardStore:
    """All distributed-campaign filesystem state under one output directory.

    Layout::

        <out>/grid.toml                   byte-exact copy of the grid file
        <out>/plan.json                   immutable shard plan
        <out>/leases/<shard>.json         live lease (atomic link/replace)
        <out>/leases/<shard>.steal        pending steal request
        <out>/shards/<shard>.g<N>.jsonl   per-(shard, generation) journal
        <out>/shards/<shard>.done.json    completion marker
        <out>/shards/<shard>.shard.json   dynamic (stolen) shard descriptor
        <out>/shards/<cell>.meta.json     derived cell facts (budget, bits)
        <out>/shards/<cell>.cancel.json   adaptive stop: skip work past it
        <out>/cells/<cell>.jsonl          canonical merged journal
        <out>/manifest.json               matrix-compatible manifest

    Every mutation is either an atomic rename of a fully-written temp file
    or an exclusive ``os.link``/``O_EXCL`` create, so no reader ever sees a
    half-written coordination file; journals are append-only and torn-tail
    tolerant like every other journal in the project.
    """

    def __init__(self, out_dir: str | Path, worker_id: str | None = None,
                 *, clock=time.time, sleep=time.sleep,
                 io_attempts: int = 5,
                 io_policy: SupervisorPolicy | None = None):
        self.out_dir = Path(out_dir)
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.clock = clock
        self.sleep = sleep
        self.io_attempts = io_attempts
        self.io_policy = io_policy or SupervisorPolicy(backoff_base_s=0.05,
                                                       backoff_cap_s=1.0)
        self._tmp_seq = 0

    # ------------------------------------------------------------ paths

    @property
    def plan_path(self) -> Path:
        return self.out_dir / "plan.json"

    @property
    def grid_path(self) -> Path:
        return self.out_dir / "grid.toml"

    @property
    def leases_dir(self) -> Path:
        return self.out_dir / "leases"

    @property
    def shards_dir(self) -> Path:
        return self.out_dir / "shards"

    @property
    def cells_dir(self) -> Path:
        return self.out_dir / "cells"

    def lease_path(self, shard_id: str) -> Path:
        return self.leases_dir / f"{shard_id}.json"

    def steal_path(self, shard_id: str) -> Path:
        return self.leases_dir / f"{shard_id}.steal"

    def gen_path(self, shard_id: str, gen: int) -> Path:
        return self.shards_dir / f"{shard_id}.g{gen}.jsonl"

    def done_path(self, shard_id: str) -> Path:
        return self.shards_dir / f"{shard_id}.done.json"

    def descriptor_path(self, shard_id: str) -> Path:
        return self.shards_dir / f"{shard_id}.shard.json"

    def meta_path(self, cell_key: str) -> Path:
        return self.shards_dir / f"{cell_key}.meta.json"

    def cancel_path(self, cell_key: str) -> Path:
        return self.shards_dir / f"{cell_key}.cancel.json"

    # ------------------------------------------------------------ io plumbing

    def _io(self, fn, passthrough: tuple = (FileExistsError,
                                            FileNotFoundError)):
        """Run one filesystem touch with bounded retry → :class:`StoreDegraded`.

        ``FileExistsError`` / ``FileNotFoundError`` are lease-protocol
        verdicts (lost race, reclaimed lease) and re-raise immediately.
        """
        try:
            return run_with_retry(fn, attempts=self.io_attempts,
                                  policy=self.io_policy, retry_on=(OSError,),
                                  passthrough=passthrough, sleep=self.sleep)
        except (FileExistsError, FileNotFoundError):
            raise
        except OSError as exc:
            raise StoreDegraded(
                f"filesystem unavailable after {self.io_attempts} attempts: "
                f"{type(exc).__name__}: {exc}") from exc

    def _tmp_name(self, directory: Path) -> Path:
        self._tmp_seq += 1
        return directory / f".tmp.{self.worker_id}.{self._tmp_seq}"

    def _write_atomic(self, path: Path, doc: dict) -> None:
        def write() -> None:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self._tmp_name(path.parent)
            tmp.write_text(json.dumps(doc, sort_keys=True) + "\n")
            os.replace(tmp, path)
        self._io(write, passthrough=())

    def _write_exclusive(self, path: Path, doc: dict) -> bool:
        """Exclusive create via link(2); False when someone else won."""
        def create() -> bool:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self._tmp_name(path.parent)
            tmp.write_text(json.dumps(doc, sort_keys=True) + "\n")
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
            finally:
                os.unlink(tmp)
            return True
        return self._io(create, passthrough=())

    def _read_json(self, path: Path) -> dict | None:
        def read():
            try:
                text = path.read_text()
            except FileNotFoundError:
                return None
            try:
                return json.loads(text)
            except json.JSONDecodeError:
                return None              # half-dead file: treat as absent
        return self._io(read, passthrough=())

    # ------------------------------------------------------------ the plan

    def init_plan(self, grid: MatrixGrid, *,
                  shard_size: int = DEFAULT_SHARD_SIZE,
                  ttl_s: float = DEFAULT_TTL_S) -> dict:
        """Write the immutable plan (idempotent for coordinator restarts)."""
        existing = self._read_json(self.plan_path)
        if existing is not None:
            if existing.get("fingerprint") != grid.fingerprint:
                raise ShardError(
                    f"{self.out_dir} holds a plan for a different grid "
                    f"({existing.get('name')!r}); refusing to mix")
            return existing
        doc = {
            "kind": "shard-plan",
            "version": PLAN_VERSION,
            "name": grid.name,
            "fingerprint": grid.fingerprint,
            "shard_size": int(shard_size),
            "ttl_s": float(ttl_s),
            "clock_hz": grid.clock_hz,
            "adaptive": adaptive_to_dict(grid.adaptive),
            "cells": {
                c.key: {"kind": c.kind, "row": c.row, "col": c.col,
                        "budget": int(c.spec.faults)}
                for c in grid.cells
            },
            "shards": [s.to_dict() for s in plan_shards(grid, shard_size)],
        }
        if not self._write_exclusive(self.plan_path, doc):
            return self.init_plan(grid, shard_size=shard_size, ttl_s=ttl_s)
        return doc

    def load_plan(self, wait_s: float = 0.0, poll_s: float = 0.2) -> dict:
        """Read the plan, optionally waiting for the coordinator to write it."""
        deadline = self.clock() + wait_s
        while True:
            doc = self._read_json(self.plan_path)
            if doc is not None:
                if doc.get("kind") != "shard-plan":
                    raise ShardError(f"{self.plan_path}: not a shard plan")
                if doc.get("version") != PLAN_VERSION:
                    raise ShardError(
                        f"{self.plan_path}: plan version "
                        f"{doc.get('version')} != {PLAN_VERSION}")
                return doc
            if self.clock() >= deadline:
                raise ShardError(f"{self.plan_path}: no shard plan")
            self.sleep(poll_s)

    # ------------------------------------------------------------ shard sets

    def dynamic_shards(self) -> list[ShardSpec]:
        """Stolen-child descriptors published after planning, stable order."""
        def scan() -> list[Path]:
            if not self.shards_dir.exists():
                return []
            return sorted(self.shards_dir.glob("*.shard.json"))
        shards = []
        for path in self._io(scan, passthrough=()):
            doc = self._read_json(path)
            if not doc:
                continue
            shards.append(ShardSpec(
                id=doc["id"], cell=doc["cell"], start=int(doc["start"]),
                stop=int(doc["stop"]), stolen_from=doc.get("stolen_from"),
            ))
        return shards

    def all_shards(self, plan: dict) -> list[ShardSpec]:
        static = [
            ShardSpec(id=s["id"], cell=s["cell"], start=int(s["start"]),
                      stop=int(s["stop"]))
            for s in plan.get("shards", ())
        ]
        return static + self.dynamic_shards()

    @staticmethod
    def effective_stop(shard: ShardSpec, shards: list[ShardSpec]) -> int:
        """The shard's range end after any splits published inside it.

        A shard is truncated at the start of *any* same-cell shard that
        begins strictly inside its range.  Publishing a child descriptor
        therefore shrinks the parent everywhere at once — which is what
        makes descriptor-first split ordering crash-safe.
        """
        stop = shard.stop
        for other in shards:
            if (other.cell == shard.cell
                    and shard.start < other.start < stop):
                stop = other.start
        return stop

    def journal_gens(self, shard_id: str) -> list[int]:
        """Generations with an on-disk journal for this shard, ascending."""
        def scan() -> list[Path]:
            if not self.shards_dir.exists():
                return []
            return list(self.shards_dir.glob(f"{shard_id}.g*.jsonl"))
        gens = []
        prefix = f"{shard_id}.g"
        for path in self._io(scan, passthrough=()):
            if not path.name.startswith(prefix):
                continue                 # glob '*' crossed into another id
            m = _GEN_RE.search(path.name)
            if m and path.name == f"{shard_id}.g{m.group(1)}.jsonl":
                gens.append(int(m.group(1)))
        return sorted(gens)

    def done_ids(self) -> set[str]:
        def scan() -> list[Path]:
            if not self.shards_dir.exists():
                return []
            return list(self.shards_dir.glob("*.done.json"))
        return {p.name[:-len(".done.json")]
                for p in self._io(scan, passthrough=())}

    def read_done(self, shard_id: str) -> dict | None:
        return self._read_json(self.done_path(shard_id))

    # ------------------------------------------------------------ leases

    def read_lease(self, shard_id: str) -> dict | None:
        return self._read_json(self.lease_path(shard_id))

    def try_claim(self, shard: ShardSpec, ttl_s: float) -> Lease | None:
        """Claim the shard, reclaiming an expired lease; None on any loss.

        Fresh claims and reclaims both end in the exclusive-link create, so
        two workers racing for the same shard get exactly one winner.  The
        claim's generation is one past every generation ever observed (on
        disk or in the expired lease), which fences the journals: whatever
        a not-quite-dead previous owner still appends lands in an *older*
        generation file the merge will simply dedup against.
        """
        path = self.lease_path(shard.id)
        expired_gen = 0
        current = self._read_json(path)
        if current is not None:
            if float(current.get("deadline", 0)) > self.clock():
                return None              # held by a live worker
            expired_gen = int(current.get("gen", 0))
            try:
                self._io(lambda: os.unlink(path))
            except FileNotFoundError:
                return None              # another reclaimer got here first
        elif self._io(path.exists, passthrough=()):
            # present but unparseable: a corrupt lease never blocks forever
            try:
                self._io(lambda: os.unlink(path))
            except FileNotFoundError:
                return None
        gen = max(self.journal_gens(shard.id) + [expired_gen], default=0) + 1
        deadline = self.clock() + ttl_s
        doc = {"kind": "lease", "shard": shard.id, "worker": self.worker_id,
               "gen": gen, "deadline": deadline, "ttl_s": ttl_s}
        if not self._write_exclusive(path, doc):
            return None
        return Lease(shard=shard.id, worker=self.worker_id, gen=gen,
                     deadline=deadline, ttl_s=ttl_s)

    def renew(self, lease: Lease) -> Lease | None:
        """Extend our lease; None when it is no longer ours to extend.

        A renewal past the deadline is refused locally even if the file
        still names us: someone may be reclaiming it right now, and the
        generation fence makes bowing out strictly safer than racing.
        """
        now = self.clock()
        if now >= lease.deadline:
            return None
        current = self._read_json(self.lease_path(lease.shard))
        if (not current or current.get("worker") != self.worker_id
                or int(current.get("gen", -1)) != lease.gen):
            return None
        deadline = now + lease.ttl_s
        self._write_atomic(self.lease_path(lease.shard), {
            "kind": "lease", "shard": lease.shard, "worker": self.worker_id,
            "gen": lease.gen, "deadline": deadline, "ttl_s": lease.ttl_s,
        })
        return Lease(shard=lease.shard, worker=self.worker_id, gen=lease.gen,
                     deadline=deadline, ttl_s=lease.ttl_s)

    def release(self, lease: Lease, *, stop: int, records: int) -> None:
        """Publish the completion marker, then drop the lease."""
        self._write_atomic(self.done_path(lease.shard), {
            "kind": "shard-done", "shard": lease.shard, "gen": lease.gen,
            "worker": self.worker_id, "stop": int(stop),
            "records": int(records),
        })
        current = self._read_json(self.lease_path(lease.shard))
        if current and current.get("worker") == self.worker_id \
                and int(current.get("gen", -1)) == lease.gen:
            try:
                self._io(lambda: os.unlink(self.lease_path(lease.shard)))
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------ stealing

    def request_steal(self, shard_id: str) -> bool:
        return self._write_exclusive(self.steal_path(shard_id),
                                     {"kind": "steal", "by": self.worker_id})

    def read_steal(self, shard_id: str) -> dict | None:
        return self._read_json(self.steal_path(shard_id))

    def clear_steal(self, shard_id: str) -> None:
        try:
            self._io(lambda: os.unlink(self.steal_path(shard_id)))
        except FileNotFoundError:
            pass

    def publish_split(self, parent: ShardSpec, split_at: int,
                      stop: int) -> ShardSpec:
        """Give ``[split_at, stop)`` away as a new claimable child shard.

        The descriptor lands on disk *before* the caller shortens its own
        loop; :meth:`effective_stop` already truncates the parent at the
        child's start, so a crash straight after this call loses nothing
        and duplicates at most the one fault in flight.
        """
        child = ShardSpec(
            id=shard_name(parent.cell, split_at, stop), cell=parent.cell,
            start=split_at, stop=stop, stolen_from=parent.id,
        )
        doc = child.to_dict()
        doc["kind"] = "shard"
        doc["by"] = self.worker_id
        self._write_atomic(self.descriptor_path(child.id), doc)
        self.clear_steal(parent.id)
        return child

    # ------------------------------------------------------------ cell markers

    def write_meta(self, cell_key: str, doc: dict) -> None:
        body = {"kind": "cell-meta", "cell": cell_key, **doc}
        self._write_exclusive(self.meta_path(cell_key), body)

    def read_meta(self, cell_key: str) -> dict | None:
        return self._read_json(self.meta_path(cell_key))

    def write_cancel(self, cell_key: str, stop_at: int) -> None:
        self._write_atomic(self.cancel_path(cell_key), {
            "kind": "cell-cancel", "cell": cell_key, "stop_at": int(stop_at),
        })

    def read_cancel(self, cell_key: str) -> int | None:
        doc = self._read_json(self.cancel_path(cell_key))
        if doc is None:
            return None
        return int(doc.get("stop_at", 0))


# --------------------------------------------------------------------------
# the worker
# --------------------------------------------------------------------------


@dataclass
class WorkerResult:
    """What one ``repro work`` invocation accomplished."""

    worker: str
    shards_completed: int = 0
    faults_run: int = 0
    resumed: int = 0                 # positions satisfied from older gens
    reclaims: int = 0                # shards taken over at generation > 1
    splits_published: int = 0        # steal requests this worker answered
    steals_requested: int = 0
    degraded: bool = False           # exited because the store disappeared


class _LeaseLost(Exception):
    """Internal: our lease expired mid-shard; abandon without releasing."""


def run_worker(
    out_dir: str | Path,
    *,
    worker_id: str | None = None,
    checkpoints=None,
    sanitizer=None,
    hang_cycles: int = DEFAULT_HANG_CYCLES,
    poll_s: float = 0.5,
    plan_wait_s: float = 60.0,
    max_shards: int | None = None,
    on_fault=None,
    store: ShardStore | None = None,
) -> WorkerResult:
    """Claim and run shards until the campaign has no work left.

    ``on_fault(shard_id, position)`` is a pre-simulation hook for the chaos
    harness — raising from it models a worker dying mid-shard with the
    journal flushed up to the previous record, exactly like a SIGKILL.
    """
    from repro.core.checkpoint import DEFAULT_POLICY

    store = store or ShardStore(out_dir, worker_id=worker_id)
    result = WorkerResult(worker=store.worker_id)
    ckpt = checkpoints if checkpoints is not None else DEFAULT_POLICY
    try:
        plan = store.load_plan(wait_s=plan_wait_s)
        grid = load_grid(store.grid_path)
        if grid.fingerprint != plan.get("fingerprint"):
            raise ShardError(
                f"{store.grid_path} does not match the shard plan "
                "(grid edited after planning?)")
        cells = {c.key: c for c in grid.cells}
        ttl_s = float(plan.get("ttl_s", DEFAULT_TTL_S))
        _worker_init(ckpt, sanitizer, hang_cycles)
        runtimes: dict = {}
        requested: set[str] = set()

        while True:
            if max_shards is not None \
                    and result.shards_completed >= max_shards:
                break
            shards = store.all_shards(plan)
            done = store.done_ids()
            todo = [s for s in shards if s.id not in done]
            if not todo:
                break
            # rotate the claim order per worker so a fleet spreads out
            # instead of stampeding the same lease
            offset = hash(store.worker_id) % len(todo)
            claimed = None
            for shard in todo[offset:] + todo[:offset]:
                lease = store.try_claim(shard, ttl_s)
                if lease is not None:
                    claimed = (shard, lease)
                    break
            if claimed is None:
                _maybe_request_steal(store, plan, todo, requested, result)
                store.sleep(poll_s)
                continue
            shard, lease = claimed
            if lease.gen > 1:
                result.reclaims += 1
            try:
                _run_shard(store, plan, cells[shard.cell], shard, lease,
                           runtimes, ckpt, result, on_fault=on_fault)
            except _LeaseLost:
                continue                 # someone else owns it now
    except StoreDegraded:
        result.degraded = True
    return result


def _maybe_request_steal(store: ShardStore, plan: dict,
                         todo: list[ShardSpec], requested: set[str],
                         result: WorkerResult) -> None:
    """Idle with nothing claimable: ask the busiest straggler to split."""
    shards = store.all_shards(plan)
    best, best_remaining = None, MIN_STEAL_RANGE
    for shard in todo:
        lease = store.read_lease(shard.id)
        if lease is None or shard.id in requested:
            continue
        if store.read_steal(shard.id) is not None:
            continue
        eff = store.effective_stop(shard, shards)
        finished = 0
        for gen in store.journal_gens(shard.id):
            _h, lines = raw_journal_lines(store.gen_path(shard.id, gen))
            finished += len(lines)
        remaining = eff - shard.start - finished
        if remaining > best_remaining:
            best, best_remaining = shard, remaining
    if best is not None and store.request_steal(best.id):
        requested.add(best.id)
        result.steals_requested += 1


def _run_shard(store: ShardStore, plan: dict, cell, shard: ShardSpec,
               lease: Lease, runtimes: dict, ckpt, result: WorkerResult,
               on_fault=None) -> None:
    """Execute one claimed shard: resume, heartbeat, split, journal, release."""
    runtime = runtimes.get(cell.key)
    if runtime is None:
        runtime = runtimes[cell.key] = open_cell(cell.spec, checkpoints=ckpt)
        store.write_meta(cell.key, {
            "budget": len(runtime.masks),
            "population_bits": runtime.population_bits,
            "timeout_s": runtime.timeout_s,
        })
    masks = runtime.masks
    budget = len(masks)
    spec = cell.spec

    # everything completed by previous generations is evidence, not work
    done_records: set[int] = set()
    for gen in store.journal_gens(shard.id):
        if gen >= lease.gen:
            continue
        path = store.gen_path(shard.id, gen)
        store._io(lambda p=path: repair_torn_tail(p), passthrough=())
        try:
            for record in CampaignJournal.load(path, spec):
                mid = record.mask.mask_id
                if 0 <= mid < budget and masks[mid] == record.mask:
                    done_records.add(mid)
        except JournalError:
            continue                     # foreign/garbled gen: ignore it

    # create our generation's journal immediately: its existence is what
    # the telemetry fold counts, so live and replayed expiration counters
    # agree even for a claim that dies before its first record
    def open_journal():
        return CampaignJournal.open(store.gen_path(shard.id, lease.gen), spec)
    journal = store._io(open_journal, passthrough=())

    appended = 0
    try:
        i = shard.start
        while True:
            shards = store.all_shards(plan)
            eff = min(store.effective_stop(shard, shards), budget)
            cancel = store.read_cancel(cell.key)
            if cancel is not None:
                eff = min(eff, max(shard.start, cancel))
            if i >= eff:
                break
            if store.read_steal(shard.id) is not None:
                remaining = eff - i
                if remaining >= MIN_STEAL_RANGE:
                    split_at = i + (remaining + 1) // 2
                    store.publish_split(shard, split_at, eff)
                    result.splits_published += 1
                    eff = split_at
                    if i >= eff:
                        break
                else:
                    store.clear_steal(shard.id)
            now = store.clock()
            if now >= lease.deadline - 2 * lease.ttl_s / 3:
                renewed = store.renew(lease)
                if renewed is None:
                    raise _LeaseLost(shard.id)
                lease = renewed
            if i in done_records:
                result.resumed += 1
                i += 1
                continue
            if on_fault is not None:
                on_fault(shard.id, i)
            record = _worker((spec, masks[i]))
            store._io(lambda r=record: journal.append(r), passthrough=())
            appended += 1
            result.faults_run += 1
            i += 1
        final_stop = i
    finally:
        journal.close()
    store.release(lease, stop=final_stop, records=appended)
    result.shards_completed += 1


# --------------------------------------------------------------------------
# the merge
# --------------------------------------------------------------------------


@dataclass
class MergeResult:
    """Outcome of reconstructing canonical cell journals from shards."""

    cells: dict = field(default_factory=dict)
    complete: bool = True
    conflicts: int = 0
    manifest_path: Path | None = None


def _collect_cell_lines(store: ShardStore, cell_key: str,
                        shards: list[ShardSpec]):
    """Union every shard generation's raw lines for one cell.

    Returns ``(header, chosen, conflict_ids)`` where ``chosen`` maps
    mask_id to the winning raw line.  Winner rule: highest generation,
    then lowest shard start — deterministic whatever order the files are
    scanned in.  ``conflict_ids`` is every mask_id that appeared with two
    byte-different lines (deterministic simulation makes that impossible
    unless something else is wrong, which is exactly why it is counted).
    """
    header: bytes | None = None
    chosen: dict[int, tuple[int, int, bytes]] = {}
    conflict_ids: set[int] = set()
    for shard in shards:
        if shard.cell != cell_key:
            continue
        for gen in store.journal_gens(shard.id):
            h, lines = raw_journal_lines(store.gen_path(shard.id, gen))
            if h is not None:
                if header is None:
                    header = h
                elif h != header:
                    raise ShardError(
                        f"shard journals of cell {cell_key!r} carry "
                        "different headers; the output directory mixes "
                        "campaigns")
            for mask_id, line in lines:
                prev = chosen.get(mask_id)
                if prev is None:
                    chosen[mask_id] = (gen, shard.start, line)
                    continue
                if prev[2] != line:
                    conflict_ids.add(mask_id)
                if (gen, -shard.start) > (prev[0], -prev[1]):
                    chosen[mask_id] = (gen, shard.start, line)
    return header, chosen, conflict_ids


def merge_shards(out_dir: str | Path, *,
                 store: ShardStore | None = None) -> MergeResult:
    """Rebuild canonical ``cells/*.jsonl`` byte-identically from the shards.

    Raw header and record lines are copied, never re-serialized, so a
    complete cell's merged journal is byte-for-byte the file a single-host
    serial ``repro matrix`` run would have written — ``cmp``-provable.
    Cells whose contiguous prefix has not yet reached their (re-derived)
    stop are reported ``running`` and left unwritten.  Also rewrites a
    matrix-compatible ``manifest.json`` so ``repro matrix --resume``,
    ``repro tail`` and the report renderer work on the merged directory
    unchanged.
    """
    store = store or ShardStore(out_dir)
    plan = store.load_plan()
    adaptive = (AdaptiveSampling(**plan["adaptive"])
                if plan.get("adaptive") else None)
    shards = store.all_shards(plan)
    result = MergeResult()
    manifest_cells: dict[str, dict] = {}

    for cell_key, declared in plan.get("cells", {}).items():
        meta = store.read_meta(cell_key)
        budget = int(meta["budget"]) if meta else int(declared["budget"])
        population = int(meta["population_bits"]) if meta else None
        header, chosen, conflict_ids = _collect_cell_lines(
            store, cell_key, shards)
        result.conflicts += len(conflict_ids)

        prefix = 0
        while prefix in chosen:
            prefix += 1
        outcomes = [json.loads(chosen[i][2]).get("outcome")
                    for i in range(prefix)]
        # re-derive the adaptive stop from the merged contiguous prefix with
        # the single-host runner's walk, so the merged journal ends at
        # exactly the fault a serial run would have stopped at
        status, stop_at = stop_decision(
            adaptive if population is not None else None, budget, prefix,
            lambda b: sum(1 for o in outcomes[:b] if o != "sim_fault"),
            population)
        stopped_early = status == "converged" and stop_at < budget
        if status == "running":
            stop_at = None

        journal_rel = f"cells/{cell_key}.jsonl"
        entry = {
            "kind": declared["kind"],
            "row": declared["row"],
            "col": declared["col"],
            "journal": journal_rel,
            "status": status,
            "faults_done": prefix if stop_at is None else stop_at,
            "budget": budget,
            "stopped_early": stopped_early,
            "achieved_margin": None,
            "conflicts": len(conflict_ids),
        }
        if stop_at is None or header is None:
            entry["status"] = "running"
            result.complete = False
        else:
            content = header + b"".join(chosen[i][2] for i in range(stop_at))
            path = store.cells_dir / f"{cell_key}.jsonl"

            def write(p=path, body=content) -> None:
                p.parent.mkdir(parents=True, exist_ok=True)
                tmp = store._tmp_name(p.parent)
                tmp.write_bytes(body)
                os.replace(tmp, p)
            store._io(write, passthrough=())
            if population is not None:
                confidence = adaptive.confidence if adaptive else 0.95
                valid = sum(1 for o in outcomes[:stop_at]
                            if o != "sim_fault")
                if valid:
                    entry["achieved_margin"] = error_margin_for(
                        valid, population, confidence)
        manifest_cells[cell_key] = entry
        result.cells[cell_key] = dict(entry)

    text = manifest_text(
        plan.get("name"), plan.get("fingerprint"), plan.get("adaptive"),
        {key: {k: v for k, v in entry.items() if k != "conflicts"}
         for key, entry in manifest_cells.items()},
    )
    manifest_path = store.out_dir / "manifest.json"

    def write_manifest() -> None:
        tmp = store._tmp_name(store.out_dir)
        tmp.write_text(text)
        os.replace(tmp, manifest_path)
    store._io(write_manifest, passthrough=())
    result.manifest_path = manifest_path
    return result


# --------------------------------------------------------------------------
# file-derived telemetry counters
# --------------------------------------------------------------------------


def fold_shard_counters(out_dir: str | Path, *,
                        store: ShardStore | None = None) -> dict:
    """Distributed-campaign counters folded purely from the files.

    * ``lease_expirations`` — one per generation bump: a shard whose
      highest observed generation is *g* was abandoned and reclaimed
      ``g - 1`` times (claims create their generation journal immediately,
      so the fold sees every claim that ever held the lease);
    * ``shards_stolen`` — dynamic child descriptors published by splits;
    * ``merge_conflicts`` — mask_ids that appear with byte-different
      record lines across a cell's shard journals.

    Live telemetry calls this same fold, so live == replayed is a
    tautology rather than a test obligation.
    """
    store = store or ShardStore(out_dir)
    plan = store.load_plan()
    shards = store.all_shards(plan)

    expirations = 0
    for shard in shards:
        gens = store.journal_gens(shard.id)
        top = gens[-1] if gens else 0
        done = store.read_done(shard.id)
        if done is not None:
            top = max(top, int(done.get("gen", 0)))
        lease = store.read_lease(shard.id)
        if lease is not None:
            top = max(top, int(lease.get("gen", 0)))
        expirations += max(0, top - 1)

    stolen = sum(1 for s in shards if s.stolen_from is not None)

    conflicts = 0
    for cell_key in plan.get("cells", {}):
        _header, _chosen, conflict_ids = _collect_cell_lines(
            store, cell_key, shards)
        conflicts += len(conflict_ids)

    return {
        "lease_expirations": expirations,
        "shards_stolen": stolen,
        "merge_conflicts": conflicts,
    }


# --------------------------------------------------------------------------
# directory-wide journal following (repro tail on a matrix output dir)
# --------------------------------------------------------------------------


class DirectoryFollower:
    """Aggregate follower over every journal a matrix output dir grows.

    Watches ``shards/*.g*.jsonl`` *and* ``cells/*.jsonl`` (new files are
    discovered on every poll) and yields each logical record exactly once:
    records are deduplicated on ``(header fingerprint, mask_id)``, so a
    record seen in a shard journal is not double-counted when the merge
    copies its bytes into the canonical cell journal, and a reclaimed
    shard's duplicated work counts once however many generations carry it.
    """

    def __init__(self, out_dir: str | Path):
        from repro.core.journal import JournalFollower

        self.out_dir = Path(out_dir)
        self._follower_cls = JournalFollower
        self._followers: dict[Path, object] = {}
        self._seen: set[tuple[str, int]] = set()
        self.skipped = 0
        self.duplicates = 0

    def _paths(self) -> list[Path]:
        paths: list[Path] = []
        shards = self.out_dir / "shards"
        cells = self.out_dir / "cells"
        if shards.exists():
            paths.extend(sorted(shards.glob("*.jsonl")))
        if cells.exists():
            paths.extend(sorted(cells.glob("*.jsonl")))
        return paths

    def poll(self) -> list:
        """Every logical record appended anywhere since the last poll."""
        fresh = []
        for path in self._paths():
            follower = self._followers.get(path)
            if follower is None:
                follower = self._followers[path] = self._follower_cls(path)
            before = follower.skipped
            for record in follower.poll():
                fingerprint = (follower.header or {}).get("fingerprint", "")
                key = (fingerprint, record.mask.mask_id)
                if key in self._seen:
                    self.duplicates += 1
                    continue
                self._seen.add(key)
                fresh.append(record)
            self.skipped += follower.skipped - before
        return fresh

    def planned(self) -> int:
        """Total mask budget across the plan's cells (0 when no plan)."""
        try:
            plan = ShardStore(self.out_dir).load_plan()
        except (ShardError, StoreDegraded):
            return 0
        return sum(int(c.get("budget", 0))
                   for c in plan.get("cells", {}).values())


# --------------------------------------------------------------------------
# the coordinator
# --------------------------------------------------------------------------


def _worker_env() -> dict:
    env = dict(os.environ)
    pkg_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    if existing:
        if pkg_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = pkg_root + os.pathsep + existing
    else:
        env["PYTHONPATH"] = pkg_root
    return env


def serve(
    grid_path: str | Path,
    out_dir: str | Path,
    *,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    ttl_s: float = DEFAULT_TTL_S,
    poll_s: float = 0.5,
    stall_timeout_s: float = 900.0,
    max_respawns: int = 3,
    worker_args: tuple = (),
    on_progress=None,
) -> MergeResult:
    """Coordinate a distributed campaign: plan, spawn, watch, cancel, merge.

    Spawns ``workers`` local ``repro work`` subprocesses (``workers=0``
    coordinates externally-launched workers, e.g. other hosts sharing the
    filesystem).  The loop re-merges incrementally: a converged adaptive
    cell gets a cancel marker so workers stop burning budget past the
    stop the serial runner would have taken.  Dead local workers are
    respawned up to ``max_respawns`` times total; the coordinator itself
    is restartable at any point (the plan is idempotent and all progress
    lives in the shard files).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid_src = Path(grid_path)
    store = ShardStore(out)
    grid_bytes = grid_src.read_bytes()
    if store.grid_path.exists():
        if store.grid_path.read_bytes() != grid_bytes:
            raise ShardError(
                f"{store.grid_path} differs from {grid_src}; refusing to mix")
    else:
        tmp = store._tmp_name(out)
        tmp.write_bytes(grid_bytes)
        os.replace(tmp, store.grid_path)
    grid = load_grid(store.grid_path)
    plan = store.init_plan(grid, shard_size=shard_size, ttl_s=ttl_s)

    procs: list[subprocess.Popen] = []
    respawns = 0

    def spawn() -> subprocess.Popen:
        cmd = [sys.executable, "-m", "repro", "work", str(out),
               "--poll", str(poll_s), *worker_args]
        return subprocess.Popen(cmd, env=_worker_env())

    try:
        for _ in range(max(0, workers)):
            procs.append(spawn())

        last_progress = time.monotonic()
        last_state: tuple = ()
        while True:
            merged = merge_shards(out, store=store)
            if plan.get("adaptive"):
                for key, entry in merged.cells.items():
                    if entry["status"] == "converged" \
                            and store.read_cancel(key) is None:
                        store.write_cancel(key, entry["faults_done"])
            done = store.done_ids()
            shards = store.all_shards(plan)
            state = (
                len(done), len(shards),
                tuple(sorted(
                    (p.name, p.stat().st_size)
                    for p in store.shards_dir.glob("*.jsonl")
                )) if store.shards_dir.exists() else (),
            )
            if state != last_state:
                last_state = state
                last_progress = time.monotonic()
            if on_progress is not None:
                on_progress(merged, len(done), len(shards))
            if all(s.id in done for s in shards) and shards:
                break
            if time.monotonic() - last_progress > stall_timeout_s:
                raise ShardError(
                    f"no progress for {stall_timeout_s:.0f}s "
                    f"({len(done)}/{len(shards)} shards done); aborting")
            for i, proc in enumerate(procs):
                code = proc.poll()
                if code is not None and respawns < max_respawns:
                    respawns += 1
                    procs[i] = spawn()
            time.sleep(poll_s)

        final = merge_shards(out, store=store)
        if not final.complete:
            raise ShardError(
                "all shards report done but the merge is incomplete — "
                "run `repro doctor` on the output directory")
        return final
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
