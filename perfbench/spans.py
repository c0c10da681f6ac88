"""In-memory span recorder that wraps the program's public functions.

The benchmark's traced passes install a :class:`Tracer`; it swaps each
wrapped function or method for a recording wrapper and restores the
originals on :meth:`Tracer.remove`.  A span is ``[name, start, end,
parent, info]``: ``parent`` is the index of the span that was open when
the call began (-1 at the top), and ``info`` is whatever the wrapper's
annotate hook extracted from the call's arguments and return value.

Per-cycle methods (``OoOCore.step``, ``CoreAuditor.on_cycle``) are
recorded as a call count and summed time instead of one span per call.
Pool workers forked while a tracer is installed drop it (see
``_forget_in_child``), so worker processes are never traced.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

_clock = time.perf_counter
_ACTIVE: list["Tracer"] = []


def _forget_in_child() -> None:
    for tracer in list(_ACTIVE):
        tracer.remove()


os.register_at_fork(after_in_child=_forget_in_child)


class Tracer:
    """Records spans and per-cycle counters around wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn, annotate=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        cell = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += _clock() - start

        return wrapper

    # ------------------------------------------------------------ install

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, modules, original, name: str, annotate=None) -> None:
        """Wrap ``original`` wherever one of ``modules`` binds it."""
        wrapper = self._span(name, original, annotate)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def method(self, cls, attr: str, name: str, annotate=None) -> None:
        self._set(cls, attr, self._span(name, cls.__dict__[attr], annotate))

    def count(self, cls, attr: str, name: str) -> None:
        self._set(cls, attr, self._counter(name, cls.__dict__[attr]))

    def activate(self) -> None:
        _ACTIVE.append(self)

    def remove(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        if self in _ACTIVE:
            _ACTIVE.remove(self)

    # ------------------------------------------------------------ queries

    def select(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def children(self, index: int, name: str | None = None) -> list[list]:
        return [s for s in self.spans
                if s[3] == index and (name is None or s[0] == name)]

    def dump(self, path: Path) -> None:
        """Write spans and counters as JSON (start/end in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p, _info in self.spans
            ],
            "counters": {k: {"calls": c, "seconds": t}
                         for k, (c, t) in self.counters.items()},
        }
        path.write_text(json.dumps(doc) + "\n")


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.accel import campaign as accel_campaign
    from repro.accel.dataflow import DataflowEngine
    from repro.core import campaign, matrix, shard
    from repro.core.checkpoint import CoreCheckpoint, matches
    from repro.core.journal import CampaignJournal
    from repro.core.sanitizer import CoreAuditor
    from repro.core.supervisor import run_supervised
    from repro.core.telemetry import Telemetry
    from repro.cpu.core import OoOCore

    mods = (campaign, matrix, shard, accel_campaign)

    def fault_info(args, kwargs, record):
        golden = args[2] if len(args) > 2 else kwargs.get("golden")
        return record, golden.cycles if golden is not None else 0

    def finished_info(args, kwargs, _result):
        return (args[1], kwargs.get("wall_s"))

    def golden_info(args, kwargs, golden):
        return (args[0], golden.cycles, golden.result.instructions)

    def run_info(args, kwargs, result):
        return result.cycles

    tracer.function(mods, campaign.compile_workload, "compile_workload")
    tracer.function(mods, campaign.golden_run, "golden_run", golden_info)
    tracer.function(mods, campaign.masks_for_spec, "masks_for_spec")
    # the benchmark's fault probe may stand in campaign.run_one_fault
    for fn in {campaign.run_one_fault, matrix.run_one_fault}:
        tracer.function(mods, fn, "run_one_fault", fault_info)
    tracer.function(mods, matches, "checkpoint.matches")
    tracer.function(mods, run_supervised, "run_supervised")
    tracer.function(mods, accel_campaign.accel_golden, "accel_golden")
    tracer.function(mods, accel_campaign.accel_masks, "accel_masks")
    tracer.function(mods, accel_campaign.run_one_accel_fault,
                    "run_one_accel_fault")
    tracer.function(mods, shard.merge_shards, "merge_shards")
    tracer.method(OoOCore, "run", "OoOCore.run", run_info)
    tracer.method(CoreCheckpoint, "restore_into", "restore_into")
    tracer.method(CampaignJournal, "append", "journal.append")
    tracer.method(Telemetry, "fault_finished", "telemetry.fault_finished",
                  finished_info)
    tracer.method(DataflowEngine, "run", "DataflowEngine.run")
    tracer.count(OoOCore, "step", "OoOCore.step")
    tracer.count(CoreAuditor, "on_cycle", "CoreAuditor.on_cycle")
    tracer.activate()
    return tracer
