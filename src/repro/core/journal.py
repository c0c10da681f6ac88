"""Append-only JSONL run journal for fault-injection campaigns.

A 10k-fault campaign that dies at fault 9,800 — power loss, OOM kill,
Ctrl-C — must not cost 9,800 completed simulations.  The journal records
every :class:`~repro.core.campaign.FaultRecord` as a single JSON line, in
mask order, and ``run_campaign(..., resume=path)`` replays its contiguous
prefix to skip masks that already ran.

File layout (one JSON object per line):

* line 1 — header: ``{"kind": "header", "version": 1, "fingerprint": ...,
  "spec": {...}}``.  The fingerprint is a SHA-256 over the canonicalized
  spec, so a journal is only ever resumed against the identical campaign
  (same ISA, workload, target, config, seed, fault model, sample size).
* following lines — records: ``{"kind": "record", "mask": {...},
  "outcome": ..., ...}``.

Robustness properties:

* appends are flushed per record, so at most the line being written when
  the process died is lost;
* a truncated or garbled trailing line (torn write) is tolerated on load —
  reading stops there and the mask simply re-runs;
* resume validates each journaled mask against the regenerated sample and
  stops at the first missing or mismatched one; nothing past that gap is
  trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any

from repro.core.faults import FaultFlip, FaultMask, FaultModel
from repro.core.outcome import HVFClass, Outcome
from repro.core.sanitizer import IntegrityReport

JOURNAL_VERSION = 1

#: injectable LSQ bits per entry (64 address + 128 data — pair stores
#: carry two registers).  Journaled as provenance for lq/sq campaigns:
#: journals from the 128-bit era (when the upper data half was silently
#: uninjectable) fingerprint differently and are refused on resume
#: instead of silently mixing geometries in one file.
LSQ_GEOMETRY_BITS = 192


class JournalError(RuntimeError):
    """A journal file exists but cannot be used (bad header, wrong spec)."""


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def mask_to_dict(mask: FaultMask) -> dict:
    return {
        "model": mask.model.value,
        "mask_id": mask.mask_id,
        "flips": [
            {"structure": f.structure, "entry": f.entry, "bit": f.bit,
             "cycle": f.cycle}
            for f in mask.flips
        ],
    }


def mask_from_dict(data: dict) -> FaultMask:
    return FaultMask(
        model=FaultModel(data["model"]),
        flips=tuple(
            FaultFlip(f["structure"], f["entry"], f["bit"], f["cycle"])
            for f in data["flips"]
        ),
        mask_id=data["mask_id"],
    )


def record_to_dict(record) -> dict:
    """Serialize a FaultRecord (duck-typed so accel records work too)."""
    data = {
        "kind": "record",
        "mask": mask_to_dict(record.mask),
        "outcome": record.outcome.value,
        "hvf": record.hvf.value,
        "cycles": record.cycles,
        "masked_reason": record.masked_reason,
        "crash_reason": record.crash_reason,
        "activated": record.activated,
        "max_cycles": record.max_cycles,
        "stopped_on_hvf": record.stopped_on_hvf,
        "retries": record.retries,
        "error": record.error,
        "sim_error_kind": record.sim_error_kind,
        # restored_from is deliberately NOT serialized: a checkpointed run's
        # journal must stay byte-identical to a from-scratch run's
        "integrity": (record.integrity.to_dict()
                      if getattr(record, "integrity", None) is not None
                      else None),
    }
    # only DUE records carry protection provenance; the key is omitted —
    # not nulled — otherwise, so unprotected journal lines keep their
    # exact pre-protection bytes
    if getattr(record, "detected_by", None) is not None:
        data["detected_by"] = record.detected_by
    # same omit-when-unset rule for liveness provenance: only analytically
    # classified records carry the key, so liveness-off journals keep their
    # exact pre-liveness bytes
    if getattr(record, "classified_by", None) is not None:
        data["classified_by"] = record.classified_by
    return data


def record_from_dict(data: dict):
    from repro.core.campaign import FaultRecord  # avoid import cycle

    return FaultRecord(
        mask=mask_from_dict(data["mask"]),
        outcome=Outcome(data["outcome"]),
        hvf=HVFClass(data["hvf"]),
        cycles=data["cycles"],
        masked_reason=data.get("masked_reason"),
        crash_reason=data.get("crash_reason"),
        activated=data.get("activated", False),
        max_cycles=data.get("max_cycles", 0),
        stopped_on_hvf=data.get("stopped_on_hvf", False),
        retries=data.get("retries", 0),
        error=data.get("error"),
        sim_error_kind=data.get("sim_error_kind"),
        integrity=(IntegrityReport.from_dict(data["integrity"])
                   if data.get("integrity") else None),
        detected_by=data.get("detected_by"),
        classified_by=data.get("classified_by"),
    )


def spec_to_dict(spec) -> dict:
    """Canonical spec dict used by fingerprints and journal headers.

    The ``protection`` key is dropped when unset: a spec that never asked
    for protection must fingerprint — and serialize — byte-identically to
    one written before the protection field existed, so ``--protect``-less
    journals stay binary-compatible across versions.
    """
    raw = dataclasses.asdict(spec)
    if raw.get("protection", "absent") is None:
        del raw["protection"]
    # liveness follows the same rule: unset specs must stay byte-identical
    # to journals written before the field existed
    if raw.get("liveness", "absent") is None:
        del raw["liveness"]
    # and fault_model: the uniform default serializes as absence, so
    # default-generator journals stay binary-compatible across versions
    if raw.get("fault_model", "absent") is None:
        del raw["fault_model"]
    # optional-structure sizes serialize as absence when disabled, so
    # configurations predating the structures fingerprint identically
    cfg = raw.get("cfg")
    if isinstance(cfg, dict):
        for key in ("mshr_entries", "store_buffer_entries",
                    "prefetcher_entries"):
            if cfg.get(key) == 0:
                del cfg[key]
    # lq/sq campaigns carry their injectable geometry as provenance — a
    # deliberate fingerprint break against journals written when the data
    # field was 128 bits wide and pair-store bits were uninjectable
    if raw.get("target") in ("lq", "sq"):
        raw["lsq_geometry"] = LSQ_GEOMETRY_BITS
    return raw


def spec_fingerprint(spec) -> str:
    """Stable identity hash of a (frozen dataclass) campaign spec."""
    canon = json.dumps(spec_to_dict(spec), sort_keys=True, default=_canon_default)
    return hashlib.sha256(canon.encode()).hexdigest()


def _spec_mismatch_detail(spec, header: dict) -> str:
    """Explain *why* a header fingerprint differs when we can tell.

    The lq/sq geometry widening is the one mismatch users hit on perfectly
    reasonable resumes of old journals, so it gets a dedicated message.
    """
    want = spec_to_dict(spec).get("lsq_geometry")
    have = header.get("spec", {}).get("lsq_geometry")
    if want is not None and have != want:
        return (
            f" (the journal predates the {want}-bit LSQ entry geometry — "
            "pair-store data bits were not injectable when it was written; "
            "re-run the campaign instead of resuming)"
        )
    return ""


def _canon_default(obj: Any) -> Any:
    if isinstance(obj, (FaultModel, Outcome, HVFClass)):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    return str(obj)


# --------------------------------------------------------------------------
# the journal
# --------------------------------------------------------------------------


class CampaignJournal:
    """Append-only per-fault record log with crash-safe resume.

    Writing::

        with CampaignJournal.open(path, spec) as journal:
            journal.append(record)

    Resuming::

        done = CampaignJournal.completed(path, spec)   # mask_id -> record
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None

    # ------------------------------------------------------------ writing

    @classmethod
    def open(cls, path: str | Path, spec) -> "CampaignJournal":
        """Open for appending; create + write the header if new/empty,
        validate the header against ``spec`` otherwise."""
        journal = cls(path)
        fingerprint = spec_fingerprint(spec)
        existing = journal._read_header()
        if existing is None:
            journal.path.parent.mkdir(parents=True, exist_ok=True)
            journal._fh = open(journal.path, "a")
            journal._write_line({
                "kind": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
                "spec": json.loads(
                    json.dumps(spec_to_dict(spec), default=_canon_default)
                ),
            })
        else:
            if existing.get("fingerprint") != fingerprint:
                detail = _spec_mismatch_detail(spec, existing)
                raise JournalError(
                    f"journal {journal.path} was written by a different "
                    f"campaign spec; refusing to append{detail}"
                )
            journal._fh = open(journal.path, "a")
        return journal

    def append(self, record) -> None:
        if self._fh is None:
            raise JournalError("journal is not open for writing")
        self._write_line(record_to_dict(record))

    def _write_line(self, data: dict) -> None:
        self._fh.write(json.dumps(data) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ reading

    def _read_header(self) -> dict | None:
        if not self.path.exists() or self.path.stat().st_size == 0:
            return None
        with open(self.path) as fh:
            first = fh.readline()
        try:
            header = json.loads(first)
        except json.JSONDecodeError:
            raise JournalError(f"{self.path}: unreadable journal header")
        if header.get("kind") != "header":
            raise JournalError(f"{self.path}: missing journal header")
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{self.path}: journal version {header.get('version')} "
                f"!= {JOURNAL_VERSION}"
            )
        return header

    @classmethod
    def load(cls, path: str | Path, spec=None) -> list:
        """Read all complete records; tolerates a torn trailing line.

        With ``spec`` given, raises :class:`JournalError` when the journal
        belongs to a different campaign.
        """
        journal = cls(path)
        header = journal._read_header()
        if header is None:
            return []
        if spec is not None and header.get("fingerprint") != spec_fingerprint(spec):
            raise JournalError(
                f"journal {path} was written by a different campaign spec"
                f"{_spec_mismatch_detail(spec, header)}"
            )
        records = []
        with open(journal.path) as fh:
            fh.readline()  # header, already validated
            for line in fh:
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    break  # torn tail from an interrupted write: stop here
                if data.get("kind") != "record":
                    continue
                records.append(record_from_dict(data))
        return records

    @classmethod
    def completed(cls, path: str | Path, spec=None) -> dict:
        """``mask_id -> record`` for every journaled fault (last write wins)."""
        return {r.mask.mask_id: r for r in cls.load(path, spec)}


def repair_torn_tail(path: str | Path) -> int:
    """Truncate the torn tail a SIGKILL mid-append leaves; returns bytes cut.

    :meth:`CampaignJournal.load` already *reads past* a torn trailing line
    by stopping there, but re-opening the journal for append would
    concatenate the next record onto the fragment and corrupt the file.
    Byte-identical resume (the matrix runner's contract) therefore repairs
    first: everything at and after the first unterminated or unparseable
    line is cut, leaving exactly the clean record prefix.
    """
    p = Path(path)
    if not p.exists():
        return 0
    data = p.read_bytes()
    good = idx = 0
    while idx < len(data):
        nl = data.find(b"\n", idx)
        if nl < 0:
            break                       # unterminated tail
        try:
            json.loads(data[idx:nl])
        except (json.JSONDecodeError, UnicodeDecodeError):
            break                       # garbled line: cut from here
        good = idx = nl + 1
    removed = len(data) - good
    if removed:
        with open(p, "rb+") as fh:
            fh.truncate(good)
    return removed


def raw_journal_lines(
    path: str | Path,
) -> tuple[bytes | None, list[tuple[int, bytes]]]:
    """Byte-level journal read: ``(header_line, [(mask_id, line), ...])``.

    The distributed merge (:mod:`repro.core.shard`) reconstructs canonical
    cell journals *byte-identically* to a serial run's, so it must never
    re-serialize records — round-tripping through ``record_from_dict`` would
    be correct today and silently fragile forever.  This reader returns the
    exact line bytes (newline included) keyed by mask_id, stopping at the
    first torn or unparseable line exactly like :meth:`CampaignJournal.load`;
    non-record kinds after the header are skipped.
    """
    p = Path(path)
    if not p.exists() or p.stat().st_size == 0:
        return None, []
    header_line: bytes | None = None
    records: list[tuple[int, bytes]] = []
    data = p.read_bytes()
    idx = 0
    while idx < len(data):
        nl = data.find(b"\n", idx)
        if nl < 0:
            break                       # unterminated tail
        line = data[idx:nl + 1]
        try:
            doc = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            break                       # torn/garbled line: stop here
        idx = nl + 1
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if header_line is None:
            if kind != "header":
                break                   # not a journal; nothing trustworthy
            header_line = line
            continue
        if kind != "record":
            continue
        try:
            mask_id = int(doc["mask"]["mask_id"])
        except (KeyError, TypeError, ValueError):
            break                       # malformed record: treat as torn
        records.append((mask_id, line))
    return header_line, records


class OrderedJournalWriter:
    """Order-preserving adapter over :class:`CampaignJournal`: every
    campaign and matrix cell journals through it.

    Resume trusts only the journal's prefix of the sample, so the journal
    must always be one.  A campaign with a worker pool (or interleaved with
    other cells, in the experiment-matrix runner) completes records in
    *completion* order — appending those directly would leave holes on a
    mid-run kill and make the journal bytes depend on worker scheduling.
    This writer buffers out-of-order completions and appends only the
    contiguous prefix, in position order, so at every instant the file is
    byte-identical to what a serial run would have written after the same
    set of positions — a SIGKILL leaves a resumable prefix, never a hole.

    ``start`` seeds the expected next position for resumed campaigns whose
    journal already holds positions ``[0, start)``.
    """

    def __init__(self, journal: CampaignJournal, start: int = 0):
        self.journal = journal
        self._buffer: dict[int, Any] = {}
        self._next = start

    def add(self, position: int, record) -> None:
        if position < self._next or position in self._buffer:
            raise JournalError(
                f"duplicate journal position {position} (next={self._next})"
            )
        self._buffer[position] = record
        while self._next in self._buffer:
            self.journal.append(self._buffer.pop(self._next))
            self._next += 1

    @property
    def written(self) -> int:
        """Positions flushed to disk (the contiguous prefix length)."""
        return self._next

    @property
    def buffered(self) -> int:
        """Completed positions still waiting behind a gap."""
        return len(self._buffer)

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "OrderedJournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def contiguous_prefix(masks, done: dict) -> int:
    """Length of the leading run of ``masks`` whose mask_ids are in ``done``.

    Campaigns and matrix cells journal through
    :class:`OrderedJournalWriter`, so a journal they write always covers
    exactly the first *k* masks.  Anything journaled beyond a gap (a
    corrupt or hand-edited journal, or one an older release wrote in
    completion order) is not resumed, and is cut from a journal that the
    resumed run appends to.
    """
    k = 0
    for m in masks:
        if m.mask_id not in done:
            break
        k += 1
    return k


class JournalFollower:
    """Incremental reader for a journal that may still be growing.

    ``repro tail`` follows an in-flight campaign's journal by polling:
    each :meth:`poll` returns the records appended since the previous
    call.  Only *complete* lines (newline-terminated) are consumed — a
    torn tail mid-append is simply left for the next poll, when the
    writer's flush has completed it.  Complete-but-unparseable lines are
    skipped and counted in :attr:`skipped` (a crashed writer's garbage
    must not wedge the follower).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.header: dict | None = None
        self.skipped = 0
        self._offset = 0

    def poll(self) -> list:
        """Records appended since the last poll (empty if none / no file)."""
        if not self.path.exists():
            return []
        records = []
        with open(self.path) as fh:
            fh.seek(self._offset)
            while True:
                line = fh.readline()
                if not line or not line.endswith("\n"):
                    break               # incomplete tail: retry next poll
                self._offset += len(line.encode())
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    self.skipped += 1
                    continue
                kind = data.get("kind")
                if kind == "header":
                    self.header = data
                    continue
                if kind != "record":
                    self.skipped += 1
                    continue
                try:
                    records.append(record_from_dict(data))
                except Exception:
                    self.skipped += 1
        return records
