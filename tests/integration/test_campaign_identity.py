"""Cross-version identity fixture for both campaign drivers.

Every case runs one small campaign and reduces its observable output to
three sha256 digests:

* the journal bytes (header and every record line);
* ``json.dumps(result.summary())`` with the summary's own key order;
* ``json.dumps`` of the telemetry aggregate's ``reconcilable()`` view.

The digests were recorded from the campaign drivers as they stood before
the CPU and DSA drivers were merged onto one campaign kernel.  Two runs of
the same code agree with each other whatever they print, so only a pinned
digest catches a format drift that both runs share.

Forced simulator exceptions journal a traceback whose file paths and line
numbers belong to the checkout, so their ``error`` text is cut to its first
line (exception, message and simulation snapshot) before hashing.  Only
ISAs and kernels whose images do not depend on ``PYTHONHASHSEED`` appear
here (rv, arm, and x86 running crc32).
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.accel.campaign as accel_mod
from repro.accel.campaign import (
    AccelCampaignSpec,
    accel_golden,
    run_accel_campaign,
)
from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.faultmodels import parse_fault_model
from repro.core.faults import FaultMask
from repro.core.protection import ProtectionConfig
from repro.core.sampling import AdaptiveSampling
from repro.core.targets import TARGETS, Target
from repro.core.telemetry import Telemetry

#: case -> (journal, summary, telemetry) sha256 digests, first 16 hex chars
PINNED = {
    "cpu-adaptive": ("c59698ae4f25ad10", "a996135161ad0ab8",
                     "9880dbcccc0aa805"),
    "cpu-burst-arm": ("444397699ac8759d", "ec4fa0b4051ce5fb",
                      "7bdfb6f796cc9339"),
    "cpu-liveness-audit": ("53719918b44cce6b", "0ddabd69a97db9a0",
                           "87dbad2f397b5ecc"),
    "cpu-liveness-on": ("1081bafa7d8240d5", "d7355468e2a7d964",
                        "87dbad2f397b5ecc"),
    "cpu-plain": ("cfa989be6c40c752", "386e545d68026cb9",
                  "9880dbcccc0aa805"),
    "cpu-resume": ("cfa989be6c40c752", "bbb45b6bc22bf016",
                   "8f909f9ce3ea7d33"),
    "cpu-secded": ("827775f395b8d165", "acf89e154b3361d7",
                   "ebfe6d5299a97fc9"),
    "cpu-sim-exceptions": ("7e833ef1976ab471", "e229a5c4c62dd15a",
                           "587f79735f3e4727"),
    "cpu-workers2": ("cfa989be6c40c752", "386e545d68026cb9",
                     "9880dbcccc0aa805"),
    "cpu-x86": ("8ed49448285b829a", "3579e1ad65be8190",
                "1f689b7d84ac1727"),
    "dsa-adaptive": ("963f8a8fc2a01d95", "de8c4299060d35e8",
                     "3c74b895860c04b1"),
    "dsa-error-map": ("8fe82e20b6fcb5e7", "87d866dd37860f0b",
                      "a2d4304d7bb3618c"),
    "dsa-liveness-audit": ("bac9912ce689cdc8", "f7ba544d02272a93",
                           "35be6f5ba292e8cd"),
    "dsa-liveness-on": ("d26a69967347748f", "1165c014bc28e490",
                        "35be6f5ba292e8cd"),
    "dsa-plain": ("5d2fd976a24a507b", "7768a41b230dcd61",
                  "3c74b895860c04b1"),
    "dsa-resume": ("5d2fd976a24a507b", "88fe794d3337b251",
                   "d8736c1c0d7ec9b3"),
    "dsa-secded": ("ad64caaecc8b9f20", "ebb48d7ab7d4ee0f",
                   "edcd6a952dd7b942"),
    "dsa-sim-exceptions": ("5b202ee4d9598680", "5da942defd8619ae",
                           "b93f58da38d810fc"),
}


def _digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:16]


def _journal_digest(path) -> str:
    lines = []
    for line in path.read_text().splitlines():
        data = json.loads(line)
        if data.get("error"):
            data["error"] = data["error"].splitlines()[0]
        lines.append(json.dumps(data))
    return _digest("\n".join(lines) + "\n")


def _digests(run, tmp_path, **kw):
    journal = tmp_path / "j.jsonl"
    telemetry = Telemetry()
    result = run(journal=journal, telemetry=telemetry, **kw)
    return (
        _journal_digest(journal),
        _digest(json.dumps(result.summary())),
        _digest(json.dumps(telemetry.aggregate.reconcilable())),
    )


def _check(case: str, got: tuple) -> None:
    assert got == PINNED[case], f"{case}: {got!r}"


# --------------------------------------------------------------------- CPU


def _cpu(cfg, **kw) -> CampaignSpec:
    defaults = dict(isa="rv", workload="crc32", target="l1d",
                    cfg=cfg, faults=8, seed=5)
    defaults.update(kw)
    return CampaignSpec(**defaults)


CPU_CASES = {
    "cpu-plain": dict(),
    "cpu-secded": dict(target="regfile_int",
                       protection=ProtectionConfig.parse("regfile_int=secded")),
    "cpu-liveness-on": dict(target="regfile_int", liveness="on", faults=12),
    "cpu-liveness-audit": dict(target="regfile_int", liveness="audit",
                               faults=12),
    "cpu-burst-arm": dict(isa="arm",
                          fault_model=parse_fault_model("burst:arity=2,span=4")),
    "cpu-x86": dict(isa="x86", target="lq"),
}


@pytest.mark.parametrize("case", sorted(CPU_CASES))
def test_cpu_identity(case, cfg, tmp_path):
    spec = _cpu(cfg, **CPU_CASES[case])
    _check(case, _digests(lambda **kw: run_campaign(spec, **kw), tmp_path))


def test_cpu_identity_adaptive(cfg, tmp_path):
    spec = _cpu(cfg, faults=24)
    adaptive = AdaptiveSampling(target_margin=0.4, batch=4, min_faults=4)
    got = _digests(lambda **kw: run_campaign(spec, adaptive=adaptive, **kw),
                   tmp_path)
    _check("cpu-adaptive", got)


def test_cpu_identity_workers(cfg, tmp_path):
    spec = _cpu(cfg)
    # a pool journals in mask order: the serial journal's bytes
    _check("cpu-workers2",
           _digests(lambda **kw: run_campaign(spec, workers=2, **kw),
                    tmp_path))


def _half_journal(path, keep: int) -> None:
    """Cut a journal back to its header and ``keep`` records."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1 + keep]))


def test_cpu_identity_resume(cfg, tmp_path):
    spec = _cpu(cfg)
    journal = tmp_path / "j.jsonl"
    run_campaign(spec, journal=journal)
    _half_journal(journal, 3)
    _check("cpu-resume",
           _digests(lambda **kw: run_campaign(spec, resume=journal, **kw),
                    tmp_path))


class _Flaky:
    """A regfile-shaped structure: flipping entry 1 always raises, entry 2
    raises on its first attempt only, every other entry is a no-op."""

    size = 8
    width = 64
    free = frozenset()

    def __init__(self):
        self.attempts = {}

    def flip_bit(self, entry: int, bit: int) -> None:
        self.attempts[entry] = self.attempts.get(entry, 0) + 1
        if entry == 1 or (entry == 2 and self.attempts[entry] == 1):
            raise IndexError(f"detonated on flip({entry}, {bit})")

    def force_bit(self, entry: int, bit: int, value: int) -> bool:
        self.flip_bit(entry, bit)
        return True


def test_cpu_identity_simulator_exceptions(cfg, tmp_path):
    struct = _Flaky()
    TARGETS["exploding"] = Target("exploding", "regfile",
                                  lambda core: struct, "test-only")
    try:
        spec = _cpu(cfg, target="exploding", faults=4)
        masks = [FaultMask.single("exploding", i, 3, cycle=50, mask_id=i)
                 for i in range(4)]
        got = _digests(lambda **kw: run_campaign(spec, masks=masks, **kw),
                       tmp_path)
    finally:
        del TARGETS["exploding"]
    _check("cpu-sim-exceptions", got)


# --------------------------------------------------------------------- DSA


def _dsa(**kw) -> AccelCampaignSpec:
    defaults = dict(design="gemm", component="MATRIX1", scale="tiny",
                    faults=8, seed=5)
    defaults.update(kw)
    return AccelCampaignSpec(**defaults)


DSA_CASES = {
    "dsa-plain": dict(),
    "dsa-secded": dict(protection=ProtectionConfig.parse("MATRIX1=secded")),
    "dsa-liveness-on": dict(design="mergesort", component="TEMP",
                            liveness="on", faults=12),
    "dsa-liveness-audit": dict(design="mergesort", component="TEMP",
                               liveness="audit", faults=12),
    "dsa-error-map": dict(design="fft", component="REAL",
                          fault_model=parse_fault_model(
                              "error-map:rows=4/2/1")),
}


@pytest.mark.parametrize("case", sorted(DSA_CASES))
def test_dsa_identity(case, tmp_path):
    spec = _dsa(**DSA_CASES[case])
    _check(case,
           _digests(lambda **kw: run_accel_campaign(spec, **kw), tmp_path))


def test_dsa_identity_adaptive(tmp_path):
    spec = _dsa(faults=24)
    adaptive = AdaptiveSampling(target_margin=0.4, batch=4, min_faults=4)
    got = _digests(
        lambda **kw: run_accel_campaign(spec, adaptive=adaptive, **kw),
        tmp_path)
    _check("dsa-adaptive", got)


def test_dsa_identity_resume(tmp_path):
    spec = _dsa()
    journal = tmp_path / "j.jsonl"
    run_accel_campaign(spec, journal=journal)
    _half_journal(journal, 3)
    _check("dsa-resume",
           _digests(lambda **kw: run_accel_campaign(spec, resume=journal,
                                                    **kw),
                    tmp_path))


def test_dsa_identity_simulator_exceptions(monkeypatch, tmp_path):
    spec = _dsa(faults=4)
    accel_golden(spec)
    real = accel_mod.DataflowEngine
    attempts = {}

    class Exploding(real):
        """Mask 1 always raises, mask 2 raises on its first attempt."""

        def run(self):
            mask_id = self.injector.mask.mask_id
            attempts[mask_id] = attempts.get(mask_id, 0) + 1
            if mask_id == 1 or (mask_id == 2 and attempts[mask_id] == 1):
                raise KeyError("poisoned rename map")
            return super().run()

    monkeypatch.setattr(accel_mod, "DataflowEngine", Exploding)
    got = _digests(lambda **kw: run_accel_campaign(spec, **kw), tmp_path)
    _check("dsa-sim-exceptions", got)


def test_zero_fault_campaigns_report_undefined_avf(cfg):
    """``faults=0`` yields no record; every rate is undefined, not an error."""
    for result in (run_campaign(_cpu(cfg, faults=0)),
                   run_accel_campaign(_dsa(faults=0))):
        assert result.records == []
        assert result.avf is None and result.sdc_avf is None
        assert result.crash_avf is None and result.error_margin is None
        summary = result.summary()
        assert summary["faults"] == 0 and summary["budget"] == 0
        assert summary["avf"] is None


def test_identity_cases_are_all_pinned():
    cases = ({*CPU_CASES, *DSA_CASES}
             | {"cpu-adaptive", "cpu-workers2", "cpu-resume",
                "cpu-sim-exceptions", "dsa-adaptive", "dsa-resume",
                "dsa-sim-exceptions"})
    assert cases == set(PINNED)

