"""Cycle-exact timing pin for the out-of-order core.

Every tiny-scale workload on every ISA is run on the default
configuration, and reduced to its cycle count, its committed instruction
count and the sha256 of its recorded commit trace.  The same is pinned
for crc32 and qsort with the MSHR file, store buffer and stride
prefetcher enabled, and for the checkpoint digest of three mid-run
snapshots of rv/crc32 taken while the issue queue is occupied.

The values were recorded from the core as it stood before issue wakeup
became event-driven (the per-cycle issue-queue rescan).  A change to the
scheduler that moves a single uop by a single cycle changes a pin.

The x86 code layout follows the interpreter's string-hash order (the
register allocator orders equal live intervals by set iteration), so the
x86 cases run in one subprocess with a fixed ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.checkpoint import payload_digest
from repro.core.presets import sim_config
from repro.cpu.core import OoOCore
from repro.isa.base import get_isa
from repro.kernel.compiler import compile_program
from repro.workloads import WORKLOAD_NAMES, build_workload

#: hash seed of the subprocess that computes the x86 cases
X86_HASH_SEED = "0"

#: the optional memory-side structures, at the sizes a campaign that
#: targets them enables
UARCH = {"mshr_entries": 8, "store_buffer_entries": 8,
         "prefetcher_entries": 16}
UARCH_WORKLOADS = ("crc32", "qsort")

#: rv/crc32 cycles whose snapshots are digested
SNAPSHOT_CYCLES = (400, 1200, 2000)

#: (isa, workload, "default" | "uarch") -> (cycles, instructions,
#: commit-trace sha256, first 16 hex chars)
PINNED: dict[tuple[str, str, str], tuple[int, int, str]] = {
    ("rv", "basicmath", "default"): (5954, 3502, "942c91c4110ccca2"),
    ("rv", "bitcount", "default"): (2445, 6911, "e4322b21506cf071"),
    ("rv", "qsort", "default"): (1358, 2184, "875ed357bfb42c55"),
    ("rv", "smooth", "default"): (2896, 6839, "77210ed932fe0d7c"),
    ("rv", "edges", "default"): (1240, 3946, "31f3cca519513229"),
    ("rv", "corners", "default"): (2442, 6538, "5f55248c3f9b9316"),
    ("rv", "dijkstra", "default"): (1734, 2041, "d4b39e8f93be26dd"),
    ("rv", "patricia", "default"): (1438, 1418, "1679d968ece7f7a9"),
    ("rv", "search", "default"): (3344, 11514, "28d94244697de3a9"),
    ("rv", "rijndael", "default"): (2420, 7920, "30d48835fbd22fd6"),
    ("rv", "sha", "default"): (2316, 6948, "73eb540d15d3beb2"),
    ("rv", "crc32", "default"): (2361, 1557, "d41a268b783303d5"),
    ("rv", "adpcme", "default"): (4588, 5190, "f778e9b4d0450224"),
    ("rv", "adpcmd", "default"): (1981, 4436, "31fe4193a585826b"),
    ("rv", "fft", "default"): (1244, 2161, "9e87961c331af0d4"),
    ("arm", "basicmath", "default"): (5929, 3530, "b17022417e432b56"),
    ("arm", "bitcount", "default"): (2675, 8681, "3de88862ac43ba5b"),
    ("arm", "qsort", "default"): (1652, 2548, "8fc82ae5bdb6d0b0"),
    ("arm", "smooth", "default"): (3168, 8127, "2d078c0f3e211a24"),
    ("arm", "edges", "default"): (1301, 4130, "180a9724772960bb"),
    ("arm", "corners", "default"): (2727, 7198, "e2a20191e2783749"),
    ("arm", "dijkstra", "default"): (1926, 2442, "3be30252200c2df7"),
    ("arm", "patricia", "default"): (1425, 1635, "c933c307f8aeed90"),
    ("arm", "search", "default"): (4535, 13618, "57bd7514a31d666f"),
    ("arm", "rijndael", "default"): (2611, 8420, "bea60632e1eda059"),
    ("arm", "sha", "default"): (2053, 6463, "05d32c1954ea80aa"),
    ("arm", "crc32", "default"): (2290, 1651, "7acddc364eec90b6"),
    ("arm", "adpcme", "default"): (2130, 4760, "7263018dff4ca299"),
    ("arm", "adpcmd", "default"): (1628, 3766, "9e99fefc31f019a8"),
    ("arm", "fft", "default"): (1261, 2242, "3fab01de168e5bee"),
    ("rv", "crc32", "uarch"): (2330, 1557, "d41a268b783303d5"),
    ("rv", "qsort", "uarch"): (1358, 2184, "875ed357bfb42c55"),
    ("arm", "crc32", "uarch"): (2258, 1651, "7acddc364eec90b6"),
    ("arm", "qsort", "uarch"): (1624, 2548, "8fc82ae5bdb6d0b0"),
    ("x86", "basicmath", "default"): (6057, 4894, "3f94bbaf6e1a53de"),
    ("x86", "bitcount", "default"): (5521, 10054, "cb92a1985ecc3029"),
    ("x86", "qsort", "default"): (2083, 3294, "190a3d64824aca3a"),
    ("x86", "smooth", "default"): (3696, 10486, "9445178af66b354e"),
    ("x86", "edges", "default"): (7292, 8182, "d7ae89166f1e9bc2"),
    ("x86", "corners", "default"): (3437, 10257, "52fe98204e9ee34f"),
    ("x86", "dijkstra", "default"): (2266, 3229, "6d5bcae3027374d2"),
    ("x86", "patricia", "default"): (1812, 2088, "674ec6c678e6c97b"),
    ("x86", "search", "default"): (4877, 17577, "2525674ddf5da2bd"),
    ("x86", "rijndael", "default"): (4042, 11742, "a16e1255c1af9da8"),
    ("x86", "sha", "default"): (3923, 12625, "d57ad4efd1f30b91"),
    ("x86", "crc32", "default"): (2704, 2415, "3dc049b412f0d17e"),
    ("x86", "adpcme", "default"): (7897, 7623, "208fda8d9c083e8b"),
    ("x86", "adpcmd", "default"): (3246, 5928, "ce956ab0a9085e3b"),
    ("x86", "fft", "default"): (1813, 3781, "890705c55e8bba5a"),
    ("x86", "crc32", "uarch"): (2680, 2415, "3dc049b412f0d17e"),
    ("x86", "qsort", "uarch"): (2046, 3294, "190a3d64824aca3a"),
}

#: cycle -> payload_digest of rv/crc32's snapshot, first 16 hex chars
SNAPSHOT_PINNED: dict[int, str] = {
    400: "94ef53210dab8e8e",
    1200: "f2d2b38930efacc8",
    2000: "b82eebf6aff60be5",
}


def _config(kind: str):
    cfg = sim_config()
    return cfg.with_(**UARCH) if kind == "uarch" else cfg


def _core(isa_name: str, workload: str, kind: str) -> OoOCore:
    isa = get_isa(isa_name)
    exe = compile_program(build_workload(workload, "tiny"), isa)
    return OoOCore.from_executable(exe, isa, _config(kind))


def timing(isa_name: str, workload: str, kind: str) -> list:
    """Run one case to completion and reduce it to its pin."""
    core = _core(isa_name, workload, kind)
    core.trace_mode = "record"
    res = core.run()
    assert res.ok, res.crashed
    trace = hashlib.sha256(repr(res.commit_trace).encode()).hexdigest()
    return [res.cycles, res.instructions, trace[:16]]


def _cases(isa_names) -> list[tuple[str, str, str]]:
    cases = [(i, w, "default") for i in isa_names for w in WORKLOAD_NAMES]
    cases += [(i, w, "uarch") for i in isa_names for w in UARCH_WORKLOADS]
    return cases


@pytest.fixture(scope="module")
def x86_timings() -> dict:
    """Every x86 case, computed under the fixed hash seed."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONHASHSEED": X86_HASH_SEED,
           "PYTHONPATH": os.pathsep.join(
               [str(src), str(Path(__file__).resolve().parent)])}
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, test_core_timing_pin as t; "
         "print(json.dumps([[list(c), t.timing(*c)] "
         "for c in t._cases(['x86'])]))"],
        env=env, check=True, capture_output=True, text=True)
    return {tuple(case): tuple(pin) for case, pin in json.loads(out.stdout)}


@pytest.mark.parametrize("case", _cases(["rv", "arm"]),
                         ids=lambda c: "-".join(c))
def test_timing_pin(case):
    assert tuple(timing(*case)) == PINNED[case]


@pytest.mark.parametrize("case", _cases(["x86"]), ids=lambda c: "-".join(c))
def test_timing_pin_x86(case, x86_timings):
    assert x86_timings[case] == PINNED[case]


def snapshot_digests() -> dict[int, str]:
    core = _core("rv", "crc32", "default")
    digests: dict[int, str] = {}
    while core.cycle <= SNAPSHOT_CYCLES[-1]:
        assert not core.halted
        if core.cycle in SNAPSHOT_CYCLES:
            assert core.iq, f"issue queue empty at cycle {core.cycle}"
            digests[core.cycle] = payload_digest(core.snapshot()).hex()[:16]
        core.step()
    return digests


def test_snapshot_digest_pin():
    assert snapshot_digests() == SNAPSHOT_PINNED
