"""The workload suite registry — the MiBench analog used by the paper.

The paper (Section III-D) uses 15 MiBench workloads across all three ISAs;
we keep the same names (``smooth``/``edges``/``corners`` are the susan family
the figures reference, ``adpcme``/``adpcmd`` the adpcm pair, ``search`` is
stringsearch).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.kernel.ir import Program
from repro.workloads import (
    adpcmd,
    adpcme,
    basicmath,
    bitcount,
    corners,
    crc32,
    dijkstra,
    edges,
    fft,
    patricia,
    qsort,
    rijndael,
    search,
    sha,
    smooth,
)

WORKLOADS: dict[str, Callable[[str], Program]] = {
    "basicmath": basicmath.build,
    "bitcount": bitcount.build,
    "qsort": qsort.build,
    "smooth": smooth.build,
    "edges": edges.build,
    "corners": corners.build,
    "dijkstra": dijkstra.build,
    "patricia": patricia.build,
    "search": search.build,
    "rijndael": rijndael.build,
    "sha": sha.build,
    "crc32": crc32.build,
    "adpcme": adpcme.build,
    "adpcmd": adpcmd.build,
    "fft": fft.build,
}

#: Order used on the x-axis of the paper's per-benchmark figures.
WORKLOAD_NAMES: list[str] = list(WORKLOADS)

_CACHE: dict[tuple[str, str], Program] = {}

#: extra workloads registered by other packages (e.g. the CPU ports of the
#: four accelerator algorithms used in the paper's Figure 16 comparison)
EXTRA_WORKLOADS: dict[str, Callable[[str], Program]] = {}


def register_workload(name: str, builder: Callable[[str], Program]) -> None:
    """Register an additional workload (outside the MiBench 15)."""
    EXTRA_WORKLOADS[name] = builder


def workload_builder(name: str) -> Callable[[str], Program]:
    """The builder of the named workload (``KeyError`` lists the known ones)."""
    if name in WORKLOADS:
        return WORKLOADS[name]
    if name not in EXTRA_WORKLOADS:
        # the CPU ports of the accelerator algorithms self-register on import
        import repro.accel_designs.cpu_ports  # noqa: F401
    try:
        return EXTRA_WORKLOADS[name]
    except KeyError:
        available = ", ".join(list(WORKLOADS) + list(EXTRA_WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; available: {available}") from None


def build_workload(name: str, scale: str = "default") -> Program:
    """Build (and memoize) the named workload at the requested scale."""
    key = (name, scale)
    if key not in _CACHE:
        _CACHE[key] = workload_builder(name)(scale)
    return _CACHE[key]
