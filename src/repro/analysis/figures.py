"""Drivers that regenerate every evaluation figure of the paper.

Each ``figN_*`` function runs the corresponding campaigns and returns a
:class:`FigureData` with per-cell rows and a rendered text twin of the
figure.  Sample sizes and workload counts default to quick settings and can
be widened via environment variables:

* ``MARVEL_FAULTS``    — faults per (structure, workload, ISA) cell,
* ``MARVEL_WORKLOADS`` — how many of the 15 workloads to run,
* ``MARVEL_SCALE``     — workload scale ('tiny' default, 'default' bigger).

The paper's full campaign (1,000 faults x 15 workloads x 3 ISAs) is
``MARVEL_FAULTS=1000 MARVEL_WORKLOADS=15``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.accel.campaign import AccelCampaignSpec, accel_golden, run_accel_campaign
from repro.accel.dataflow import FUConfig
from repro.accel_designs import PAPER_TARGETS, get_design
from repro.core.campaign import CampaignSpec, golden_run, masks_for_spec, run_campaign
from repro.core.faults import FaultModel
from repro.core.metrics import opf, weighted_avf
from repro.core.presets import sim_config
from repro.core.report import render_table
from repro.cpu.config import CPUConfig
from repro.isa.base import isa_names
from repro.workloads import WORKLOAD_NAMES

#: six workloads the HVF case study (Fig 18) uses
HVF_WORKLOADS = ["qsort", "dijkstra", "sha", "crc32", "smooth", "patricia"]


def env_faults(default: int = 40) -> int:
    return int(os.environ.get("MARVEL_FAULTS", default))


def env_workloads(default: int = 6) -> list[str]:
    count = int(os.environ.get("MARVEL_WORKLOADS", default))
    return WORKLOAD_NAMES[: max(1, min(count, len(WORKLOAD_NAMES)))]


def env_scale() -> str:
    return os.environ.get("MARVEL_SCALE", "tiny")


@dataclass
class FigureData:
    """Result of one figure driver."""

    figure: str
    rows: list[dict]
    text: str = ""
    notes: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - presentation
        return f"== {self.figure} ==\n{self.text}"


# --------------------------------------------------------------------------
# Figures 4-8: per-structure AVF across workloads x ISAs
# --------------------------------------------------------------------------


_GRID_CACHE: dict = {}


def per_structure_avf(
    target: str,
    figure: str,
    faults: int | None = None,
    workloads: list[str] | None = None,
    isas: list[str] | None = None,
    cfg: CPUConfig | None = None,
    seed: int = 1,
) -> FigureData:
    """The Figures 4-8 (and 9-11) campaign grid for one structure.

    Results are memoized per grid: Figures 9-11 present the SDC share of the
    exact campaigns behind Figures 4-6, so re-rendering them is free — the
    same runs, different column, as in the paper.
    """
    faults = faults or env_faults()
    workloads = workloads or env_workloads()
    isas = isas or isa_names()
    cfg = cfg or sim_config()
    key = (target, faults, tuple(workloads), tuple(isas), cfg, seed, env_scale())
    cached = _GRID_CACHE.get(key)
    if cached is not None:
        return FigureData(figure=figure, rows=cached.rows, text=cached.text)
    rows = []
    for isa in isas:
        avfs, sdcs, crashes, times = [], [], [], []
        for wl in workloads:
            spec = CampaignSpec(
                isa=isa, workload=wl, target=target, cfg=cfg,
                scale=env_scale(), faults=faults, seed=seed,
            )
            res = run_campaign(spec)
            rows.append(res.summary())
            avfs.append(res.avf)
            sdcs.append(res.sdc_avf)
            crashes.append(res.crash_avf)
            times.append(res.golden.cycles)
        rows.append(
            {
                "isa": isa,
                "workload": "wAVF",
                "target": target,
                "avf": weighted_avf(avfs, times),
                "sdc_avf": weighted_avf(sdcs, times),
                "crash_avf": weighted_avf(crashes, times),
                "faults": faults * len(workloads),
            }
        )
    text = render_table(
        ["isa", "workload", "AVF", "SDC", "Crash"],
        [
            (r["isa"], r["workload"], r["avf"], r["sdc_avf"], r["crash_avf"])
            for r in rows
        ],
    )
    data = FigureData(figure=figure, rows=rows, text=text)
    _GRID_CACHE[key] = data
    return data


def fig4_regfile_avf(**kw) -> FigureData:
    return per_structure_avf("regfile_int", "Figure 4: Integer PRF AVF", **kw)


def fig5_l1i_avf(**kw) -> FigureData:
    return per_structure_avf("l1i", "Figure 5: L1 Instruction Cache AVF", **kw)


def fig6_l1d_avf(**kw) -> FigureData:
    return per_structure_avf("l1d", "Figure 6: L1 Data Cache AVF", **kw)


def fig7_lq_avf(**kw) -> FigureData:
    return per_structure_avf("lq", "Figure 7: Load Queue AVF", **kw)


def fig8_sq_avf(**kw) -> FigureData:
    return per_structure_avf("sq", "Figure 8: Store Queue AVF", **kw)


# Figures 9-11 present the SDC share of the same campaigns.


def fig9_sdc_regfile(**kw) -> FigureData:
    data = per_structure_avf("regfile_int", "Figure 9: PRF SDC AVF", **kw)
    return data


def fig10_sdc_l1i(**kw) -> FigureData:
    return per_structure_avf("l1i", "Figure 10: L1I SDC AVF", **kw)


def fig11_sdc_l1d(**kw) -> FigureData:
    return per_structure_avf("l1d", "Figure 11: L1D SDC AVF", **kw)


# --------------------------------------------------------------------------
# Figures 12-13: SDC probability under permanent faults
# --------------------------------------------------------------------------


def permanent_sdc(
    target: str,
    figure: str,
    faults: int | None = None,
    workloads: list[str] | None = None,
    isas: list[str] | None = None,
    cfg: CPUConfig | None = None,
    seed: int = 3,
) -> FigureData:
    faults = faults or env_faults()
    workloads = workloads or env_workloads()
    isas = isas or isa_names()
    cfg = cfg or sim_config()
    rows = []
    for isa in isas:
        for wl in workloads:
            # half stuck-at-0, half stuck-at-1, as permanent defects land
            spec0 = CampaignSpec(
                isa=isa, workload=wl, target=target, cfg=cfg, scale=env_scale(),
                faults=(faults + 1) // 2, seed=seed, model=FaultModel.STUCK_AT_0,
            )
            spec1 = CampaignSpec(
                isa=isa, workload=wl, target=target, cfg=cfg, scale=env_scale(),
                faults=faults // 2, seed=seed + 1, model=FaultModel.STUCK_AT_1,
            )
            golden = golden_run(isa, wl, cfg, env_scale())
            masks = masks_for_spec(spec0, golden) + masks_for_spec(spec1, golden)
            res = run_campaign(spec0, masks=masks)
            summary = res.summary()
            summary["model"] = "permanent"
            rows.append(summary)
    text = render_table(
        ["isa", "workload", "SDC prob", "Crash prob"],
        [(r["isa"], r["workload"], r["sdc_avf"], r["crash_avf"]) for r in rows],
    )
    return FigureData(figure=figure, rows=rows, text=text)


def fig12_permanent_l1i(**kw) -> FigureData:
    return permanent_sdc("l1i", "Figure 12: permanent-fault SDC, L1I", **kw)


def fig13_permanent_l1d(**kw) -> FigureData:
    return permanent_sdc("l1d", "Figure 13: permanent-fault SDC, L1D", **kw)


# --------------------------------------------------------------------------
# Figure 14: DSA AVF with SDC/Crash breakdown
# --------------------------------------------------------------------------


def fig14_dsa_avf(faults: int | None = None, scale: str = "default", seed: int = 5) -> FigureData:
    faults = faults or env_faults()
    rows = []
    for design, components in PAPER_TARGETS.items():
        for component in components:
            spec = AccelCampaignSpec(
                design=design, component=component, scale=scale,
                faults=faults, seed=seed,
            )
            rows.append(run_accel_campaign(spec).summary())
    text = render_table(
        ["design", "component", "AVF", "SDC", "Crash"],
        [
            (r["design"], r["component"], r["avf"], r["sdc_avf"], r["crash_avf"])
            for r in rows
        ],
    )
    return FigureData(figure="Figure 14: DSA AVF (SDC/Crash split)", rows=rows, text=text)


# --------------------------------------------------------------------------
# Figure 15: physical-register-file size sensitivity (RISC-V)
# --------------------------------------------------------------------------


def fig15_prf_sensitivity(
    sizes: tuple[int, ...] = (96, 128, 192),
    faults: int | None = None,
    workloads: list[str] | None = None,
    seed: int = 7,
) -> FigureData:
    faults = faults or env_faults()
    workloads = workloads or env_workloads()
    rows = []
    for size in sizes:
        cfg = sim_config().with_(int_phys_regs=size)
        avfs, times = [], []
        for wl in workloads:
            spec = CampaignSpec(
                isa="rv", workload=wl, target="regfile_int", cfg=cfg,
                scale=env_scale(), faults=faults, seed=seed,
            )
            res = run_campaign(spec)
            row = res.summary()
            row["prf_size"] = size
            rows.append(row)
            avfs.append(res.avf)
            times.append(res.golden.cycles)
        rows.append(
            {
                "isa": "rv", "workload": "wAVF", "target": "regfile_int",
                "prf_size": size, "avf": weighted_avf(avfs, times),
                "sdc_avf": 0.0, "crash_avf": 0.0, "faults": faults * len(workloads),
            }
        )
    text = render_table(
        ["prf_size", "workload", "AVF"],
        [(r["prf_size"], r["workload"], r["avf"]) for r in rows],
    )
    return FigureData(figure="Figure 15: PRF size sensitivity (RISC-V)", rows=rows, text=text)


# --------------------------------------------------------------------------
# Figure 16: CPU vs DSA — AVF and OPF for four algorithms
# --------------------------------------------------------------------------

FIG16_ALGORITHMS = [
    ("gemm", "gemm_cpu"),
    ("bfs", "bfs_cpu"),
    ("fft", "fft_cpu"),
    ("md_knn", "knn_cpu"),
]

#: CPU structures aggregated for the platform-level AVF (the CPU side of the
#: comparison samples its major data-holding structures uniformly)
FIG16_CPU_TARGETS = ["regfile_int", "l1d"]


def _platform_row(algorithm: str, platform: str, results: list, cycles: int,
                  clock_hz: float, ops: float) -> dict:
    """One Figure-16 row: AVF and OPF over every record of ``results``."""
    records = [r for res in results for r in res.records]
    avf = 1 - sum(
        1 for r in records if r.outcome.value == "masked"
    ) / len(records)
    sdc = sum(1 for r in records if r.outcome.value == "sdc") / len(records)
    return {
        "algorithm": algorithm, "platform": platform, "avf": avf,
        "sdc_avf": sdc, "crash_avf": avf - sdc, "cycles": cycles,
        "opf": opf(avf, cycles, clock_hz, ops),
    }


def fig16_opf(
    faults: int | None = None, cfg: CPUConfig | None = None, seed: int = 11,
    clock_hz: float = 2e9, scale: str = "default",
) -> FigureData:
    """CPU-vs-DSA comparison at default scale: the accelerator memories are
    exactly sized for the default problem, so the platform AVFs compare the
    way the paper's do (fully-utilized SPMs vs a general-purpose core)."""
    faults = faults or env_faults()
    cfg = cfg or sim_config()
    rows = []
    for design_name, cpu_workload in FIG16_ALGORITHMS:
        design = get_design(design_name)
        ops = design.operations_per_run(scale)

        # CPU side: aggregate AVF over the sampled structures
        cpu = [
            run_campaign(CampaignSpec(
                isa="rv", workload=cpu_workload, target=target, cfg=cfg,
                scale=scale, faults=max(1, faults // len(FIG16_CPU_TARGETS)),
                seed=seed,
            ))
            for target in FIG16_CPU_TARGETS
        ]
        rows.append(_platform_row(design_name, "cpu", cpu,
                                  cpu[0].golden.cycles, clock_hz, ops))

        # DSA side: aggregate over the design's Table IV components
        components = PAPER_TARGETS[design_name]
        dsa = [
            run_accel_campaign(AccelCampaignSpec(
                design=design_name, component=component, scale=scale,
                faults=max(1, faults // len(components)), seed=seed,
            ))
            for component in components
        ]
        rows.append(_platform_row(design_name, "dsa", dsa,
                                  dsa[-1].golden.total_cycles, clock_hz, ops))
    text = render_table(
        ["algorithm", "platform", "AVF", "SDC", "Crash", "cycles", "OPF"],
        [
            (r["algorithm"], r["platform"], r["avf"], r["sdc_avf"],
             r["crash_avf"], r["cycles"],
             None if r["opf"] is None else f"{r['opf']:.3e}")
            for r in rows
        ],
    )
    return FigureData(figure="Figure 16: CPU vs DSA AVF and OPF", rows=rows, text=text)


# --------------------------------------------------------------------------
# Figure 17: GEMM functional-unit design-space exploration
# --------------------------------------------------------------------------


def fig17_gemm_dse(
    fu_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    faults: int | None = None,
    scale: str = "default",
    seed: int = 13,
) -> FigureData:
    faults = faults or env_faults()
    rows = []
    for count in fu_counts:
        fu = FUConfig.uniform(count)
        spec = AccelCampaignSpec(
            design="gemm", component="MATRIX1", scale=scale, faults=faults,
            seed=seed, fu=fu,
        )
        res = run_accel_campaign(spec)
        golden = accel_golden(spec)
        row = res.summary()
        row.update(
            {
                "fu_count": count,
                "cycles": golden.cycles,
                "area_units": fu.total_units,     # unit-FU area proxy
            }
        )
        rows.append(row)
    text = render_table(
        ["FUs", "AVF(MATRIX1)", "cycles", "area"],
        [(r["fu_count"], r["avf"], r["cycles"], r["area_units"]) for r in rows],
    )
    return FigureData(
        figure="Figure 17: GEMM DSE — AVF vs parallel functional units",
        rows=rows,
        text=text,
    )


# --------------------------------------------------------------------------
# Figure 18: HVF vs AVF
# --------------------------------------------------------------------------


def fig18_hvf(
    faults: int | None = None,
    workloads: list[str] | None = None,
    targets: tuple[str, ...] = ("regfile_int", "l1d"),
    cfg: CPUConfig | None = None,
    seed: int = 17,
) -> FigureData:
    faults = faults or env_faults()
    workloads = workloads or HVF_WORKLOADS[: len(env_workloads())]
    cfg = cfg or sim_config()
    rows = []
    for target in targets:
        for wl in workloads:
            spec = CampaignSpec(
                isa="rv", workload=wl, target=target, cfg=cfg,
                scale=env_scale(), faults=faults, seed=seed,
            )
            res = run_campaign(spec)
            row = res.summary()
            rows.append(row)
    text = render_table(
        ["target", "workload", "AVF", "HVF"],
        [(r["target"], r["workload"], r["avf"], r["hvf"]) for r in rows],
    )
    return FigureData(figure="Figure 18: HVF vs AVF", rows=rows, text=text)
