"""Shared helpers for accelerator design kernels."""

from __future__ import annotations

import struct

from repro.workloads._util import lcg_values


def pack_u32(values: list[int]) -> bytes:
    return b"".join(struct.pack("<I", v & 0xFFFFFFFF) for v in values)


def pack_u64(values: list[int]) -> bytes:
    return b"".join(struct.pack("<Q", v & ((1 << 64) - 1)) for v in values)


def pack_f64(values: list[float]) -> bytes:
    return b"".join(struct.pack("<d", v) for v in values)


def det_floats(seed: int, count: int, lo: float = -4.0, hi: float = 4.0) -> list[float]:
    """Deterministic doubles in [lo, hi)."""
    raw = lcg_values(seed, count, 0, 1 << 20)
    span = hi - lo
    return [lo + (v / float(1 << 20)) * span for v in raw]
