"""Set-associative write-back caches with bit-level line data.

Every line's contents are a real ``bytearray``; injected bit flips live in
that data and propagate through fills, forwards, and write-backs with no
extra bookkeeping — the simulation simply computes with the corrupted bits.
Tree-PLRU replacement (the policy the paper's Listing-1 footnote warms up
against).

Fault-injection support:

* geometry: ``num_lines × line_size*8`` bits of data array,
* ``flip_bit`` / ``force_bit`` mutate stored data directly,
* an optional :class:`CacheProbe` gets notified on reads, overwrites,
  evictions and invalidations of watched bytes so campaigns can terminate
  early (paper Section IV-B "Increasing Speed of Fault Injection Campaigns").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.config import CacheConfig
from repro.cpu.memory import MainMemory


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class CacheProbe:
    """Observer for byte-level events on one cache (see injector)."""

    def on_read(self, cache: "Cache", line: int, lo: int, hi: int) -> None: ...

    def on_write(self, cache: "Cache", line: int, lo: int, hi: int) -> None: ...

    def on_fill(self, cache: "Cache", line: int) -> None: ...

    def on_evict(self, cache: "Cache", line: int, dirty: bool) -> None: ...


class Cache:
    """One cache level; ``lower`` is the next level or main memory."""

    def __init__(self, name: str, cfg: CacheConfig, lower):
        self.name = name
        self.cfg = cfg
        self.lower = lower
        # geometry read on every access, hoisted off the config's properties
        self.line_size = cfg.line_size
        self.assoc = cfg.assoc
        self.num_sets = cfg.num_sets
        self.plru_levels = cfg.assoc.bit_length() - 1
        n = cfg.num_lines
        self.tags = [0] * n
        self.valid = [False] * n
        self.dirty = [False] * n
        self.data = [bytearray(cfg.line_size) for _ in range(n)]
        # tree-PLRU state per set (assoc-1 bits packed in an int)
        self.plru = [0] * cfg.num_sets
        self.stats = CacheStats()
        self.probe: CacheProbe | None = None

    # ------------------------------------------------------------ geometry

    @property
    def num_lines(self) -> int:
        return self.cfg.num_lines

    @property
    def bits_per_line(self) -> int:
        return self.cfg.line_size * 8

    def line_index(self, set_idx: int, way: int) -> int:
        return set_idx * self.assoc + way

    def addr_set(self, addr: int) -> int:
        return (addr // self.line_size) % self.num_sets

    def addr_tag(self, addr: int) -> int:
        return addr // (self.line_size * self.num_sets)

    def line_base_addr(self, line: int) -> int:
        set_idx = line // self.assoc
        return (self.tags[line] * self.num_sets + set_idx) * self.line_size

    # ------------------------------------------------------------ PLRU

    def _plru_victim(self, set_idx: int) -> int:
        state = self.plru[set_idx]
        node = 0
        way = 0
        for _ in range(self.plru_levels):
            bit = (state >> node) & 1
            way = (way << 1) | bit
            node = 2 * node + 1 + bit
        return way

    def _plru_touch(self, set_idx: int, way: int) -> None:
        state = self.plru[set_idx]
        node = 0
        for level in range(self.plru_levels - 1, -1, -1):
            bit = (way >> level) & 1
            # point away from the touched way
            if bit:
                state &= ~(1 << node)
            else:
                state |= 1 << node
            node = 2 * node + 1 + bit
        self.plru[set_idx] = state

    # ------------------------------------------------------------ lookup

    def _find(self, addr: int) -> int | None:
        tag = self.addr_tag(addr)
        base = self.addr_set(addr) * self.assoc
        for way in range(self.assoc):
            line = base + way
            if self.valid[line] and self.tags[line] == tag:
                return line
        return None

    def _fill(self, addr: int) -> tuple[int, int]:
        """Bring the line containing ``addr`` in; returns (line, extra_latency)."""
        set_idx = self.addr_set(addr)
        way = self._plru_victim(set_idx)
        line = self.line_index(set_idx, way)
        latency = 0
        if self.valid[line]:
            dirty = self.dirty[line]
            if self.probe:
                self.probe.on_evict(self, line, dirty)
            if dirty:
                victim_addr = self.line_base_addr(line)
                latency += self._write_lower(victim_addr, bytes(self.data[line]))
                self.stats.writebacks += 1
            self.stats.evictions += 1
        line_addr = addr - (addr % self.line_size)
        block, lat = self._read_lower(line_addr)
        latency += lat
        self.tags[line] = self.addr_tag(addr)
        self.valid[line] = True
        self.dirty[line] = False
        self.data[line][:] = block
        if self.probe:
            self.probe.on_fill(self, line)
        return line, latency

    def _read_lower(self, line_addr: int) -> tuple[bytes, int]:
        if isinstance(self.lower, Cache):
            return self.lower.read_block(line_addr, self.line_size)
        mem: MainMemory = self.lower
        return mem.read_block(line_addr, self.line_size), mem.latency

    def _write_lower(self, line_addr: int, block: bytes) -> int:
        if isinstance(self.lower, Cache):
            return self.lower.write_block(line_addr, block)
        mem: MainMemory = self.lower
        mem.write_block(line_addr, block)
        return mem.latency

    # ------------------------------------------------------------ access API

    def read(self, addr: int, width: int) -> tuple[int, int]:
        """Read ``width`` bytes; returns (value, latency).  Splits on lines."""
        value = 0
        latency = self.cfg.hit_latency
        done = 0
        while done < width:
            a = addr + done
            in_line = min(width - done, self.line_size - a % self.line_size)
            chunk, lat = self._read_chunk(a, in_line)
            latency += lat
            value |= int.from_bytes(chunk, "little") << (8 * done)
            done += in_line
        return value, latency

    def _read_chunk(self, addr: int, width: int) -> tuple[bytes, int]:
        line = self._find(addr)
        latency = 0
        if line is None:
            self.stats.misses += 1
            line, latency = self._fill(addr)
        else:
            self.stats.hits += 1
        off = addr % self.line_size
        self._plru_touch(line // self.assoc, line % self.assoc)
        if self.probe:
            self.probe.on_read(self, line, off, off + width)
        return bytes(self.data[line][off : off + width]), latency

    def write(self, addr: int, value: int, width: int) -> int:
        """Write-allocate, write-back.  Returns latency."""
        latency = self.cfg.hit_latency
        raw = (value & ((1 << (width * 8)) - 1)).to_bytes(width, "little")
        done = 0
        while done < width:
            a = addr + done
            in_line = min(width - done, self.line_size - a % self.line_size)
            latency += self._write_chunk(a, raw[done : done + in_line])
            done += in_line
        return latency

    def _write_chunk(self, addr: int, raw: bytes) -> int:
        line = self._find(addr)
        latency = 0
        if line is None:
            self.stats.misses += 1
            line, latency = self._fill(addr)
        else:
            self.stats.hits += 1
        off = addr % self.line_size
        self.data[line][off : off + len(raw)] = raw
        self.dirty[line] = True
        self._plru_touch(line // self.assoc, line % self.assoc)
        if self.probe:
            self.probe.on_write(self, line, off, off + len(raw))
        return latency

    # side-effect-free queries (no stats, no PLRU, no probes) ------------------

    def contains(self, addr: int) -> bool:
        """Pure hit/miss predicate — safe to consult before a real access."""
        return self._find(addr) is not None

    def peek_block(self, line_addr: int) -> bytes | None:
        """Copy of the resident block at ``line_addr``, or None on a miss."""
        line = self._find(line_addr)
        return None if line is None else bytes(self.data[line])

    def prefetch_fill(self, addr: int) -> None:
        """Bring a block in on behalf of a prefetcher.

        No demand hit/miss accounting and no PLRU touch for the fill
        itself, so demand-access behavior (and its stats) is undisturbed;
        eviction/fill probes still fire because the victim line genuinely
        dies and the new line genuinely appears.
        """
        if self._find(addr) is None:
            self._fill(addr)

    # block interface used by an upper cache level -----------------------------

    def read_block(self, line_addr: int, size: int) -> tuple[bytes, int]:
        line = self._find(line_addr)
        latency = self.cfg.hit_latency
        if line is None:
            self.stats.misses += 1
            line, extra = self._fill(line_addr)
            latency += extra
        else:
            self.stats.hits += 1
        self._plru_touch(line // self.assoc, line % self.assoc)
        if self.probe:
            self.probe.on_read(self, line, 0, size)
        return bytes(self.data[line][:size]), latency

    def write_block(self, line_addr: int, block: bytes) -> int:
        line = self._find(line_addr)
        latency = self.cfg.hit_latency
        if line is None:
            self.stats.misses += 1
            line, extra = self._fill(line_addr)
            latency += extra
        else:
            self.stats.hits += 1
        self.data[line][: len(block)] = block
        self.dirty[line] = True
        if self.probe:
            self.probe.on_write(self, line, 0, len(block))
        return latency

    # ------------------------------------------------------------ injection

    def flip_bit(self, line: int, bit: int) -> None:
        """Flip one stored data bit (transient fault).

        Guarded against invalid lines: a transient flip only ever lands
        after the injector's ``occupied()`` check (or on a line a probe
        just observed), so reaching an invalid line here means the
        occupancy view and the flip path disagree — a simulator bug that
        must surface as a quarantine, not silently corrupt a dead line.
        """
        if not self.valid[line]:
            raise RuntimeError(
                f"{self.name}: transient flip into invalid line {line} — "
                "occupied() and the flip path disagree"
            )
        self.data[line][bit // 8] ^= 1 << (bit % 8)

    def force_bit(self, line: int, bit: int, value: int) -> bool:
        """Force a stored bit to 0/1 (permanent fault); True if it changed.

        Unlike :meth:`flip_bit` this is legal on invalid lines: a stuck-at
        cell is broken from power-on, whatever the line's valid bit says.
        """
        byte = bit // 8
        mask = 1 << (bit % 8)
        old = self.data[line][byte]
        new = (old | mask) if value else (old & ~mask)
        self.data[line][byte] = new
        return new != old

    def line_valid(self, line: int) -> bool:
        return self.valid[line]

    # ------------------------------------------------------------ state mgmt

    def flush_all(self) -> None:
        """Write back all dirty lines and invalidate (used at checkpoints)."""
        for line in range(self.num_lines):
            if self.valid[line] and self.dirty[line]:
                self._write_lower(self.line_base_addr(line), bytes(self.data[line]))
            self.valid[line] = False
            self.dirty[line] = False

    def snapshot(self) -> dict:
        return {
            "tags": list(self.tags),
            "valid": list(self.valid),
            "dirty": list(self.dirty),
            "data": [bytes(d) for d in self.data],
            "plru": list(self.plru),
        }

    def restore(self, snap: dict) -> None:
        self.tags[:] = snap["tags"]
        self.valid[:] = snap["valid"]
        self.dirty[:] = snap["dirty"]
        for dst, src in zip(self.data, snap["data"]):
            dst[:] = src
        self.plru[:] = snap["plru"]
