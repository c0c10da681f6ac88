"""Physical register files with explicit free lists.

Values are raw 64-bit integers; a transient fault flips a stored bit and the
corrupted value flows to consumers through normal operand reads.  The free
list lets the injector apply the paper's "fault in an unused entry is
masked" early termination: a free physical register is guaranteed to be
written (by the renamer) before its next read.

Each register also carries the consumer list of event-driven issue wakeup:
the issue-queue entries that count it among their not-yet-ready sources.
Every not-ready -> ready change goes through :meth:`PhysRegFile.wake`,
which counts the register off each consumer and clears the list.  The
lists are derived from the issue queue, so :meth:`restore` clears them
and the core rebuilds them.
"""

from __future__ import annotations


class RegFileProbe:
    """Observer for register-level events (armed by the injector)."""

    def on_reg_read(self, rf: "PhysRegFile", reg: int) -> None: ...

    def on_reg_write(self, rf: "PhysRegFile", reg: int) -> None: ...


class PhysRegFile:
    """One physical register file (integer or floating point)."""

    #: architectural width of one register value in bits
    WIDTH = 64

    def __init__(self, name: str, size: int, width: int = WIDTH):
        self.name = name
        self.size = size
        self.width = width
        self.values = [0] * size
        self.ready = [True] * size
        self.free: list[int] = []
        self.probe: RegFileProbe | None = None
        #: per register: the issue-queue entries waiting for it to be ready
        self.consumers: list[list] = [[] for _ in range(size)]
        #: per register: seq of the youngest uop renamed to read it
        self.read_seq = [-1] * size

    def read(self, reg: int) -> int:
        if self.probe:
            self.probe.on_reg_read(self, reg)
        return self.values[reg]

    def write(self, reg: int, value: int) -> None:
        self.values[reg] = value & ((1 << self.width) - 1)
        self.wake(reg)
        if self.probe:  # after mutation, so stuck-at enforcement sees the write
            self.probe.on_reg_write(self, reg)

    def allocate(self) -> int | None:
        """Take a register off the free list (None when exhausted)."""
        if not self.free:
            return None
        reg = self.free.pop()
        self.ready[reg] = False
        return reg

    def release(self, reg: int) -> None:
        self.free.append(reg)

    # ------------------------------------------------------------ wakeup

    def wait(self, reg: int, entry) -> None:
        """Count not-ready ``reg`` as one of ``entry``'s outstanding sources."""
        self.consumers[reg].append(entry)
        entry.pending += 1

    def wake(self, reg: int) -> None:
        """Mark ``reg`` ready and count it off every consumer."""
        self.ready[reg] = True
        consumers = self.consumers[reg]
        if consumers:
            for entry in consumers:
                entry.pending -= 1
            self.consumers[reg] = []

    # ------------------------------------------------------------ injection

    def flip_bit(self, reg: int, bit: int) -> None:
        self.values[reg] ^= 1 << bit

    def force_bit(self, reg: int, bit: int, value: int) -> bool:
        old = self.values[reg]
        new = (old | (1 << bit)) if value else (old & ~(1 << bit))
        self.values[reg] = new
        return new != old

    # ------------------------------------------------------------ state

    def snapshot(self) -> dict:
        return {
            "values": list(self.values),
            "ready": list(self.ready),
            "free": list(self.free),
        }

    def restore(self, snap: dict) -> None:
        self.values[:] = snap["values"]
        self.ready[:] = snap["ready"]
        self.free[:] = snap["free"]
        self.consumers = [[] for _ in range(self.size)]
        self.read_seq = [-1] * self.size
