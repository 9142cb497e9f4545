"""Architectural (non-pipelined) Thumb CPU emulator.

This is the Unicorn replacement used by the Section IV glitch-emulation
campaigns: it executes decoded instructions one at a time against a mapped
memory space and surfaces abnormal conditions as the typed faults the
campaign classifier understands (bad fetch / bad read / invalid
instruction / ...).

The cycle-accurate pipelined core used for the "real-world" experiments
lives in :mod:`repro.hw.pipeline` and reuses this package's memory model
and instruction semantics.

Campaign hot paths build one machine, run it up to the target slot and
snapshot it (:meth:`Memory.snapshot`/:meth:`Memory.restore`,
:meth:`CPU.snapshot`/:meth:`CPU.reset_from`, and ``CPU.decode_cache``).
The default NumPy engine (:mod:`repro.emu.vector`) resumes a whole batch
of corrupted words from that replay point in lock-step; the scalar
snapshot replay runs single words and is the vector engine's
differential oracle.  See ``docs/ARCHITECTURE.md`` for the invariants.
"""

from repro.emu.memory import Memory, MemoryRegion, MemorySnapshot, MMIORegion, PAGE_SIZE
from repro.emu.cpu import CPU, CPUSnapshot, RunResult

__all__ = [
    "Memory",
    "MemoryRegion",
    "MemorySnapshot",
    "MMIORegion",
    "PAGE_SIZE",
    "CPU",
    "CPUSnapshot",
    "RunResult",
]
