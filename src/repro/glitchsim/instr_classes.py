"""Instruction-class fault-tolerance sweeps — the emulation analogue of §V-A.

The real-world experiments found that instruction classes differ sharply in
glitchability: loads/stores are susceptible, register-register ALU ops
"appear to be exceptionally difficult to glitch". This module asks the
*encoding-level* version of that question: for a representative instruction
of each class, what fraction of unidirectional bit-flip corruptions

- silently neutralise it (it no longer performs its job but execution
  continues — the dangerous "skip" outcome), versus
- derail execution (fault/invalid — detectable by a watchdog)?

This extends the Figure 2 framework beyond conditional branches, using the
same snippet + classification machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.emu import CPU, Memory
from repro.isa import assemble

FLASH_BASE = 0x0800_0000
RAM_BASE = 0x2000_0000
RAM_SIZE = 0x1000

#: (class name, snippet source, judge) — ``target:`` marks the instruction
#: under test; ``judge`` names the check :func:`_classify_vector` applies to
#: decide whether its architectural job was done.
_CLASS_CASES: dict[str, tuple[str, str]] = {
    # load: r2 must receive the value stored at [r1]
    "load": (
        """
        ldr r1, =0x20000800
        ldr r0, =0xCAFE0042
        str r0, [r1]
        movs r2, #0
    target:
        ldr r2, [r1]
        bkpt #0
        """,
        "load",
    ),
    # store: memory at [r1] must receive r0
    "store": (
        """
        ldr r1, =0x20000800
        ldr r0, =0xCAFE0042
    target:
        str r0, [r1]
        bkpt #0
        """,
        "store",
    ),
    # compare: the flags must reflect r0 == r1 (checked via a dependent branch)
    "compare": (
        """
        movs r0, #5
        movs r1, #5
        movs r3, #0
    target:
        cmp r0, r1
        beq good
        bkpt #0
    good:
        movs r3, #1
        bkpt #0
        """,
        "compare",
    ),
    # alu: r2 must become r0 + r1
    "alu": (
        """
        movs r0, #21
        movs r1, #21
        movs r2, #0
    target:
        adds r2, r0, r1
        bkpt #0
        """,
        "alu",
    ),
    # move: r2 must receive r0
    "move": (
        """
        movs r0, #0x5A
        movs r2, #0
    target:
        adds r2, r0, #0
        bkpt #0
        """,
        "move",
    ),
}


@dataclass
class ClassSweepResult:
    """Per-class tallies over all masks of all flip counts."""

    instruction_class: str
    model: str
    attempts: int = 0
    #: the job silently didn't happen but execution completed normally
    silent_neutralizations: int = 0
    #: execution derailed (fault / invalid / no clean halt)
    derailments: int = 0
    #: the corrupted encoding still did its job
    still_effective: int = 0

    @property
    def derail_rate(self) -> float:
        return self.derailments / self.attempts if self.attempts else 0.0


def sweep_instruction_class(
    instruction_class: str,
    model: str = "and",
    k_values: tuple[int, ...] | None = None,
) -> ClassSweepResult:
    """Sweep every bit-flip mask over one class's target instruction.

    Classifies each unique reachable corrupted word once, as one
    lock-step batch on the NumPy backend (:mod:`repro.emu.vector`), and
    derives the mask counts in closed form via
    :mod:`repro.glitchsim.maskalgebra`.
    """
    try:
        source, judge_kind = _CLASS_CASES[instruction_class]
    except KeyError:
        raise ValueError(
            f"unknown instruction class {instruction_class!r}; "
            f"expected one of {sorted(_CLASS_CASES)}"
        ) from None
    from repro.glitchsim.maskalgebra import reachable_words, tally_from_word_outcomes

    program = assemble(source, base=FLASH_BASE)
    target_index = (program.symbols["target"] - FLASH_BASE) // 2
    halfwords = program.halfwords
    original = halfwords[target_index]

    result = ClassSweepResult(instruction_class=instruction_class, model=model)
    ks = k_values if k_values is not None else tuple(range(17))
    words = reachable_words(original, model, 16, ks).tolist()
    word_buckets = _classify_vector(halfwords, target_index, words, judge_kind)
    for counter in tally_from_word_outcomes(original, model, word_buckets, ks, 16).values():
        for bucket, count in counter.items():
            result.attempts += count
            if bucket == "effective":
                result.still_effective += count
            elif bucket == "silent":
                result.silent_neutralizations += count
            else:
                result.derailments += count
    return result


def _classify_vector(
    halfwords: list[int], index: int, words: list[int], judge_kind: str
) -> dict[int, str]:
    """Batch-classify every unique corrupted word as one lock-step run.

    The setup prefix never fetches or reads the target slot, so it runs
    once on the scalar CPU up to the target instruction; the NumPy engine
    resumes every lane from that state with the leftover step budget —
    exactly a continuous ``cpu.run(64)`` of the corrupted program.
    """
    from repro.emu.vector import ST_HALTED

    batch = _class_engine(halfwords, index, judge_kind).run(words)
    if judge_kind == "store":
        job_done = batch.read_ram_u32(0x2000_0800) == 0xCAFE0042
    elif judge_kind == "compare":
        job_done = batch.reg(3) == 1
    else:
        expected = {"load": 0xCAFE0042, "alu": 42, "move": 0x5A}[judge_kind]
        job_done = batch.reg(2) == expected
    halted = batch.status == ST_HALTED
    return {
        word: ("effective" if job_done[i] else "silent") if halted[i] else "derailed"
        for i, word in enumerate(words)
    }


def _class_engine(halfwords: list[int], index: int, judge_kind: str):
    """The :class:`repro.emu.vector.VectorEngine` paused at the target
    instruction, after the setup prefix ran on the scalar CPU."""
    from repro.bits import halfwords_to_bytes
    from repro.emu.vector import VectorEngine

    target_address = FLASH_BASE + 2 * index
    memory = Memory()
    memory.map("flash", FLASH_BASE, 0x400, writable=False, executable=True)
    memory.map("ram", RAM_BASE, RAM_SIZE)
    memory.load(FLASH_BASE, halfwords_to_bytes(halfwords))
    cpu = CPU(memory)
    cpu.pc = FLASH_BASE
    cpu.sp = RAM_BASE + RAM_SIZE
    prefix = cpu.run(64, stop_addresses=(target_address,))
    if prefix.reason != "stop_addr":
        raise ValueError(
            f"instruction class {judge_kind!r}: the setup prefix never "
            f"reaches the target instruction"
        )
    return VectorEngine(
        flash_base=FLASH_BASE,
        flash_bytes=bytes(memory.region_at(FLASH_BASE).data),
        target_address=target_address,
        ram_base=RAM_BASE,
        ram_bytes=bytes(memory.region_at(RAM_BASE).data),
        init_regs=cpu.regs,
        init_flags=cpu.flags,
        budget=64 - prefix.steps,
        zero_is_invalid=False,
    )


def sweep_all_classes(model: str = "and") -> dict[str, ClassSweepResult]:
    """Sweep every class; returns {class: result}."""
    return {name: sweep_instruction_class(name, model) for name in _CLASS_CASES}


__all__ = ["ClassSweepResult", "sweep_instruction_class", "sweep_all_classes"]
