"""The simulated STM32F0-style target board.

Memory map (a simplified STM32F071):

===============  ============  =====================================
region           base          purpose
===============  ============  =====================================
flash            0x0800_0000   firmware code + rodata (execute-only)
seed flash page  0x0801_F800   writable option page; persists across
                               resets — GlitchResistor stores its
                               random-delay PRNG seed here (§VI-B.1)
SRAM             0x2000_0000   data / stack (16 KiB)
GPIOA            0x4800_0000   ODR at +0x14 — the glitch trigger pin
DWT cycle ctr    0xE000_1004   reads the pipeline cycle count (§VII-A)
===============  ============  =====================================

The GPIO output-data register is the paper's "perfect trigger": firmware
writes the pin "exactly 1 clock cycle before the targeted instruction",
and the glitcher counts ``ext_offset`` cycles from there.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.emu import CPU, Memory, MemoryRegion, MMIORegion
from repro.hw.pipeline import PipelinedCPU
from repro.isa.assembler import AssembledProgram

FLASH_BASE = 0x0800_0000
FLASH_SIZE = 0x0001_F800
SEED_PAGE_BASE = 0x0801_F800
SEED_PAGE_SIZE = 0x800
SRAM_BASE = 0x2000_0000
SRAM_SIZE = 0x4000
GPIO_BASE = 0x4800_0000
GPIO_SIZE = 0x400
GPIO_ODR_OFFSET = 0x14
DWT_BASE = 0xE000_1000
DWT_SIZE = 0x10
DWT_CYCCNT_OFFSET = 0x4

TRIGGER_ADDRESS = GPIO_BASE + GPIO_ODR_OFFSET


class Board:
    """One powered target: firmware in flash, CPU + pipeline, trigger pin.

    ``reset()`` reloads flash and clears SRAM but *preserves the seed page*,
    like pulling the reset line on real hardware — the behaviour the
    random-delay defense's reboot-persistent seed depends on.
    """

    def __init__(self, firmware: AssembledProgram, zero_is_invalid: bool = False):
        if firmware.base != FLASH_BASE:
            raise ValueError(
                f"firmware must be linked at {FLASH_BASE:#010x}, got {firmware.base:#010x}"
            )
        if len(firmware.code) > FLASH_SIZE:
            raise ValueError(f"firmware too large: {len(firmware.code)} bytes")
        self.firmware = firmware
        self.zero_is_invalid = zero_is_invalid
        self.boot_count = 0
        self._seed_page = bytearray(SEED_PAGE_SIZE)
        #: called as trigger_callback(cycle_count_placeholder, value) on ODR writes
        self.trigger_callback: Optional[Callable[[int], None]] = None
        self.cpu: CPU = None  # type: ignore[assignment]
        self.pipeline: PipelinedCPU = None  # type: ignore[assignment]
        self._gpio_state = 0
        #: MMIO reads served so far; the glitcher's settled-loop exit sees
        #: writes, MMIO ones included, through ``Memory.write_log``
        self.mmio_reads = 0
        self.reset()

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Power-cycle: rebuild memory (seed page preserved), reload firmware."""
        memory = Memory()
        memory.map("flash", FLASH_BASE, FLASH_SIZE, writable=False, executable=True)
        memory.map_region(
            MemoryRegion(
                name="seed_flash", base=SEED_PAGE_BASE, size=SEED_PAGE_SIZE,
                data=bytearray(self._seed_page),
            )
        )
        # Power-on SRAM is not zeroed on real silicon; a non-zero fill
        # pattern keeps wrong-address loads from reading convenient zeros.
        memory.map_region(
            MemoryRegion(
                name="sram", base=SRAM_BASE, size=SRAM_SIZE,
                data=bytearray(b"\xa5" * SRAM_SIZE),
            )
        )
        memory.map_region(
            MMIORegion(
                name="gpioa", base=GPIO_BASE, size=GPIO_SIZE,
                on_read=self._gpio_read, on_write=self._gpio_write,
            )
        )
        memory.map_region(
            MMIORegion(
                name="dwt", base=DWT_BASE, size=DWT_SIZE,
                on_read=self._dwt_read, on_write=lambda *_: None,
            )
        )
        memory.load(FLASH_BASE, self.firmware.code)

        self.cpu = CPU(memory, zero_is_invalid=self.zero_is_invalid)
        self.cpu.pc = self._entry_point()
        self.cpu.sp = SRAM_BASE + SRAM_SIZE
        self.pipeline = PipelinedCPU(self.cpu)
        self._seed_region = memory.region_at(SEED_PAGE_BASE)
        self._gpio_state = 0
        self.boot_count += 1

    def _entry_point(self) -> int:
        return self.firmware.symbols.get("_start", FLASH_BASE)

    def persist_nonvolatile(self) -> None:
        """Commit the seed page back to 'silicon' so it survives the next reset."""
        self._seed_page = bytearray(self._seed_region.data)

    # ------------------------------------------------------------------
    # devices
    # ------------------------------------------------------------------

    def _gpio_read(self, offset: int, length: int) -> int:
        self.mmio_reads += 1
        if offset == GPIO_ODR_OFFSET:
            return self._gpio_state
        return 0

    def _gpio_write(self, offset: int, length: int, value: int) -> None:
        if offset == GPIO_ODR_OFFSET:
            rising = value & ~self._gpio_state
            self._gpio_state = value
            self.cpu.last_bus_address = TRIGGER_ADDRESS  # bus residue for the fault model
            if rising and self.trigger_callback is not None:
                self.trigger_callback(value)

    def _dwt_read(self, offset: int, length: int) -> int:
        self.mmio_reads += 1
        if offset == DWT_CYCCNT_OFFSET:
            return self.pipeline.cycles & 0xFFFFFFFF
        return 0

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    def symbol(self, name: str) -> int:
        return self.firmware.address_of(name)

    def run(self, max_cycles: int) -> str:
        """Run freely (no glitching); returns the pipeline's stop reason."""
        reason = self.pipeline.run(max_cycles)
        self.persist_nonvolatile()
        return reason


__all__ = [
    "Board",
    "FLASH_BASE",
    "FLASH_SIZE",
    "SEED_PAGE_BASE",
    "SRAM_BASE",
    "SRAM_SIZE",
    "GPIO_BASE",
    "DWT_BASE",
    "TRIGGER_ADDRESS",
]
