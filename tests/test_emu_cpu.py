"""CPU execution tests: programs assembled from source, run, and inspected."""

import pytest

from repro.errors import (
    AlignmentFault, BadFetch, BadRead, BadWrite, EmulationFault, InvalidInstruction,
)
from repro.isa import assemble
from repro.emu import CPU, Memory

FLASH_BASE = 0x0800_0000
RAM_BASE = 0x2000_0000


def make_cpu(source: str, ram_size: int = 0x1000, **cpu_kwargs) -> CPU:
    program = assemble(source, base=FLASH_BASE)
    memory = Memory()
    memory.map("flash", FLASH_BASE, max(0x1000, len(program.code)), writable=False, executable=True)
    memory.map("ram", RAM_BASE, ram_size)
    memory.load(FLASH_BASE, program.code)
    cpu = CPU(memory, **cpu_kwargs)
    cpu.pc = FLASH_BASE
    cpu.sp = RAM_BASE + ram_size
    return cpu


def run(source: str, max_steps: int = 1000) -> CPU:
    cpu = make_cpu(source)
    result = cpu.run(max_steps)
    assert result.reason == "halted", f"program did not halt: {result}"
    return cpu


class TestArithmetic:
    def test_loop_counts_to_five(self):
        cpu = run(
            """
            movs r0, #0
            movs r1, #5
            loop:
            adds r0, r0, #1
            cmp r0, r1
            bne loop
            bkpt #0
            """
        )
        assert cpu.regs[0] == 5

    def test_subs_borrow_flags(self):
        cpu = run("movs r0, #3\nsubs r0, r0, #5\nbkpt #0")
        assert cpu.regs[0] == 0xFFFFFFFE
        assert cpu.flags.n and not cpu.flags.c

    def test_adcs_chain(self):
        # 0xFFFFFFFF + 1 = 0 carry 1; then 0 + 0 + carry = 1
        cpu = run(
            """
            movs r0, #0
            mvns r0, r0
            movs r1, #1
            adds r0, r0, r1
            movs r2, #0
            movs r3, #0
            adcs r2, r3
            bkpt #0
            """
        )
        assert cpu.regs[0] == 0
        assert cpu.regs[2] == 1

    def test_muls(self):
        cpu = run("movs r0, #7\nmovs r1, #6\nmuls r0, r1\nbkpt #0")
        assert cpu.regs[0] == 42

    def test_negs(self):
        cpu = run("movs r1, #5\nnegs r0, r1\nbkpt #0")
        assert cpu.regs[0] == 0xFFFFFFFB

    def test_logic_ops(self):
        cpu = run(
            """
            movs r0, #0xF0
            movs r1, #0xCC
            movs r2, #0xF0
            ands r2, r1
            movs r3, #0xF0
            orrs r3, r1
            movs r4, #0xF0
            eors r4, r1
            movs r5, #0xF0
            bics r5, r1
            bkpt #0
            """
        )
        assert cpu.regs[2] == 0xC0
        assert cpu.regs[3] == 0xFC
        assert cpu.regs[4] == 0x3C
        assert cpu.regs[5] == 0x30

    def test_shift_by_register_large(self):
        cpu = run("movs r0, #1\nmovs r1, #33\nlsls r0, r1\nbkpt #0")
        assert cpu.regs[0] == 0

    def test_lsr_imm_zero_means_32(self):
        cpu = run("movs r0, #0\nmvns r0, r0\nlsrs r0, r0, #0\nbkpt #0")
        assert cpu.regs[0] == 0
        assert cpu.flags.c  # bit 31 shifted out


class TestConditionals:
    @pytest.mark.parametrize(
        "setup,branch,taken",
        [
            ("movs r0, #0\ncmp r0, #0", "beq", True),
            ("movs r0, #1\ncmp r0, #0", "beq", False),
            ("movs r0, #1\ncmp r0, #0", "bne", True),
            ("movs r0, #5\ncmp r0, #3", "bhi", True),
            ("movs r0, #3\ncmp r0, #5", "bcc", True),
            ("movs r0, #3\ncmp r0, #5", "blt", True),
            ("movs r0, #5\ncmp r0, #3", "bgt", True),
            ("movs r0, #3\ncmp r0, #3", "ble", True),
            ("movs r0, #3\ncmp r0, #3", "bge", True),
        ],
    )
    def test_branch_taken(self, setup, branch, taken):
        cpu = run(
            f"""
            {setup}
            {branch} yes
            movs r7, #0
            bkpt #0
            yes:
            movs r7, #1
            bkpt #0
            """
        )
        assert cpu.regs[7] == (1 if taken else 0)

    def test_signed_vs_unsigned_comparison(self):
        # -1 (0xFFFFFFFF) is less-than 1 signed (blt) but higher unsigned (bhi)
        cpu = run(
            """
            movs r0, #0
            mvns r0, r0
            cmp r0, #1
            blt signed_less
            movs r6, #0
            b next
            signed_less:
            movs r6, #1
            next:
            cmp r0, #1
            bhi unsigned_higher
            movs r7, #0
            bkpt #0
            unsigned_higher:
            movs r7, #1
            bkpt #0
            """
        )
        assert cpu.regs[6] == 1
        assert cpu.regs[7] == 1


class TestMemoryAccess:
    def test_store_load_word(self):
        cpu = run(
            f"""
            ldr r0, =0x20000000
            ldr r1, =0xDEADBEEF
            str r1, [r0]
            ldr r2, [r0]
            bkpt #0
            """
        )
        assert cpu.regs[2] == 0xDEADBEEF

    def test_byte_and_half_access(self):
        cpu = run(
            """
            ldr r0, =0x20000000
            ldr r1, =0x12345678
            str r1, [r0]
            ldrb r2, [r0]
            ldrh r3, [r0]
            bkpt #0
            """
        )
        assert cpu.regs[2] == 0x78
        assert cpu.regs[3] == 0x5678

    def test_sign_extended_loads(self):
        cpu = run(
            """
            ldr r0, =0x20000000
            movs r1, #0xFF
            strb r1, [r0]
            movs r2, #0
            ldrsb r3, [r0, r2]
            bkpt #0
            """
        )
        assert cpu.regs[3] == 0xFFFFFFFF

    def test_sp_relative(self):
        cpu = run(
            """
            sub sp, #8
            movs r0, #0x42
            str r0, [sp, #4]
            ldr r1, [sp, #4]
            bkpt #0
            """
        )
        assert cpu.regs[1] == 0x42

    def test_unmapped_read_faults(self):
        cpu = make_cpu("ldr r0, =0x40000000\nldr r1, [r0]\nbkpt #0")
        with pytest.raises(BadRead):
            cpu.run(10)

    def test_write_to_flash_faults(self):
        cpu = make_cpu("ldr r0, =0x08000000\nmovs r1, #1\nstr r1, [r0]\nbkpt #0")
        with pytest.raises(BadWrite):
            cpu.run(10)

    def test_unaligned_word_load_faults(self):
        cpu = make_cpu("ldr r0, =0x20000001\nldr r1, [r0]\nbkpt #0")
        with pytest.raises(AlignmentFault):
            cpu.run(10)


class TestStack:
    def test_push_pop_roundtrip(self):
        cpu = run(
            """
            movs r0, #1
            movs r1, #2
            movs r2, #3
            push {r0-r2}
            movs r0, #0
            movs r1, #0
            movs r2, #0
            pop {r0-r2}
            bkpt #0
            """
        )
        assert (cpu.regs[0], cpu.regs[1], cpu.regs[2]) == (1, 2, 3)

    def test_push_descending_layout(self):
        cpu = run("movs r0, #1\nmovs r1, #2\npush {r0, r1}\nbkpt #0")
        assert cpu.memory.read_u32(cpu.sp) == 1
        assert cpu.memory.read_u32(cpu.sp + 4) == 2

    def test_call_and_return(self):
        cpu = run(
            """
            movs r0, #1
            bl func
            adds r0, #8
            bkpt #0
            func:
            adds r0, #2
            bx lr
            """
        )
        assert cpu.regs[0] == 11

    def test_pop_pc_returns(self):
        cpu = run(
            """
            bl func
            movs r7, #0x55
            bkpt #0
            func:
            push {r4, lr}
            movs r4, #9
            pop {r4, pc}
            """
        )
        assert cpu.regs[7] == 0x55

    def test_ldmia_stmia(self):
        cpu = run(
            """
            ldr r0, =0x20000100
            movs r1, #0x11
            movs r2, #0x22
            stmia r0!, {r1, r2}
            ldr r0, =0x20000100
            ldmia r0!, {r3, r4}
            bkpt #0
            """
        )
        assert (cpu.regs[3], cpu.regs[4]) == (0x11, 0x22)
        assert cpu.regs[0] == 0x20000108


class TestControlFaults:
    def test_bx_to_arm_state_faults(self):
        cpu = make_cpu("movs r0, #4\nbx r0\nbkpt #0")
        with pytest.raises(BadFetch):
            cpu.run(10)

    def test_fetch_unmapped_faults(self):
        cpu = make_cpu("ldr r0, =0x40000001\nbx r0\nbkpt #0")
        with pytest.raises(BadFetch):
            cpu.run(10)

    def test_svc_without_handler_faults(self):
        cpu = make_cpu("svc #1\nbkpt #0")
        with pytest.raises(EmulationFault):
            cpu.run(10)

    def test_svc_handler_invoked(self):
        calls = []
        cpu = make_cpu("svc #7\nbkpt #0")
        cpu.svc_handler = lambda c, imm: calls.append(imm)
        cpu.run(10)
        assert calls == [7]

    def test_cached_invalid_decode_does_not_grow_its_traceback(self):
        # fetch_and_decode caches the InvalidInstruction for a bad
        # encoding; re-raising the cached instance must not keep the
        # frames of every earlier raise alive on its __traceback__
        cpu = make_cpu(".hword 0x0000", zero_is_invalid=True)
        cpu.decode_cache = {}

        def raised_in_decoder(tb) -> int:
            depth = 0
            while tb is not None:
                depth += tb.tb_frame.f_code is CPU.fetch_and_decode.__code__
                tb = tb.tb_next
            return depth

        for _ in range(3):
            with pytest.raises(InvalidInstruction) as info:
                cpu.fetch_and_decode(FLASH_BASE)
            assert raised_in_decoder(info.value.__traceback__) == 1
        assert len(cpu.decode_cache) == 1

    def test_run_limit(self):
        cpu = make_cpu("loop: b loop")
        result = cpu.run(25)
        assert result.reason == "limit"
        assert result.steps == 25

    def test_stop_address(self):
        cpu = make_cpu("movs r0, #1\nmovs r1, #2\nbkpt #0")
        result = cpu.run(100, stop_addresses={0x0800_0002})
        assert result.reason == "stop_addr"
        assert cpu.regs[0] == 1
        assert cpu.regs[1] == 0


class TestMiscInstructions:
    def test_extends(self):
        cpu = run(
            """
            ldr r0, =0x000080FF
            sxtb r1, r0
            uxtb r2, r0
            sxth r3, r0
            uxth r4, r0
            bkpt #0
            """
        )
        assert cpu.regs[1] == 0xFFFFFFFF
        assert cpu.regs[2] == 0xFF
        assert cpu.regs[3] == 0xFFFF80FF
        assert cpu.regs[4] == 0x80FF

    def test_rev(self):
        cpu = run("ldr r0, =0x12345678\nrev r1, r0\nrev16 r2, r0\nbkpt #0")
        assert cpu.regs[1] == 0x78563412
        assert cpu.regs[2] == 0x34127856

    def test_adr(self):
        cpu = run(
            """
            adr r0, data
            ldr r1, [r0]
            bkpt #0
            .align
            data:
            .word 0x13371337
            """
        )
        assert cpu.regs[1] == 0x13371337

    def test_wfi_halts(self):
        cpu = make_cpu("wfi\nmovs r0, #1\nbkpt #0")
        result = cpu.run(10)
        assert result.reason == "halted"
        assert cpu.regs[0] == 0

    def test_pre_execute_hook(self):
        trace = []
        cpu = make_cpu("movs r0, #1\nmovs r1, #2\nbkpt #0")
        cpu.pre_execute_hooks.append(lambda c, addr, instr: trace.append(instr.mnemonic))
        cpu.run(10)
        assert trace == ["movs", "movs", "bkpt"]
