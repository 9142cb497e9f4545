"""Register naming for the Thumb core.

Thumb-16 instructions mostly address the *low* registers r0-r7; a handful of
format-5 instructions (ADD/CMP/MOV/BX with the H bits) reach the high
registers r8-r12 and the special registers SP (r13), LR (r14), and PC (r15).
"""

from __future__ import annotations

NUM_REGISTERS = 16

SP = 13
LR = 14
PC = 15

_SPECIAL_NAMES = {13: "sp", 14: "lr", 15: "pc"}
_NAME_TO_NUMBER = {f"r{i}": i for i in range(NUM_REGISTERS)}
_NAME_TO_NUMBER.update({"sp": SP, "lr": LR, "pc": PC, "ip": 12, "fp": 11, "sl": 10, "sb": 9})


def register_name(number: int) -> str:
    """Canonical lowercase name for register ``number`` (``r0``..``r12``, ``sp``, ``lr``, ``pc``)."""
    if not 0 <= number < NUM_REGISTERS:
        raise ValueError(f"register number out of range: {number}")
    return _SPECIAL_NAMES.get(number, f"r{number}")


def register_number(name: str) -> int:
    """Parse a register name (case-insensitive, accepts aliases like ``ip``)."""
    try:
        return _NAME_TO_NUMBER[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown register name: {name!r}") from None
