"""ENUM Rewriter (§VI-A.a) — the AST-level constant-diversification defense.

The paper implements this as a Clang source rewriter because "in the LLVM
IR ... ENUMs will be replaced by corresponding constant values, and it is
hard to detect which constant is the result of an ENUM expansion". Our
equivalent operates on the analyzed program before lowering, for the same
reason: after lowering, enum identity is gone.

Only *fully uninitialized* enum declarations are rewritten — partially or
fully initialized declarations "could represent certain expected values"
and are left alone, exactly as the paper specifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codes import generate_diversified_constants, min_pairwise_distance
from repro.compiler.sema import Program


@dataclass
class EnumRewriteResult:
    program: Program
    #: enum-set name → {enumerator: new value}
    rewritten: dict[str, dict[str, int]] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)


def rewrite_enums(program: Program, min_distance: int = 8) -> EnumRewriteResult:
    """Replace uninitialized enum values with Reed-Solomon-derived constants.

    The returned program's ``enum_values`` map carries the diversified
    values; every later use (lowering folds enumerators to constants)
    inherits them automatically.
    """
    result = EnumRewriteResult(program=program)
    for index, enum in enumerate(program.unit.enums()):
        label = enum.name or f"<anonymous #{index}>"
        if not enum.fully_uninitialized:
            result.skipped.append(label)
            continue
        count = len(enum.enumerators)
        values = generate_diversified_constants(count, min_distance=min_distance)
        assert min_pairwise_distance(values) >= min_distance or count < 2
        mapping: dict[str, int] = {}
        for enumerator, value in zip(enum.enumerators, values):
            program.enum_values[enumerator.name] = value
            mapping[enumerator.name] = value
        result.rewritten[label] = mapping
    return result


__all__ = ["rewrite_enums", "EnumRewriteResult"]
