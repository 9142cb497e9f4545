"""Selective instrumentation via static reachability analysis.

The paper closes §VII-A with: "Eventually, we want to use existing static
analysis techniques to further reduce the regions of code that need to be
instrumented." This module implements that future-work item: given a set
of *critical* functions (e.g. ``win``, ``unlock``, ``erase_flash``), a
reachability analysis over the IR marks:

- the functions from which a critical call is reachable in the call graph;
- within those functions, the conditional branches whose **true successor**
  can reach a critical call without re-crossing the branch.

The redundancy passes can then restrict themselves to the guarding
branches that actually protect something, cutting the instrumentation (and
its overhead) on code that never leads anywhere security-relevant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler import ir


@dataclass
class SelectiveAnalysis:
    """Result of the reachability analysis."""

    critical_functions: tuple[str, ...]
    #: functions from which a critical call is reachable (incl. critical ones)
    relevant_functions: set[str] = field(default_factory=set)
    #: (function, block label) pairs whose CondBr guards a critical region
    guarding_branches: set[tuple[str, str]] = field(default_factory=set)

    def guards(self, function: str) -> set[str]:
        return {label for fn, label in self.guarding_branches if fn == function}


def analyze_critical_reachability(
    module: ir.IRModule, critical: tuple[str, ...]
) -> SelectiveAnalysis:
    """Compute which functions and branches can reach a critical call."""
    analysis = SelectiveAnalysis(critical_functions=tuple(critical))

    # ------------------------------------------------------------------
    # call graph: which functions (transitively) call a critical function?
    # ------------------------------------------------------------------
    callers: dict[str, set[str]] = {name: set() for name in module.functions}
    calls: dict[str, set[str]] = {name: set() for name in module.functions}
    for name, function in module.functions.items():
        for _, instr in function.instructions():
            if isinstance(instr, ir.Call):
                calls[name].add(instr.func)
                if instr.func in callers:
                    callers[instr.func].add(name)

    relevant = set(c for c in critical if c in module.functions)
    worklist = list(relevant)
    while worklist:
        current = worklist.pop()
        for caller in callers.get(current, ()):
            if caller not in relevant:
                relevant.add(caller)
                worklist.append(caller)
    analysis.relevant_functions = relevant

    # ------------------------------------------------------------------
    # intra-procedural: blocks that reach a critical-call block
    # ------------------------------------------------------------------
    critical_callees = set(critical) | {
        f for f in relevant if f not in critical
    }
    for name, function in module.functions.items():
        if name not in relevant and not _calls_any(function, critical_callees):
            continue
        for label, block in function.blocks.items():
            terminator = block.terminator
            if not isinstance(terminator, ir.CondBr):
                continue
            # "can reach a critical call without re-crossing the branch":
            # forward reachability from the true successor with the branch
            # block removed — a loop guard whose body only loops back is
            # therefore NOT a guard, even if code after the loop is critical
            if _reaches_critical(function, terminator.if_true, label, critical_callees):
                analysis.guarding_branches.add((name, label))
    return analysis


def _reaches_critical(
    function: ir.IRFunction, start: str, excluded: str, names: set[str]
) -> bool:
    """Forward BFS from ``start``, never expanding ``excluded``."""
    seen = {excluded}
    worklist = [start]
    while worklist:
        label = worklist.pop()
        if label in seen:
            continue
        seen.add(label)
        block = function.blocks.get(label)
        if block is None:
            continue
        if any(isinstance(i, ir.Call) and i.func in names for i in block.instrs):
            return True
        if block.terminator is not None:
            worklist.extend(block.terminator.successors())
    return False


def _calls_any(function: ir.IRFunction, names: set[str]) -> bool:
    return any(
        isinstance(instr, ir.Call) and instr.func in names
        for _, instr in function.instructions()
    )


__all__ = ["SelectiveAnalysis", "analyze_critical_reachability"]
