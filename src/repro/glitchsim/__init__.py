"""Section IV: glitching effects in emulation (RQ1, Figure 2).

The campaign takes a hand-written snippet that isolates one instruction
(a conditional branch that *would* be taken), applies every possible
:math:`\\binom{n}{k}` bit mask to that instruction under a unidirectional
flip model (AND = 1→0, OR = 0→1, plus XOR for the ablation), executes the
corrupted program in the emulator, and classifies the outcome exactly as
the paper does: *Success*, *Bad Read*, *Invalid Instruction*, *Bad Fetch*,
*Failed*, or *No Effect*.
"""

from repro.glitchsim.snippets import BranchSnippet, branch_snippet, all_branch_snippets
from repro.glitchsim.harness import Outcome, SnippetHarness, OUTCOME_CATEGORIES
from repro.glitchsim.campaign import (
    CampaignResult,
    InstructionSweep,
    run_branch_campaign,
    sweep_instruction,
)
from repro.glitchsim.maskalgebra import (
    multiplicity,
    reachable_words,
    tally_from_word_outcomes,
)
from repro.glitchsim.results import FigureData, figure2, render_figure_ascii, to_csv
from repro.glitchsim.instr_classes import (
    ClassSweepResult,
    sweep_all_classes,
    sweep_instruction_class,
)

__all__ = [
    "BranchSnippet",
    "branch_snippet",
    "all_branch_snippets",
    "Outcome",
    "SnippetHarness",
    "OUTCOME_CATEGORIES",
    "CampaignResult",
    "InstructionSweep",
    "run_branch_campaign",
    "sweep_instruction",
    "reachable_words",
    "multiplicity",
    "tally_from_word_outcomes",
    "FigureData",
    "figure2",
    "render_figure_ascii",
    "to_csv",
    "ClassSweepResult",
    "sweep_all_classes",
    "sweep_instruction_class",
]
