"""Documentation consistency: the READMEs must not rot.

Checks that every module path, benchmark file, and example script the
documentation names actually exists, that the README quickstart code
runs verbatim, that every documented ``python -m repro`` line parses,
that docs/ARCHITECTURE.md covers every public module, and that
docs/EXPERIMENTS.md gives a runnable command for every ``experiment``
subcommand choice.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text()


def _public_modules() -> list[str]:
    """Every importable ``repro.*`` module, underscore names excluded."""
    src = ROOT / "src"
    modules = []
    for path in sorted((src / "repro").rglob("*.py")):
        relative = path.relative_to(src)
        parts = list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if any(part.startswith("_") for part in parts):
            continue
        modules.append(".".join(parts))
    return modules


class TestReferencedPathsExist:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md",
                                     "docs/API.md", "docs/ARCHITECTURE.md",
                                     "docs/EXPERIMENTS.md"])
    def test_benchmark_files_exist(self, doc):
        text = _read(doc)
        for match in re.findall(r"benchmarks/(test_bench_\w+\.py)", text):
            assert (ROOT / "benchmarks" / match).exists(), f"{doc} references missing {match}"

    def test_example_scripts_exist(self):
        text = _read("README.md")
        for match in re.findall(r"`(\w+\.py)` —", text):
            assert (ROOT / "examples" / match).exists(), f"README references missing {match}"

    @pytest.mark.parametrize("doc", ["README.md", "docs/API.md",
                                     "docs/ARCHITECTURE.md",
                                     "docs/EXPERIMENTS.md"])
    def test_module_paths_import(self, doc):
        import importlib

        text = _read(doc)
        for match in set(re.findall(r"`(repro(?:\.\w+)+)`", text)):
            module_path = match
            if any(part.startswith("_") for part in module_path.split(".")):
                continue  # importing repro.__main__ would run the CLI
            try:
                importlib.import_module(module_path)
            except ModuleNotFoundError:
                # could be an attribute path like repro.hw.Board
                parent, _, attr = module_path.rpartition(".")
                module = importlib.import_module(parent)
                assert hasattr(module, attr), f"{doc} references missing {module_path}"


class TestReadmeQuickstartRuns:
    def test_quickstart_block_executes(self):
        text = _read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert blocks, "README has no python blocks"
        namespace: dict = {}
        # the first two blocks form one continuous session (harden → attack)
        exec(blocks[0], namespace)  # noqa: S102 - executing our own docs
        exec(blocks[1], namespace)  # noqa: S102
        assert namespace["board"].cpu.regs[0] == 1
        assert namespace["result"].category in (
            "success", "detected", "reset", "no_effect",
        )


class TestCliDocsCoverage:
    """Every CLI subcommand and long flag must be documented.

    Walks the real parser (``repro.cli.build_parser``) so a newly added
    flag fails this test until README.md and docs/API.md mention it.
    """

    @staticmethod
    def _cli_surface():
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        commands = {}
        for name, sub in subparsers.choices.items():
            flags = set()
            for action in sub._actions:
                for option in action.option_strings:
                    if option.startswith("--"):
                        flags.add(option)
            flags.discard("--help")
            commands[name] = flags
        return commands

    @pytest.mark.parametrize("doc", ["README.md", "docs/API.md"])
    def test_every_subcommand_documented(self, doc):
        text = _read(doc)
        for command in self._cli_surface():
            assert re.search(rf"\b{command}\b", text), (
                f"{doc} does not mention the `{command}` subcommand"
            )

    @pytest.mark.parametrize("doc", ["README.md", "docs/API.md"])
    def test_every_long_flag_documented(self, doc):
        text = _read(doc)
        missing = sorted(
            flag
            for flags in self._cli_surface().values()
            for flag in flags
            if flag not in text
        )
        assert not missing, f"{doc} does not mention CLI flag(s): {missing}"


class TestDocumentedCommandsParse:
    """Every documented ``python -m repro ...`` line must parse.

    The reverse of :class:`TestCliDocsCoverage`: a command line in a
    fenced block that names a removed subcommand or a renamed flag fails
    here. Shell suffixes (`` &``, `` >``, `` |``, `` #``) are cut first.
    """

    DOCS = ["README.md", "docs/API.md", "docs/ARCHITECTURE.md", "docs/EXPERIMENTS.md"]

    @staticmethod
    def _fenced_commands(doc: str) -> list[tuple[int, str]]:
        commands = []
        fenced = False
        for number, line in enumerate(_read(doc).splitlines(), start=1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
            elif fenced and "python -m repro " in line:
                command = line.split("python -m repro ", 1)[1]
                for suffix in (" &", " >", " |", " #"):
                    command = command.split(suffix, 1)[0]
                commands.append((number, command))
        return commands

    def test_docs_carry_command_lines(self):
        # keeps the parse check below from passing on an extractor that finds nothing
        for doc in ("README.md", "docs/API.md", "docs/EXPERIMENTS.md"):
            assert self._fenced_commands(doc), f"{doc}: no fenced repro command lines"

    @pytest.mark.parametrize("doc", DOCS)
    def test_every_command_line_parses(self, doc):
        import shlex

        from repro.cli import build_parser

        unparsable = []
        for number, command in self._fenced_commands(doc):
            try:
                build_parser().parse_args(shlex.split(command))
            except SystemExit:
                unparsable.append(f"{doc}:{number}: {command}")
        assert not unparsable, f"documented command lines do not parse: {unparsable}"


class TestArchitectureDocCoverage:
    """docs/ARCHITECTURE.md must index the whole public module surface."""

    def test_every_public_module_mentioned(self):
        text = _read("docs/ARCHITECTURE.md")
        missing = [m for m in _public_modules() if m not in text]
        assert not missing, (
            f"docs/ARCHITECTURE.md does not mention public module(s): {missing}"
        )

    def test_mentioned_modules_are_not_stale(self):
        """Index rows must name modules that still exist (catches renames)."""
        existing = set(_public_modules())
        text = _read("docs/ARCHITECTURE.md")
        index_rows = re.findall(r"^\| `(repro(?:\.\w+)+)` \|", text, re.MULTILINE)
        assert index_rows, "docs/ARCHITECTURE.md module index is missing"
        stale = [m for m in index_rows if m not in existing]
        assert not stale, f"docs/ARCHITECTURE.md indexes removed module(s): {stale}"

    def test_snapshot_invariants_documented(self):
        """The fast-path contracts the tests pin must stay written down."""
        text = _read("docs/ARCHITECTURE.md")
        for phrase in ("What restore must undo", "Decode-cache invalidation",
                       "region.data", "seed page"):
            assert phrase in text, f"ARCHITECTURE.md lost the {phrase!r} invariant"


class TestExperimentsGuideCoverage:
    """docs/EXPERIMENTS.md must give a runnable command per experiment."""

    @staticmethod
    def _experiment_choices():
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        experiment = subparsers.choices["experiment"]
        positional = next(
            action for action in experiment._actions
            if action.choices and not action.option_strings
        )
        return sorted(positional.choices)

    def test_every_experiment_choice_has_a_command_line(self):
        text = _read("docs/EXPERIMENTS.md")
        missing = [
            name for name in self._experiment_choices()
            if not re.search(rf"python -m repro experiment {name}\b", text)
        ]
        assert not missing, (
            f"docs/EXPERIMENTS.md lacks a `python -m repro experiment <name>` "
            f"command line for: {missing}"
        )

    def test_runnable_blocks_present_and_extractable(self):
        import sys

        sys.path.insert(0, str(ROOT / "tests"))
        try:
            from extract_doc_blocks import extract_runnable_blocks
        finally:
            sys.path.pop(0)
        blocks = extract_runnable_blocks(ROOT / "docs" / "EXPERIMENTS.md")
        languages = {block.language for block in blocks}
        assert "bash" in languages and "python" in languages, (
            "docs/EXPERIMENTS.md must keep at least one runnable bash and one "
            "runnable python block for the CI smoke job"
        )

    def test_runnable_blocks_name_no_fixed_tmp_path(self):
        """Runnable blocks write scratch files under ``"${TMPDIR:-/tmp}"``:
        the block runner gives each block a private ``TMPDIR``, so nothing
        is left behind outside the checkout and concurrent runs never
        share a file."""
        import sys

        sys.path.insert(0, str(ROOT / "tests"))
        try:
            from extract_doc_blocks import extract_runnable_blocks
        finally:
            sys.path.pop(0)
        fixed = [
            f"{block.path.name}:{block.line}"
            for doc in sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
            for block in extract_runnable_blocks(doc)
            if "/tmp/" in block.code
        ]
        assert not fixed, f"runnable blocks naming a literal /tmp/ path: {fixed}"

    def test_golden_numbers_match_the_golden_tests(self):
        """The doc quotes the exact constants test_golden_numbers.py pins."""
        text = _read("docs/EXPERIMENTS.md")
        golden = _read("tests/test_golden_numbers.py")
        for constant in ("0.4252232142857143", "0.12009974888392858",
                         "0.415924072265625", "0.40345982142857145"):
            assert constant in text, f"docs/EXPERIMENTS.md lost golden {constant}"
            assert constant in golden, f"golden test lost constant {constant}"


class TestExperimentsClaimsMatchDrivers:
    def test_every_table_has_a_driver(self):
        import repro.experiments as experiments

        for name in ("run_figure2", "run_table1", "run_table2", "run_table3",
                     "run_table4", "run_table5", "run_table6", "run_table7",
                     "run_search"):
            assert hasattr(experiments, name)

    def test_experiments_md_covers_every_artifact(self):
        text = _read("EXPERIMENTS.md")
        for heading in ("Figure 2", "Table I ", "Table II ", "Table III",
                        "Table IV", "Table V ", "Table VI", "Table VII", "§V-B"):
            assert heading in text, f"EXPERIMENTS.md missing section for {heading!r}"
