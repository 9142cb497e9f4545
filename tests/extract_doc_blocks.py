"""Extract and smoke-run ``runnable``-marked code blocks from the docs.

Documentation rots when its examples stop working, so any fenced block
whose info string contains the word ``runnable`` (for example
```` ```bash runnable ```` or ```` ```python runnable ````) is part of
the test surface: the CI docs job executes every one of them with

    python tests/extract_doc_blocks.py --run docs/EXPERIMENTS.md

Supported languages: ``bash`` (each non-comment line is run as a shell
command) and ``python`` (the block is executed as a script). Commands
run from the repository root with ``src`` prepended to ``PYTHONPATH``,
matching the setup the docs tell readers to use. Each block gets its own
``TMPDIR``, shared by its lines and removed afterwards, so blocks write
scratch files under ``"${TMPDIR:-/tmp}"`` and never a fixed path.

`tests/test_docs_consistency.py` imports :func:`extract_runnable_blocks`
to assert the docs keep at least one runnable block per language.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FENCE = re.compile(r"^```(\S*)[ \t]*(.*)$")


@dataclass(frozen=True)
class DocBlock:
    """One fenced code block lifted out of a markdown file."""

    path: Path  # the markdown file it came from
    line: int  # 1-based line number of the opening fence
    language: str  # the first word of the info string ("bash", "python")
    code: str  # block body, fences stripped


def extract_runnable_blocks(markdown_path: Path) -> list[DocBlock]:
    """Return every fenced block marked ``runnable`` in *markdown_path*.

    A block is runnable when the info string after the language word
    contains the token ``runnable``: ```` ```bash runnable ````.
    Unmarked blocks (golden-number listings, slow commands) are skipped.
    """
    blocks: list[DocBlock] = []
    language = None
    body: list[str] = []
    start = 0
    for number, raw in enumerate(markdown_path.read_text().splitlines(), start=1):
        match = _FENCE.match(raw.strip())
        if match is None:
            if language is not None:
                body.append(raw)
            continue
        if language is None:
            info = match.group(2).split()
            if "runnable" in info:
                language = match.group(1)
                body = []
                start = number
        else:
            blocks.append(
                DocBlock(path=markdown_path, line=start, language=language,
                         code="\n".join(body))
            )
            language = None
    return blocks


def run_block(block: DocBlock) -> None:
    """Execute one block in a private ``TMPDIR``, raising
    ``CalledProcessError`` on failure."""
    with tempfile.TemporaryDirectory(prefix="doc-block-") as tmp:
        _run_block(block, tmp)


def _run_block(block: DocBlock, tmp: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = tmp
    if block.language == "bash":
        for line in block.code.splitlines():
            command = line.strip()
            if not command or command.startswith("#"):
                continue
            subprocess.run(
                command, shell=True, check=True, cwd=ROOT, env=env,
                stdout=subprocess.DEVNULL,
            )
    elif block.language == "python":
        subprocess.run(
            [sys.executable, "-c", block.code], check=True, cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL,
        )
    else:
        raise ValueError(
            f"{block.path.name}:{block.line}: no runner for language "
            f"{block.language!r} (mark only bash/python blocks runnable)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path, help="markdown files")
    parser.add_argument(
        "--run", action="store_true",
        help="execute the blocks instead of just listing them",
    )
    args = parser.parse_args(argv)
    failures = 0
    for path in args.files:
        for block in extract_runnable_blocks(path):
            label = f"{path}:{block.line} [{block.language}]"
            if not args.run:
                print(label)
                continue
            try:
                run_block(block)
            except (subprocess.CalledProcessError, ValueError) as exc:
                failures += 1
                print(f"FAIL {label}: {exc}", file=sys.stderr)
            else:
                print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
