"""Documentation guards.

Extract and execute the Python code blocks in README.md and docs/model.md —
documentation that drifts from the API should fail CI, not readers.  Also
smoke-runs the fastest examples in-process, and checks that every
``repro`` subcommand, subcommand option, ``BENCH_*.json`` artifact,
backticked source file and backticked ``repro.`` dotted path that
README.md, DESIGN.md, EXPERIMENTS.md or docs/ names exists.
"""

import argparse
import importlib
import pathlib
import re
import runpy

import pytest

from repro.cli import _build_parser

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

#: ``repro <cmd>`` at the start of a line or of inline code, including
#: pipe-separated lists such as ``repro list | experiment | all``.
COMMAND = re.compile(r"(?:^[ \t]*|`)repro ([a-z][\w-]*(?: \| [a-z][\w-]*)*)",
                     flags=re.MULTILINE)
ARTIFACT = re.compile(r"BENCH_\w+\.json")
#: a long option such as ``--stats-out``, not the tail of ``a--b``.
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
#: inline code, not a code fence.
INLINE_CODE = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
#: a repo source path; a ``::test`` or ``:line`` suffix is not part of it.
SOURCE_PATH = re.compile(
    r"(?<![\w/.-])((?:src|tests|benchmarks|perfbench|examples)/[\w/.-]*\.py)"
    r"(?![\w/.-])"
)
#: a dotted path under the package, such as ``repro.core.digest`` or
#: ``repro.opt.solve_opt``; a trailing ``*`` names an attribute prefix.
DOTTED_PATH = re.compile(r"(?<![\w./-])repro(?:\.\w+)+\*?")


def named_flags() -> list[tuple[str, str, str]]:
    """``(doc, subcommand, --flag)`` for every flag a doc line names after
    ``repro <cmd>``, up to the next ``repro <cmd>`` on that line."""
    named = []
    for doc in DOCS:
        for line in doc.read_text().splitlines():
            matches = list(COMMAND.finditer(line))
            ends = [m.start() for m in matches[1:]] + [len(line)]
            for match, end in zip(matches, ends):
                for flag in FLAG.findall(line, match.end(), end):
                    for name in match.group(1).split(" | "):
                        named.append((doc.name, name, flag))
    return named


def resolves(path: str) -> bool:
    """True iff ``path`` names a module or an attribute chain under one.

    The longest importable prefix is the module; the remaining parts are
    looked up with ``getattr``.  A trailing ``*`` asks only that some
    attribute of the parent start with the last part.
    """
    prefix = path.endswith("*")
    parts = path.rstrip("*").split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        break
    else:
        return False
    rest = parts[split:]
    last = rest.pop() if prefix and rest else None
    for name in rest:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return last is None or any(attr.startswith(last) for attr in dir(obj))


def python_blocks(path: pathlib.Path) -> list[str]:
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadmeSnippets:
    def test_quickstart_block_runs(self):
        blocks = python_blocks(ROOT / "README.md")
        assert blocks, "README lost its quickstart code block"
        namespace: dict = {}
        exec(compile(blocks[0], "README.md", "exec"), namespace)


class TestModelDocSnippets:
    def test_all_blocks_run_in_sequence(self):
        blocks = python_blocks(ROOT / "docs" / "model.md")
        assert len(blocks) >= 2, "docs/model.md lost its code blocks"
        namespace: dict = {}
        for i, block in enumerate(blocks):
            exec(compile(block, f"docs/model.md[{i}]", "exec"), namespace)


class TestTenantDocSnippets:
    def test_all_blocks_run_in_sequence(self):
        blocks = python_blocks(ROOT / "docs" / "tenants.md")
        assert blocks, "docs/tenants.md lost its code blocks"
        namespace: dict = {}
        for i, block in enumerate(blocks):
            exec(compile(block, f"docs/tenants.md[{i}]", "exec"), namespace)


class TestOptDocSnippets:
    def test_all_blocks_run_in_sequence(self):
        blocks = python_blocks(ROOT / "docs" / "opt.md")
        assert len(blocks) >= 2, "docs/opt.md lost its code blocks"
        namespace: dict = {}
        for i, block in enumerate(blocks):
            exec(compile(block, f"docs/opt.md[{i}]", "exec"), namespace)


class TestFastExamples:
    @pytest.mark.parametrize("script", [
        "quickstart.py",
        "taxonomy_tour.py",
        "debugging_workflow.py",
        "adversarial_analysis.py",
    ])
    def test_example_runs(self, script, capsys):
        runpy.run_path(str(ROOT / "examples" / script), run_name="__main__")
        out = capsys.readouterr().out
        assert out.strip(), f"{script} produced no output"


class TestDocsNameLiveSurfaces:
    def test_named_subcommands_are_registered(self):
        [sub] = [
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        missing = {
            (doc.name, name)
            for doc in DOCS
            for match in COMMAND.findall(doc.read_text())
            for name in match.split(" | ")
            if name not in sub.choices
        }
        assert not missing, sorted(missing)

    def test_named_flags_are_options_of_their_subcommand(self):
        [sub] = [
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        named = named_flags()
        assert len(named) > 50, "the flag pattern stopped matching the docs"
        missing = {
            entry for entry in named
            if entry[1] not in sub.choices
            or entry[2] not in sub.choices[entry[1]]._option_string_actions
        }
        assert not missing, sorted(missing)

    def test_named_source_files_exist(self):
        named = {
            (doc.name, path)
            for doc in DOCS
            for code in INLINE_CODE.findall(doc.read_text())
            for path in SOURCE_PATH.findall(code)
        }
        assert len(named) > 50, "the path pattern stopped matching the docs"
        missing = {entry for entry in named if not (ROOT / entry[1]).exists()}
        assert not missing, sorted(missing)

    def test_named_dotted_paths_resolve(self):
        named = {
            (doc.name, path)
            for doc in DOCS
            for code in INLINE_CODE.findall(doc.read_text())
            for path in DOTTED_PATH.findall(code)
        }
        assert len(named) > 100, "the dotted-path pattern stopped matching"
        missing = {entry for entry in named if not resolves(entry[1])}
        assert not missing, sorted(missing)

    def test_the_resolver_reads_prefixes_and_stars(self):
        assert resolves("repro.core.simulator.Simulator.step")
        assert resolves("repro.workloads.adversarial.anti_dlru_*")
        assert not resolves("repro.policies.seq_edf")
        assert not resolves("repro.workloads.adversarial.no_such_*")

    def test_named_artifacts_exist(self):
        missing = {
            (doc.name, name)
            for doc in DOCS
            for name in ARTIFACT.findall(doc.read_text())
            if not (ROOT / name).exists()
        }
        assert not missing, sorted(missing)
