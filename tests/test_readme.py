import ast
import importlib
import re
import shlex
import types
from pathlib import Path

import pytest

import renyi_extract
from renyi_extract.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _block(lang: str, after: str = "") -> str:
    """The first ``lang`` code block after the heading ``after``."""
    start = TEXT.index(after) if after else 0
    block = re.compile(rf"```{lang}\n(.*?)```", re.S).search(TEXT, start)
    assert block is not None
    return block.group(1)


CLI_LINES = [
    line
    for line in _block("sh", "## Quick start (CLI)").splitlines()
    if line.startswith("renyi-extract ")
]


def test_library_quick_start_runs(capsys):
    """The README's first python block is the library example; it must run."""
    exec(compile(_block("python"), str(README), "exec"), {})
    rows = capsys.readouterr().out.strip().splitlines()
    assert [r.split()[0] for r in rows] == ["1.5", "2.0"]


@pytest.mark.parametrize("line", CLI_LINES, ids=[" ".join(l.split()[1:3]) for l in CLI_LINES])
def test_cli_quick_start_runs(tmp_path, monkeypatch, capsys, line):
    """Each CLI example runs beside the README's minimal config and passes."""
    (tmp_path / "config.json").write_text(_block("json", "A minimal config"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0


def test_every_cli_example_is_collected():
    assert len(CLI_LINES) == 6


def test_top_level_exports_are_the_quick_start_imports():
    """The package's public names are exactly what the library quick start
    imports from it, and each is the object its home module defines.  They
    resolve on first access, so they are read from ``__all__``, not from the
    package's namespace."""
    tree = ast.parse(_block("python"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "renyi_extract"
        for alias in node.names
    }
    assert len(imported) == 8 and set(renyi_extract.__all__) == imported
    assert set(renyi_extract._HOMES) == imported
    for name, home in renyi_extract._HOMES.items():
        module = importlib.import_module(f"renyi_extract.{home}")
        assert getattr(renyi_extract, name) is getattr(module, name)
    # Resolved, they are the namespace's only public names, submodules aside.
    public = {
        name
        for name, value in vars(renyi_extract).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == imported
    with pytest.raises(AttributeError):
        renyi_extract.not_a_quick_start_name
    assert isinstance(renyi_extract.__version__, str)
