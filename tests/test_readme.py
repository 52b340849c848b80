"""The README's API section names only what the package exports, and its
exit-code table is what the command line does."""
import ast
import fnmatch
import re
import types
from pathlib import Path

import pytest

import sparselink
from sparselink import cli, errors

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def entry_point_names():
    """Backticked names before the " - " of each "Useful entry points" bullet."""
    section = README.split("Useful entry points:", 1)[1]
    bullets = re.split(r"\n- ", section.split("\n\n", 2)[1].removeprefix("- "))
    return [
        token
        for bullet in bullets
        for token in re.findall(r"`([^`]+)`", " ".join(bullet.split()).split(" - ", 1)[0])
    ]


EXAMPLE = re.search(r"```python\n(.*?)```", README, re.S).group(1)


def example_imports():
    return [
        alias.name
        for node in ast.walk(ast.parse(EXAMPLE))
        if isinstance(node, ast.ImportFrom) and node.module == "sparselink"
        for alias in node.names
    ]


def test_all_resolves():
    missing = [name for name in sparselink.__all__ if not hasattr(sparselink, name)]
    assert missing == []
    assert len(set(sparselink.__all__)) == len(sparselink.__all__)


def test_all_is_every_public_name():
    public = {name for name, value in vars(sparselink).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(sparselink.__all__) == public


def test_readme_entry_points_exported():
    names = entry_point_names()
    assert "synthesize_structured_info" in names and "report_csv" in names
    for name in names:
        assert fnmatch.filter(sparselink.__all__, name), f"README lists {name!r}"


def test_readme_example_imports_exported():
    names = example_imports()
    assert "synthesize_structured_info" in names
    assert set(names) <= set(sparselink.__all__)


def test_readme_example_runs(capsys):
    exec(compile(EXAMPLE, "README.md", "exec"), {})
    j_info, j_gain = map(float, capsys.readouterr().out.split())
    assert j_info == j_gain


def exit_code_table():
    """{category class: (exit code, stderr prefix)} from the README's table."""
    rows = re.findall(r"^\| `(\d)` \| `(\w+)`.*\| `([^`]+)` \|$", README, re.M)
    return {getattr(sparselink, name): (int(code), prefix) for code, name, prefix in rows}


def leaf_errors():
    """Every error class of sparselink.errors that no other one subclasses."""
    leaves, todo = [], [errors.SparselinkError]
    while todo:
        cls = todo.pop()
        subclasses = [c for c in cls.__subclasses__() if c.__module__ == errors.__name__]
        todo += subclasses
        if not subclasses:
            leaves.append(cls)
    return sorted(leaves, key=lambda cls: cls.__name__)


def test_exit_code_table_names_four_categories():
    assert sorted(code for code, _ in exit_code_table().values()) == [2, 3, 4, 5]
    assert {sparselink.IndexOutOfRange, sparselink.MaxIterations} <= set(leaf_errors())


@pytest.mark.parametrize("error", leaf_errors(), ids=lambda cls: cls.__name__)
def test_every_error_exits_with_its_readme_code(monkeypatch, capsys, error):
    [(code, prefix)] = [v for category, v in exit_code_table().items() if issubclass(error, category)]

    def failing(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "generate_plant", failing)
    assert cli.main(["gen", "--n-nodes", "2", "--seed", "0"]) == code
    assert capsys.readouterr().err == f"{prefix} boom\n"
