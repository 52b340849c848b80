"""The README's API section names only what the package exports."""
import ast
import fnmatch
import re
from pathlib import Path

import sparselink

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


def example_imports():
    code = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    return [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "sparselink"
        for alias in node.names
    ]


def test_all_resolves():
    missing = [name for name in sparselink.__all__ if not hasattr(sparselink, name)]
    assert missing == []
    assert len(set(sparselink.__all__)) == len(sparselink.__all__)


def test_readme_entry_points_exported():
    names = entry_point_names()
    assert "synthesize_structured_info" in names and "report_csv" in names
    for name in names:
        assert fnmatch.filter(sparselink.__all__, name), f"README lists {name!r}"


def test_readme_example_imports_exported():
    names = example_imports()
    assert "synthesize_structured_info" in names
    assert set(names) <= set(sparselink.__all__)
