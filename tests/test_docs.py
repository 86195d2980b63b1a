"""The README's library tour runs, and the package exports exactly its names."""

import ast
import contextlib
import io
import re
from pathlib import Path

import planar_rook

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs_and_pins_the_api():
    code = tour_code()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    assert "20\n15\n" in out.getvalue()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "planar_rook"
        for alias in node.names
    ]
    assert len(imported) == len(set(imported))
    assert sorted(planar_rook.__all__) == sorted(imported + ["__version__"])
