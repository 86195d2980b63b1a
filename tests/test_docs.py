"""The README's library tour runs, the package exports exactly its names, and
each name has one home."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
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


def fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter, with this checkout's package importable."""
    src = str(Path(planar_rook.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


PACKAGE = Path(planar_rook.__file__).resolve().parent
SUBMODULES = tuple(sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # each name has one home: a module imports only what it runs, so no
    # module re-exports another's names
    unused = {
        sub: unused_imports((PACKAGE / f"{sub}.py").read_text(encoding="utf-8"))
        for sub in ("__init__",) + SUBMODULES
    }
    assert {sub: names for sub, names in unused.items() if names} == {}


def test_the_package_resolves_its_names_on_first_use():
    assert planar_rook._SUBMODULES == SUBMODULES
    # in a fresh process, so that no other test has loaded a submodule yet
    probe = f"""
import sys
import planar_rook
loaded = lambda: sorted(m for m in sys.modules if m.startswith("planar_rook."))
assert loaded() == [], loaded()
namespace = {{}}
exec("from planar_rook import *", namespace)
assert sorted(set(namespace) - {{"__builtins__"}}) == sorted(planar_rook.__all__)
for name in planar_rook.__all__:
    value = namespace[name]
    assert getattr(planar_rook, name) is value, name
    if name not in ("__version__", "clear_caches"):
        assert getattr(sys.modules[value.__module__], name) is value, name
for sub in {SUBMODULES!r}:
    assert getattr(planar_rook, sub) is sys.modules["planar_rook." + sub], sub
assert loaded() == ["planar_rook." + sub for sub in sorted({SUBMODULES!r})], loaded()
try:
    planar_rook.nosuch
except AttributeError as exc:
    assert str(exc) == "module 'planar_rook' has no attribute 'nosuch'", exc
else:
    raise AssertionError("planar_rook.nosuch resolved")
"""
    done = fresh_python(probe)
    assert (done.returncode, done.stderr) == (0, "")


def test_clear_caches_loads_no_submodule():
    # a submodule that is not loaded holds no memo, so there is nothing to clear
    probe = (
        "import sys, planar_rook\n"
        "planar_rook.clear_caches()\n"
        "print(*sorted(m for m in sys.modules if m.startswith('planar_rook')))\n"
    )
    done = fresh_python(probe)
    assert (done.returncode, done.stdout, done.stderr) == (0, "planar_rook\n", "")
