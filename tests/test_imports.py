"""Import hygiene: every module-level import in the package is used, and no
module reaches into another drumsep module's `_`-prefixed names."""

import ast
from pathlib import Path

import pytest

import drumsep

MODULES = sorted(
    p for p in Path(drumsep.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_finds_an_unused_import():
    source = "import os\nfrom a import b, c as d\nprint(d)\n"
    assert unused_imports(source) == ["os (line 1)", "b (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_uses(source: str) -> list[str]:
    """Another drumsep module's `_`-prefixed names used in ``source``:
    imported by ``from .module import _name`` or read as ``module._name``
    after ``from . import module``. Dunder names do not count."""
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{node.module}.{alias.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_finds_a_private_use():
    source = (
        "from . import a, b as c\nfrom .d import _e, f\nfrom os import _g\n"
        "a._h()\nc._i\nc.j\na.__doc__\nx._k\n"
    )
    assert sorted(private_uses(source)) == [
        "a._h (line 4)", "c._i (line 5)", "d._e (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_of_other_modules(path):
    assert private_uses(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Dotted names of the modules ``source`` imports, relative ones as
    ``.name``: ``from .a import b`` gives ``.a``, ``from . import a`` gives
    ``.a`` and ``from a import b`` gives ``a`` and ``a.b``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.module:
                found.add(base)
            sep = "" if base.endswith(".") else "."
            found.update(base + sep + alias.name for alias in node.names)
    return found


def test_finds_imported_modules():
    source = ("import threading\nfrom concurrent import futures\n"
              "from .parallel import run_lanes\nfrom . import signal\n")
    assert imported_modules(source) == {
        "threading", "concurrent", "concurrent.futures", ".parallel",
        ".parallel.run_lanes", ".signal"}


def test_threads_start_only_in_parallel():
    """The lane users are the modules that import ``parallel``, and only
    ``parallel`` imports a thread module. A new lane user updates this
    list and ``parallel``'s docstring together."""
    imports = {p.stem: imported_modules(p.read_text()) for p in MODULES}
    assert {m for m, names in imports.items() if ".parallel" in names} == {
        "masking", "evaluation"}
    threads = {"threading", "concurrent.futures"}
    assert {m for m, names in imports.items() if names & threads} == {"parallel"}


def read_names(source: str) -> set[str]:
    """Every name ``source`` reads or imports by ``from``, attribute names
    included: ``m.f(x)`` reads ``m``, ``f`` and ``x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_finds_read_names():
    source = "from .a import b as c\nimport d\nd.e.f(g)\ndef h(): pass\n"
    assert read_names(source) == {"b", "d", "e", "f", "g"}


def test_onsets_are_placed_only_in_transcription():
    """``transcription.onset_samples`` is the one code that maps event
    times to samples. Only ``transcription`` reads ``nearest_frame``, and
    only NMFD's activations and the Adam solver build the frame grid."""
    names = {p.stem: read_names(p.read_text()) for p in MODULES}
    assert {m for m, n in names.items() if "nearest_frame" in n} == {"transcription"}
    assert {m for m, n in names.items() if "events_to_grid" in n} == {
        "nmfd", "abs_solver"}


def test_only_transcription_raises_grid_range_error():
    """``onset_samples`` owns the range rule that both ``separate`` commands
    and ``render`` apply. A second rule elsewhere, say in ``nmfd``, would
    raise ``GridRangeError`` outside ``transcription``."""
    names = {p.stem: read_names(p.read_text()) for p in MODULES}
    assert {m for m, n in names.items() if "GridRangeError" in n} == {"transcription"}
