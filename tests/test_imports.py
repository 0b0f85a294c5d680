"""Import hygiene: every module-level import in the package is used, no
module reaches into another drumsep module's `_`-prefixed names, every
function the bench hooks exists, and every public function or class has a
user outside the unit tests."""

import ast
import importlib
from pathlib import Path

import pytest

import drumsep
from hooked_calls import bench_hooks

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


def read_names(source: str | ast.AST) -> set[str]:
    """Every name ``source`` (text or a parsed node) reads or imports by
    ``from``, attribute names included: ``m.f(x)`` reads ``m``, ``f`` and
    ``x``."""
    found = set()
    tree = ast.parse(source) if isinstance(source, str) else source
    for node in ast.walk(tree):
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


def test_stems_are_rendered_only_through_render():
    """``drum_machine.render`` renders every stem that ``render``,
    ``generate`` and ``separate abs`` write, and the Adam solver's stems.
    Only ``drum_machine`` and the masking kernel, which renders each
    block's span rows, read ``trigger``, so a second renderer cannot come
    back unnoticed."""
    names = {p.stem: read_names(p.read_text()) for p in MODULES}
    assert {m for m, n in names.items() if "trigger" in n} == {"drum_machine", "masking"}


def test_separate_nmfd_builds_no_per_class_array():
    """``separate nmfd`` takes NMFD's model and builds each class's
    magnitudes from its chunks as the masking kernel and magnitudes.npz
    need them. ``cli`` reads neither ``nmfd_run`` nor
    ``reconstruct_per_class``, so a K x F x M array cannot come back
    unnoticed."""
    source = (Path(drumsep.__file__).parent / "cli.py").read_text()
    assert read_names(source) & {"nmfd_run", "reconstruct_per_class"} == set()


def test_only_transcription_raises_grid_range_error():
    """``onset_samples`` owns the range rule that both ``separate`` commands
    and ``render`` apply. A second rule elsewhere, say in ``nmfd``, would
    raise ``GridRangeError`` outside ``transcription``."""
    names = {p.stem: read_names(p.read_text()) for p in MODULES}
    assert {m for m, n in names.items() if "GridRangeError" in n} == {"transcription"}


def os_names(source: str) -> set[str]:
    """The names ``source`` reads off ``os``: ``os.f`` and ``from os import
    f`` give ``f``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.update(alias.name for alias in node.names)
    return found


def test_finds_os_names():
    source = "import os\nfrom os import pwrite\nos.replace(a, b)\ns.replace('x', 'y')\n"
    assert os_names(source) == {"pwrite", "replace"}


def test_files_are_written_only_in_fileio():
    """Only ``fileio`` packs binary headers, makes temp files, writes at an
    offset or renames a file into place, so the masking lanes write their
    stems only through its block writer."""
    sources = {p.stem: p.read_text() for p in MODULES}
    modules = {"struct", "tempfile"}
    assert {m for m, source in sources.items()
            if imported_modules(source) & modules} == {"fileio"}
    calls = {"pwrite", "replace"}
    assert {m for m, source in sources.items() if os_names(source) & calls} == {"fileio"}


def users_of(source: str, name: str) -> list[str]:
    """The top-level statements of ``source`` that read ``name``, in order:
    a function or class by its name, any other statement by its line."""
    return [getattr(node, "name", f"line {node.lineno}")
            for node in ast.parse(source).body if name in read_names(node)]


def test_finds_users_of_a_name():
    source = ("def h(): pass\ndef a(): return h(1)\nclass B:\n    f = staticmethod(h)\n"
              "x = [h]\ndef d(): pass\n")
    assert users_of(source, "h") == ["a", "B", "line 5"]


def test_one_wav_writer():
    """``wav_blocks`` is the one code that lays out a WAV file: every other
    writer, ``write_wav`` among them, writes through it."""
    source = (Path(drumsep.__file__).parent / "fileio.py").read_text()
    assert users_of(source, "_wav_header") == ["wav_blocks"]


def test_every_bench_hook_names_a_function():
    """bench/tracing.py wraps each (module, function) of its HOOKS; a
    renamed or deleted function would drop out of the bench's spans."""
    hooks = bench_hooks()
    assert hooks
    missing = [f"{m}.{f}" for m, f in hooks
               if not callable(getattr(importlib.import_module(f"drumsep.{m}"), f, None))]
    assert missing == []


def bench_names(source: str) -> set[str]:
    """The names ``source`` reads and its string constants: bench/tracing.py's
    HOOKS name the functions they wrap as strings."""
    strings = {node.value for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return read_names(source) | strings


def unused_definitions(library: dict[str, str], users: set[str]) -> list[str]:
    """``module.name`` of each public top-level function or class of the
    ``library`` sources (module name -> source) that nothing names: not
    another library module, not its own module outside its definition, and
    not ``users``, the names read outside the library. A click command is
    exempt, as its decorator registers it."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    found = []
    for module, tree in trees.items():
        named = users.union(*(read_names(other) for name, other in trees.items()
                              if name != module))
        own = [read_names(node) for node in tree.body]
        for i, node in enumerate(tree.body):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and not _click_command(node)
                    and node.name not in named.union(*own[:i], *own[i + 1 :])):
                found.append(f"{module}.{node.name}")
    return found


def _click_command(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def test_finds_an_unused_definition():
    library = {
        "a": ("def kept(): pass\ndef dead(): dead()\nclass Own: pass\n"
              "x = Own()\ndef hooked(): pass\ndef _private(): pass\n"
              "@main.command('c')\ndef cmd(): pass\nclass Orphan: pass\n"),
        "b": "from .a import kept\ndef tested(): pass\n",
    }
    users = bench_names("HOOKS = [('a', 'hooked', None)]\n")
    assert unused_definitions(library, users) == ["a.dead", "a.Orphan", "b.tested"]


def test_every_public_definition_has_a_user():
    """A public function or class of the package that only unit tests call
    is dead code. Its users are the other modules, its own module, bench/
    (with the HOOKS strings) and the acceptance gates."""
    root = Path(__file__).resolve().parents[1]
    library = {p.stem: p.read_text() for p in Path(drumsep.__file__).parent.glob("*.py")}
    users = read_names((root / "tests" / "test_acceptance.py").read_text())
    for path in (root / "bench").glob("*.py"):
        users |= bench_names(path.read_text())
    assert unused_definitions(library, users) == []
