import ast
import importlib
import pkgutil
from pathlib import Path

import asepkpz


def test_every_public_name_resolves():
    # a name left in a module's __all__ after its definition is deleted fails
    # the star import; `import asepkpz` above checks the package's own imports
    modules = {info.name for info in pkgutil.iter_modules(asepkpz.__path__)}
    # the package is these modules: a leftover or alias module fails here
    assert modules == {"cli", "engine", "greens", "kernels", "params", "she"}
    declaring = set()
    for name in modules:
        if hasattr(importlib.import_module(f"asepkpz.{name}"), "__all__"):
            exec(f"from asepkpz.{name} import *", {})
            declaring.add(name)
    assert declaring == modules - {"cli"}


def _names_read(path: Path) -> set[str]:
    """Names a module reads: loaded names, attributes and from-imports (a
    string, the __all__ entries among them, reads nothing)."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_public_name_has_a_caller():
    # no public API that nothing calls: a name in a module's __all__ must be
    # read by some src/ module or by perfbench/ (__init__.py's re-exports do
    # not count); an oracle only the tests call lives in tests/oracles.py
    root = Path(__file__).resolve().parent.parent
    src = sorted(p for p in (root / "src" / "asepkpz").glob("*.py") if p.name != "__init__.py")
    read = set().union(*map(_names_read, src + sorted((root / "perfbench").glob("*.py"))))
    uncalled = {f"{p.stem}.{name}" for p in src
                for name in getattr(importlib.import_module(f"asepkpz.{p.stem}"), "__all__", ())
                if name not in read}
    assert uncalled == set()
