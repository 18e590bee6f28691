"""Module boundaries: no module of the package or script reaches into
another subflow module's private names.

A private name is one with a leading underscore that is not a dunder.  A
module may use its own; reading one of another module (`net._pool`) or
importing one by name (`from .net import _silu`) couples the two modules
to a detail that only the owner may change.  Tests are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "subflow").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")])


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _imported_module(node: ast.ImportFrom) -> str | None:
    """The dotted subflow module an ImportFrom reads from, or None when
    it imports from outside the package."""
    if node.level:  # only the package's own modules import relatively
        return ".".join(filter(None, ["subflow", node.module]))
    if node.module == "subflow" or (node.module or "").startswith("subflow."):
        return node.module
    return None


def private_accesses(path: Path) -> list[str]:
    """'line: name' of each private name of another subflow module that
    the file at `path` reads as an attribute or imports by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    own = f"subflow.{path.stem}" if path.parent.name == "subflow" else None
    # local name -> the dotted subflow module it is bound to
    modules = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "subflow":
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:
                        modules["subflow"] = "subflow"
        elif isinstance(node, ast.ImportFrom):
            source = _imported_module(node)
            if source is None:
                continue
            for alias in node.names:
                if source != own and _private(alias.name):
                    found.append(f"{node.lineno}: {source}.{alias.name}")
                modules[alias.asname or alias.name] = f"{source}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            target = _dotted(node.value, modules)
            if target is not None and target != own:
                found.append(f"{node.lineno}: {target}.{node.attr}")
    return found


def _dotted(node, modules: dict) -> str | None:
    """The subflow module an expression names (`net`, `subflow.net`), or
    None when it names none."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, modules)
        return base and f"{base}.{node.attr}"
    return None


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_private_access_across_modules(path):
    assert private_accesses(path) == []


def test_the_check_sees_each_kind_of_access(tmp_path):
    """An attribute read through each kind of import, and a private name
    imported by name, are found; a module's own names, dunders and names
    of other packages are not."""
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    probe = scripts / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "import subflow\n"
        "import subflow.net as sn\n"
        "from subflow import net\n"
        "from subflow.net import _silu, lanes\n"
        "net._pool\n"
        "sn._pool\n"
        "subflow.metrics._frame\n"
        "net.lanes\n"
        "net.__name__\n"
        "np._core\n")
    assert private_accesses(probe) == [
        "5: subflow.net._silu", "6: subflow.net._pool", "7: subflow.net._pool",
        "8: subflow.metrics._frame"]
    package = tmp_path / "subflow"
    package.mkdir()
    module = package / "net.py"
    module.write_text("from . import metrics\nfrom .net import _silu\n"
                      "from .rng import _seed\nmetrics._frame\n")
    assert private_accesses(module) == ["3: subflow.rng._seed",
                                        "4: subflow.metrics._frame"]
