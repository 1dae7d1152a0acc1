"""Static checks on the package source that no linter here performs."""

import ast
import importlib
import os

import pytest

import betaspectra

PACKAGE_DIR = os.path.dirname(betaspectra.__file__)
MODULES = sorted(
    name for name in os.listdir(PACKAGE_DIR)
    if name.endswith(".py") and name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict:
    """Names bound by module-level imports, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set:
    """Names loaded anywhere in the module or listed in its __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


TEST_DIR = os.path.dirname(os.path.abspath(__file__))
TEST_MODULES = sorted(name for name in os.listdir(TEST_DIR) if name.endswith(".py"))
SOURCES = [(name, os.path.join(PACKAGE_DIR, name)) for name in MODULES] + [
    (f"tests/{name}", os.path.join(TEST_DIR, name)) for name in TEST_MODULES
]


@pytest.mark.parametrize("module, path", SOURCES, ids=[name for name, _ in SOURCES])
def test_no_unused_module_imports(module, path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=module)
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"betaspectra.{module[:-3]}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing, f"{module} lists names it does not define: {', '.join(missing)}"


def _span_targets() -> list:
    """TARGETS of the benchmark's span recorder, read from its source."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "spans.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    return ast.literal_eval(value)


@pytest.mark.parametrize("module, path", _span_targets())
def test_benchmark_span_targets_resolve(module, path):
    # the recorder looks a class attribute up in the class __dict__, so a
    # staticmethod must stay defined on the class itself
    owner = importlib.import_module(f"betaspectra.{module}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    assert attr in vars(owner), f"{module}.{path}"
    assert callable(getattr(owner, attr))
