"""Public-API hygiene: everything exported exists, is documented, and is
reached by code that is not a test."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.pool",
    "repro.topology",
    "repro.mapping",
    "repro.sim",
    "repro.workload",
    "repro.analysis",
    "repro.experiments",
    "repro.units",
    "repro.errors",
    "repro.nomenclature",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
class TestPublicSurface:
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()

    def test_all_entries_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_exported_callables_are_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert undocumented == []


class TestTopLevelConvenience:
    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_alewife_factory_lazy_import(self):
        import repro

        system = repro.alewife_system(contexts=2)
        assert system.latency_sensitivity == pytest.approx(3.26)

    def test_star_import_is_clean(self):
        namespace = {}
        exec("from repro import *", namespace)  # noqa: S102 - test only
        assert "SystemModel" in namespace
        assert "solve" in namespace


#: Modules kept although nothing outside tests and ``__init__`` re-exports
#: imports them, each with the reason it stays.
UNREACHED_BY_DESIGN = {
    "repro.cli": "console entry point (repro-locality, repro-sim)",
    "repro.bench": "console entry point (repro-bench)",
    "repro.analysis.profile": "taught by docs/tutorial.md",
    "repro.mapping.partition": "taught by docs/tutorial.md",
    "repro.workload.scripted": "the protocol tests' scripted program",
    "repro.obs.spans": "the span layer behind the repro.obs API",
}


def _imported_modules(path):
    """Every module ``path`` imports; ``from m import x`` counts both
    ``m`` and ``m.x``, which names the module ``x`` when there is one."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


class TestReachability:
    def test_every_module_has_a_non_test_importer(self):
        """A module that only tests or ``__init__`` re-exports import is
        code no command, example or benchmark runs."""
        modules = [
            path
            for path in (SRC / "repro").rglob("*.py")
            if path.name != "__init__.py"
        ]
        sources = modules + [
            path
            for directory in ("perfbench", "examples", "benchmarks")
            for path in (ROOT / directory).rglob("*.py")
        ]
        reached = set().union(*map(_imported_modules, sources))
        unreached = {
            ".".join(path.relative_to(SRC).with_suffix("").parts)
            for path in modules
        } - reached
        assert sorted(unreached - UNREACHED_BY_DESIGN.keys()) == []
        # An allowlisted module that gains an importer leaves the list.
        assert sorted(UNREACHED_BY_DESIGN.keys() - unreached) == []
