"""Public-API hygiene: everything exported exists, is documented, and is
reached (or, for a config field, set) by code that is not a test."""

import ast
import enum
import importlib
import inspect
import re
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


SCRIPTED = "the protocol tests' scripted program"

#: Modules kept although nothing outside tests and ``__init__`` re-exports
#: imports them, each with the reason it stays.
UNREACHED_BY_DESIGN = {
    "repro.cli": "console entry point (repro-locality, repro-sim)",
    "repro.bench": "console entry point (repro-bench)",
    "repro.workload.scripted": SCRIPTED,
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


class _Uses(ast.NodeVisitor):
    """Every use of a name in one file, with the definitions around it.

    A use is a loaded name or attribute, a ``from m import name`` outside
    an ``__init__`` module, or a ``getattr`` string; ``__all__`` lists
    and an ``__init__`` module's imports are re-exports, not uses.  A
    call also records how many arguments it passes by position (``None``
    when it unpacks ``*args``) and the keywords it passes (``None`` for
    ``**kwargs``).  A function named without being called (a registry
    entry, a callback) is recorded as a call that passes everything,
    since its real calls cannot be seen.
    """

    def __init__(self, module, is_init, classes):
        self.is_init, self.classes = is_init, classes
        self.scope = (module,)
        self.callee_nodes = set()
        self.uses = []  # (name, enclosing definition keys)
        self.calls = []  # (name, enclosing keys, positional count, keywords)

    def _define(self, node):
        self.scope += (f"{self.scope[-1]}.{node.name}",)
        self.generic_visit(node)
        self.scope = self.scope[:-1]

    visit_FunctionDef = visit_ClassDef = _define

    def visit_Assign(self, node):
        if not any(getattr(t, "id", None) == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if not self.is_init:
            self.uses += [(alias.name, self.scope) for alias in node.names]

    def visit_Call(self, node):
        self.callee_nodes.add(node.func)
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "cls":  # a classmethod building its own class
            name = self.scope[-2].rsplit(".", 1)[-1]
        if name in ("getattr", "hasattr") and len(node.args) > 1:
            text = getattr(node.args[1], "value", None)
            if isinstance(text, str):
                self.uses.append((text, self.scope))
        positional = (
            None
            if any(isinstance(a, ast.Starred) for a in node.args)
            else len(node.args)
        )
        self.calls.append(
            (name, self.scope, positional, {k.arg for k in node.keywords})
        )
        self.generic_visit(node)

    def _named(self, node, name):
        if isinstance(node.ctx, ast.Load):
            self.uses.append((name, self.scope))
            if node not in self.callee_nodes and name not in self.classes:
                self.calls.append((name, self.scope, None, {None}))
        self.generic_visit(node)

    def visit_Name(self, node):
        self._named(node, node.id)

    def visit_Attribute(self, node):
        self._named(node, node.attr)


def _module_name(path):
    return ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
        ".__init__"
    )


def _public_definitions(path):
    """``(key, name, node, is_method)`` for every public top-level function
    and class of ``path`` and every public method and ``__init__`` of its
    public classes; an ``__init__`` is named (and called) by its class."""
    module = _module_name(path)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, node, False
        elif isinstance(node, ast.ClassDef):
            yield f"{module}.{node.name}", node.name, node, False
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and (
                    sub.name == "__init__" or not sub.name.startswith("_")
                ):
                    key = f"{module}.{node.name}.{sub.name}"
                    name = node.name if sub.name == "__init__" else sub.name
                    yield key, name, sub, True


def _constructible(key):
    """Whether the class ``key`` names is built by calling it: not an
    exception or warning, an enum or a protocol."""
    module, name = key.rsplit(".", 1)
    cls = getattr(importlib.import_module(module), name)
    return not (
        issubclass(cls, (BaseException, enum.Enum))
        or getattr(cls, "_is_protocol", False)
    )


def _optional_parameters(node, is_method):
    """``(name, position)`` of each parameter with a default; keyword-only
    parameters have position ``None``."""
    args = node.args
    positional = args.posonlyargs + args.args
    decorators = {getattr(d, "id", None) for d in node.decorator_list}
    if is_method and "staticmethod" not in decorators:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    found += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _reachability_scan():
    """Definitions, optional parameters, and the uses and calls of every
    non-test source: ``src/repro``, ``examples/`` and ``benchmarks/``."""
    src_files = sorted((SRC / "repro").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in src_files}
    classes = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    uses, calls = [], []
    others = [
        path
        for directory in ("examples", "benchmarks")
        for path in (ROOT / directory).rglob("*.py")
    ]
    for path in src_files + others:
        tree = trees.get(path) or ast.parse(path.read_text(encoding="utf-8"))
        module = _module_name(path) if path in trees else path.stem
        visitor = _Uses(module, path.name == "__init__.py", classes)
        visitor.visit(tree)
        uses += visitor.uses
        calls += visitor.calls
    definitions = [d for path in src_files for d in _public_definitions(path)]
    return definitions, uses, calls


#: The frozen config dataclasses whose fields must be set outside tests.
CONFIG_CLASSES = (
    "repro.sim.config.SimulationConfig",
    "repro.sim.telemetry.TelemetryConfig",
)


def _config_fields():
    """``(key, class name, field)`` for every field of
    :data:`CONFIG_CLASSES`, keyed ``module.Class.field``."""
    for qualname in CONFIG_CLASSES:
        module, name = qualname.rsplit(".", 1)
        path = SRC / (module.replace(".", "/") + ".py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        (node,) = [n for n in tree.body if getattr(n, "name", None) == name]
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign):
                field = statement.target.id
                yield f"{qualname}.{field}", name, field


#: Public definitions (``module.qualname``), optional parameters
#: (``module.qualname(name=)``, a constructor's under its class) and
#: config fields (``module.Class.field``) that no code outside tests
#: reaches or sets, each with the reason it stays: a console entry
#: point, an oracle a named test compares against, the scripted
#: protocol-test program, or a name ``perfbench/`` uses.
KEPT_UNREACHED = {
    "repro.cli.sim_main": "console entry point (repro-sim)",
    "repro.cli.main(argv=)": "console entry point; tests pass argv",
    "repro.cli.sim_main(argv=)": "console entry point; tests pass argv",
    "repro.bench.main(argv=)": "console entry point; tests pass argv",
    "repro.sim.machine.Machine(engine=)": (
        "oracle of tests/properties/test_engine_parity.py: engine=False "
        "is the step loop the event-calendar engine must match"
    ),
    "repro.workload.scripted.ScriptedProgram": SCRIPTED,
    "repro.workload.scripted.ScriptedProgram.finished": SCRIPTED,
    "repro.workload.scripted.ScriptedProgram.single": SCRIPTED,
    "repro.workload.scripted.ScriptedProgram.random_script": SCRIPTED,
    "repro.workload.scripted.ScriptedProgram.random_script(write_fraction=)": SCRIPTED,
    "repro.workload.scripted.ScriptedProgram.random_script(gap_cycles=)": SCRIPTED,
    "repro.workload.scripted.ScriptedProgram.random_script(remote_writes=)": SCRIPTED,
    "repro.sim.replicate.run_replications(batch=)": (
        "perfbench: replication_batch caps seeds per core pass at 8"
    ),
    "repro.topology.torus.distance_backend": (
        "perfbench: the distance_backend provenance field"
    ),
    "repro.topology.torus.Torus.diameter": (
        "perfbench: the summary checks bound mean hops by it"
    ),
    "repro.mapping.engine.SwapEngine.swap_delta": (
        "perfbench: the ledger's swap.delta row wraps it"
    ),
    "repro.sim.config.SimulationConfig.network_speedup": (
        "perfbench: converts simulated network cycles to processor ticks"
    ),
    "repro.sim.config.SimulationConfig.compute_cycles": (
        "perfbench: sets the run length of each simulator workload"
    ),
    "repro.sim.config.SimulationConfig.compute_jitter": (
        "perfbench: builds its workloads' programs with it"
    ),
}


class TestReachability:
    @pytest.fixture(scope="class")
    def scan(self):
        return _reachability_scan()

    def test_every_public_definition_has_a_non_test_reference(self, scan):
        """A public function, class or method that only tests name is
        code no command, example or benchmark runs."""
        definitions, uses, _ = scan
        unreached = {
            key
            for key, name, _, _ in definitions
            if not key.endswith(".__init__")
            and not any(used == name and key not in scope for used, scope in uses)
        }
        fields = {key for key, _, _ in _config_fields()}
        kept = {
            key
            for key in KEPT_UNREACHED
            if not key.endswith("=)") and key not in fields
        }
        assert sorted(unreached - kept) == []
        # A kept definition that gains a reference leaves the list.
        assert sorted(kept - unreached) == []

    def test_every_public_class_is_constructed_outside_tests(self, scan):
        """A public class that no non-test code calls is never built where
        a command runs, however many type tuples or ``isinstance`` checks
        name it.  Exceptions, warnings, enums and protocols are raised,
        looked up or matched rather than built, so they are exempt."""
        definitions, _, calls = scan
        classes, unconstructed = set(), set()
        for key, name, node, _ in definitions:
            if not isinstance(node, ast.ClassDef) or not _constructible(key):
                continue
            classes.add(key)
            if not any(
                called == name and key not in scope
                for called, scope, _, _ in calls
            ):
                unconstructed.add(key)
        kept = classes & KEPT_UNREACHED.keys()
        assert sorted(unconstructed - kept) == []
        # A kept class that gains a constructor call leaves the list.
        assert sorted(kept - unconstructed) == []

    def test_every_optional_parameter_is_passed_outside_tests(self, scan):
        """An optional parameter that no non-test call passes, by keyword
        or by position, guards a branch no command runs."""
        definitions, _, calls = scan
        unpassed = set()
        for key, name, node, is_method in definitions:
            if isinstance(node, ast.ClassDef):
                continue
            sites = [
                (positional, keywords)
                for called, scope, positional, keywords in calls
                if called == name and key not in scope
            ]
            owner = key.removesuffix(".__init__")
            for parameter, position in _optional_parameters(node, is_method):
                if not any(
                    parameter in keywords
                    or None in keywords
                    or positional is None
                    or (position is not None and positional > position)
                    for positional, keywords in sites
                ):
                    unpassed.add(f"{owner}({parameter}=)")
        kept = {key for key in KEPT_UNREACHED if key.endswith("=)")}
        assert sorted(unpassed - kept) == []
        # A kept parameter that gains a caller leaves the list.
        assert sorted(kept - unpassed) == []

    def test_every_config_field_is_set_outside_tests(self, scan):
        """A config field that no non-test call of its class, or of
        ``dataclasses.replace`` (``with_seed``), passes by keyword keeps
        its default wherever a command runs: a constant posing as a
        knob."""
        _, _, calls = scan
        unset = {
            key
            for key, cls, field in _config_fields()
            if not any(
                called in (cls, "replace") and field in keywords
                for called, _, _, keywords in calls
            )
        }
        kept = {key for key, _, _ in _config_fields()} & KEPT_UNREACHED.keys()
        assert sorted(unset - kept) == []
        # A kept field that gains a setter leaves the list.
        assert sorted(kept - unset) == []

    def test_kept_reasons_hold(self):
        """Each reason is one of four a reader can check: a console
        script in ``pyproject.toml``, an oracle its named test file uses,
        the scripted protocol-test program, or a name ``perfbench/``
        uses."""
        scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        perfbench = " ".join(
            path.read_text(encoding="utf-8")
            for path in (ROOT / "perfbench").glob("*.py")
        )
        for key, reason in KEPT_UNREACHED.items():
            definition = key.split("(")[0]
            name = re.split(r"[.(]", key.removesuffix("=)"))[-1]
            if reason.startswith("console entry point"):
                module, function = definition.rsplit(".", 1)
                assert f'"{module}:{function}"' in scripts, key
            elif reason.startswith("oracle of "):
                test_file = ROOT / reason.split()[2].rstrip(":")
                assert name in test_file.read_text(encoding="utf-8"), key
            elif reason == SCRIPTED:
                assert definition.startswith("repro.workload.scripted."), key
            else:
                assert reason.startswith("perfbench: "), key
                assert re.search(rf"\b{name}\b", perfbench), key

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


def _resolves(dotted):
    """Whether ``dotted`` names a module, or an attribute chain on one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


class TestDocumentedNames:
    @pytest.mark.parametrize(
        "document",
        ["README.md", "EXPERIMENTS.md"]
        + sorted(f"docs/{path.name}" for path in (ROOT / "docs").glob("*.md")),
    )
    def test_backticked_repro_names_exist(self, document):
        """Every backticked dotted ``repro.…`` name a document teaches
        imports and resolves (call syntax after the name is ignored)."""
        text = (ROOT / document).read_text(encoding="utf-8")
        names = re.findall(r"`(repro(?:\.\w+)+)", text)
        assert sorted({name for name in names if not _resolves(name)}) == []
