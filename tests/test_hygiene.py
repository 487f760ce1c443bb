"""``ast`` scans of the package and the tests.

Every imported name is used.  Package ``__init__.py`` files are skipped, as
their imports are the re-exports.  A name counts as used when it appears as
a name in the code, in a string annotation, or in ``__all__``.

No cache in the package grows without bound: a function that takes
arguments is never wrapped in ``lru_cache(maxsize=None)`` or
``functools.cache``.

The package's settable values (defaulted parameters of named functions and
dataclass fields with a default) are exactly the set written here, so a
new option shows up as a diff of this file.

The package's module-level functions and classes that only tests use are
exactly the set written here, and so are the public methods of its
classes, so a second implementation left behind when its callers move
shows up as a diff of this file.

The result rows and the numerical layer import nothing from the identity
catalogue.  Only ``tracking`` samples circles (``circle_path``), and
``geometry`` imports no private name of ``families``.

The exact layer (``words``, ``garside``, ``groups``, ``hurwitz``,
``catalog`` and ``certificates``) imports neither numpy nor a numerical
module (``families``, ``tracking``, ``geometry``, ``arcs``,
``bifurcation``), and ``cli`` imports them only inside function bodies,
so the exact commands start without numpy.  Of the package's modules,
``families`` alone imports numpy, for the companion step of its root
solves, and names it only inside ``_companion_roots``; no module reaches
``numpy.polynomial``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for folder in (ROOT / "src" / "braidwork", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def test_the_scan_covers_the_package_and_the_tests():
    names = {path.name for path in FILES}
    assert {"families.py", "tracking.py", "test_hygiene.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _used(tree)}
    assert not unused, f"{path.name}: unused imports {sorted(unused.items(), key=lambda kv: kv[1])}"


def _name(node: ast.expr) -> str | None:
    """The last component of a decorator's dotted name."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _unbounded(decorator: ast.expr) -> bool:
    if _name(decorator) == "cache":
        return True
    if isinstance(decorator, ast.Call) and _name(decorator.func) in ("cache", "lru_cache"):
        sizes = decorator.args[:1] + [kw.value for kw in decorator.keywords if kw.arg == "maxsize"]
        return any(isinstance(size, ast.Constant) and size.value is None for size in sizes)
    return False


def _unbounded_caches(tree: ast.Module) -> list[str]:
    """Functions with arguments under an unbounded cache decorator."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if (args.posonlyargs or args.args or args.kwonlyargs or args.vararg or args.kwarg) \
                    and any(_unbounded(d) for d in node.decorator_list):
                found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("@functools.lru_cache(maxsize=None)\ndef f(x): pass", True),
    ("@lru_cache(None)\ndef f(x): pass", True),
    ("@functools.cache\ndef f(*xs): pass", True),
    ("@cache\ndef f(self): pass", True),
    ("@functools.cache\ndef f(): pass", False),
    ("@functools.lru_cache(maxsize=1 << 16)\ndef f(x): pass", False),
    ("@functools.lru_cache\ndef f(x): pass", False),
])
def test_the_cache_scan_flags_unbounded_caches(source, flagged):
    assert bool(_unbounded_caches(ast.parse(source))) is flagged


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "braidwork"],
                         ids=lambda path: path.name)
def test_every_cache_with_arguments_is_bounded(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _unbounded_caches(tree), f"{path.name}: unbounded caches {_unbounded_caches(tree)}"


# every settable value of the package, as "module.qualified_name(parameter)"
# for a defaulted parameter and "module.Class.field" for a dataclass field
SETTABLE_VALUES = {
    "catalog.IdentityRecord.variant",
    "catalog.IdentityRecord.row",
    "catalog.verify_identities(records)",
    "catalog.catalog.add(variant)",
    "catalog.catalog.add(row)",
    "catalog.catalog.trow(alt)",
    "certificates.CheckResult.witness",
    "cli.main(argv)",
    "families.catalogue_family(k)",
    "families.compile_coefficient.build(depth)",
    "families.WeierstrassFamily.__init__(catalogue_id)",
    "hurwitz.orbit(cap)",
    "tracking.ParameterLoop.circle(turns)",
    "tracking.ParameterLoop.circle(fixed)",
    "tracking.ParameterLoop.circle(start_angle)",
    "words.BraidWord.letters",
    "words.json_field(default)",
}


def _settable(tree: ast.Module, module: str) -> set[str]:
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}"
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
                found.update(f"{name}({arg.arg})" for arg in defaulted)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                name = f"{scope}.{child.name}"
                if any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                       for d in child.decorator_list):
                    found.update(f"{name}.{stmt.target.id}" for stmt in child.body
                                 if isinstance(stmt, ast.AnnAssign) and stmt.value is not None)
                visit(child, name)
            else:
                visit(child, scope)

    visit(tree, module)
    return found


@pytest.mark.parametrize("source, settable", [
    ("def f(a, b=1, *, c, d=2): pass", {"m.f(b)", "m.f(d)"}),
    ("def f(x):\n    def g(y=0): pass", {"m.f.g(y)"}),
    ("@dataclasses.dataclass(frozen=True)\nclass C:\n    a: int\n    b: int = 0",
     {"m.C.b"}),
    ("class C:\n    b: int = 0", set()),
    ("f = lambda t=1: t", set()),
])
def test_the_settable_value_scan(source, settable):
    assert _settable(ast.parse(source), "m") == settable


def test_the_settable_values_are_the_listed_ones():
    found = set()
    for path in FILES:
        if path.parent.name == "braidwork":
            found |= _settable(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert found == SETTABLE_VALUES, (
        f"new: {sorted(found - SETTABLE_VALUES)}, gone: {sorted(SETTABLE_VALUES - found)}")
    assert len(found) == 17


# module-level functions and classes of the package, and public methods of
# its classes, that no package module or benchmark file references:
# what the tests check the package by
TEST_ONLY = {
    "hurwitz.ordered_product",  # the invariant of every Hurwitz move
    "hurwitz.schreier_generators",  # stabilizer generators of an orbit table
    "tracking.star_basis",  # fiber loops of a star basis, for no pipeline yet
}
TEST_ONLY_METHODS = {
    "tracking.ParameterLoop.at",  # the point at time s: the tests' interpolation reference
}
REFERRERS = sorted(
    [path for path in FILES if path.parent.name == "braidwork"]
    + [path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")]
)


def _defined(tree: ast.Module, module: str) -> set[str]:
    """The module-level functions and classes, as "module.name", and the
    public methods of those classes, as "module.Class.method"."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(f"{module}.{node.name}")
        if isinstance(node, ast.ClassDef):
            found.update(f"{module}.{node.name}.{child.name}" for child in node.body
                         if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not child.name.startswith("_"))
    return found


def _referenced(tree: ast.Module) -> set[str]:
    """Every name, attribute and imported name in the code."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _unreferenced(defining: dict[str, ast.Module], referring: list[ast.Module]) -> set[str]:
    """The module-level functions and classes of ``defining`` (trees by
    module name), and the public methods of those classes, whose names no
    tree in ``referring`` mentions.

    Names are matched without their module or class, so a name that some
    other object also bears counts as referenced.  Private and dunder
    methods are not scanned: an operator method such as ``__mul__`` is
    called by an operator, which does not name it.
    """
    referenced = set().union(*map(_referenced, referring))
    return {name for module, tree in defining.items() for name in _defined(tree, module)
            if name.rsplit(".", 1)[1] not in referenced}


@pytest.mark.parametrize("source, other, unreferenced", [
    ("def f(): pass\ndef g(): f()", "", {"m.g"}),
    ("def f(): pass\nclass C: pass", "from m import f, C", set()),
    ("def f(): pass", "import m\nm.f()", set()),
    ("def f(): pass", "name = 'f'", {"m.f"}),
    ("def f():\n    def g(): pass\n    return g", "m.f", set()),
    ("class C:\n    def __mul__(self, o): pass", "", {"m.C"}),
    ("class C:\n    def f(self): pass\n    def _g(self): pass", "C", {"m.C.f"}),
    ("class C:\n    @property\n    def f(self): pass", "C().f", set()),
])
def test_the_unreferenced_scan(source, other, unreferenced):
    trees = [ast.parse(source), ast.parse(other)]
    assert _unreferenced({"m": trees[0]}, trees) == unreferenced


def test_the_test_only_functions_are_the_listed_ones():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in REFERRERS}
    assert {"catalog.py", "workloads.py"} <= {path.name for path in trees}
    defining = {path.stem: tree for path, tree in trees.items() if path.parent.name == "braidwork"}
    found = _unreferenced(defining, list(trees.values()))
    methods = {name for name in found if name.count(".") == 2}
    assert found - methods == TEST_ONLY, (
        f"new: {sorted(found - methods - TEST_ONLY)}, gone: {sorted(TEST_ONLY - found)}")
    assert methods == TEST_ONLY_METHODS, (
        f"new: {sorted(methods - TEST_ONLY_METHODS)}, gone: {sorted(TEST_ONLY_METHODS - methods)}")


# modules that sit below the identity catalogue: the result rows and the
# numerical layer
BELOW_CATALOG = ("certificates", "families", "tracking", "geometry", "arcs")


def _imported_modules(tree: ast.Module) -> set[str]:
    """Every component of every module name an import statement names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
            found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("source, imports_catalog", [
    ("from .catalog import CheckResult", True),
    ("from . import catalog", True),
    ("import braidwork.catalog", True),
    ("from braidwork.catalog import build_e as b", True),
    ("from .certificates import CheckResult", False),
    ("catalog = 1", False),
])
def test_the_import_scan(source, imports_catalog):
    assert ("catalog" in _imported_modules(ast.parse(source))) is imports_catalog


@pytest.mark.parametrize("module", BELOW_CATALOG)
def test_the_lower_layers_do_not_import_the_catalog(module):
    path = ROOT / "src" / "braidwork" / f"{module}.py"
    assert "catalog" not in _imported_modules(ast.parse(path.read_text(), filename=str(path)))


def test_circles_are_sampled_in_tracking_alone():
    # every other module draws its loops round a point with tracking.lasso
    samplers = {path.stem for path in FILES if path.parent.name == "braidwork"
                and "circle_path" in _referenced(ast.parse(path.read_text(), filename=str(path)))}
    assert samplers == {"tracking"}


def test_geometry_imports_no_private_name_of_families():
    path = ROOT / "src" / "braidwork" / "geometry.py"
    private = {alias.name for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.ImportFrom) and node.module == "families"
               for alias in node.names if alias.name.startswith("_")}
    assert not private


EXACT = ("words", "garside", "groups", "hurwitz", "catalog", "certificates")
NUMERICAL = {"numpy", "families", "tracking", "geometry", "arcs", "bifurcation"}


def _outside_functions(tree: ast.Module) -> ast.Module:
    """The import statements that run when the module is imported: those
    outside every function body."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append(child)
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child)

    visit(tree)
    return ast.Module(body=found, type_ignores=[])


@pytest.mark.parametrize("source, numerical", [
    ("import numpy as np", {"numpy"}),
    ("from . import arcs, catalog", {"arcs"}),
    ("if True:\n    from .tracking import lasso", {"tracking"}),
    ("class C:\n    from numpy.polynomial import polynomial", {"numpy"}),
    ("def f():\n    from .families import catalogue_family", set()),
    ("def f():\n    def g():\n        import numpy", set()),
])
def test_the_start_import_scan(source, numerical):
    assert _imported_modules(_outside_functions(ast.parse(source))) & NUMERICAL == numerical


@pytest.mark.parametrize("module", EXACT)
def test_the_exact_layer_imports_no_numerical_module(module):
    path = ROOT / "src" / "braidwork" / f"{module}.py"
    assert not _imported_modules(ast.parse(path.read_text(), filename=str(path))) & NUMERICAL


def test_families_alone_imports_numpy():
    importers = {path.stem for path in (ROOT / "src" / "braidwork").glob("*.py")
                 if "numpy" in _imported_modules(ast.parse(path.read_text(), filename=str(path)))}
    assert importers == {"families"}


def test_the_cli_imports_numerical_modules_only_in_functions():
    path = ROOT / "src" / "braidwork" / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _imported_modules(_outside_functions(tree)) & NUMERICAL
    assert _imported_modules(tree) & NUMERICAL == NUMERICAL - {"numpy"}


def _reaches_numpy_polynomial(tree: ast.Module) -> bool:
    """Whether the module imports ``numpy.polynomial`` or reads a
    ``polynomial`` attribute."""
    return "polynomial" in _imported_modules(tree) or any(
        isinstance(node, ast.Attribute) and node.attr == "polynomial" for node in ast.walk(tree))


def _np_outside(tree: ast.Module, function: str) -> list[int]:
    """The lines of the module's references to ``np`` outside the
    module-level function ``function``."""
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == function
              for node in ast.walk(top)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "np" and id(node) not in inside]


@pytest.mark.parametrize("source, reaches", [
    ("from numpy.polynomial import polynomial as npoly", True),
    ("import numpy.polynomial.polynomial", True),
    ("from numpy import linalg, polynomial", True),
    ("import numpy as np\nnp.polynomial.polynomial.polyroots([1, 1])", True),
    ("import numpy as np\nnp.linalg.eigvals", False),
])
def test_the_numpy_polynomial_scan(source, reaches):
    assert _reaches_numpy_polynomial(ast.parse(source)) is reaches


@pytest.mark.parametrize("source, lines", [
    ("def _companion_roots(rows) -> np.ndarray:\n    return np.array(rows)", []),
    ("def solve_stack(rows):\n    return np.array(rows)", [2]),
    ("def f(rows: np.ndarray):\n    pass", [1]),
    ("x = np.pi\ndef _companion_roots():\n    def g():\n        np.sort", [1]),
    ("class C:\n    def _companion_roots(self):\n        np.sort", [3]),
])
def test_the_np_reference_scan(source, lines):
    assert _np_outside(ast.parse(source), "_companion_roots") == lines


def test_numpy_is_one_function_of_families():
    """Every root solve reaches numpy through ``families._companion_roots``
    alone, and nothing builds a companion matrix with numpy.polynomial."""
    for path in (ROOT / "src" / "braidwork").glob("*.py"):
        assert not _reaches_numpy_polynomial(ast.parse(path.read_text(), filename=str(path))), path
    path = ROOT / "src" / "braidwork" / "families.py"
    assert _np_outside(ast.parse(path.read_text(), filename=str(path)), "_companion_roots") == []
