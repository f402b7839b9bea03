"""The library's settable defaults, pinned.

Every defaulted parameter of a public function or method under
``src/wavefronts`` is listed below as ``(module, function, parameter)``; a
method is named ``Class.method``.  Every defaulted field of a public
dataclass, a config object's knob too, is listed as ``(module, Class,
field)``.  A new default, or a deleted one, changes the sets and fails this
test, so each knob is added on purpose.
Values that no caller sets are module constants instead.  The module also
checks that every name a library module imports is used there, that every
top-level name is reached from a command, an export, the benchmark or a tool,
and that README's table of fixed constants names only constants that exist.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wavefronts"

KNOBS = {
    ("cli", "run", "argv"),
    ("families", "family_from_text", "box"),
    ("families", "family_from_text", "name"),
    ("families", "family_from_text", "seeds"),
    ("families", "morse_family_check", "eps"),
    ("families", "morse_hypersurface_check", "eps"),
    ("families", "nondegeneracy_check", "eps"),
    ("fields", "field_from_expr", "box"),
    ("fields", "field_from_expr", "third_rows"),
    ("fronts", "caustic", "max_points"),
    ("fronts", "caustic", "step"),
    ("gallery", "gallery_family", "alpha"),
    ("linalg", "numerical_rank", "eps"),
    ("pde", "burgers", "speed"),
}

FIELDS = {
    ("families", "GeneratingFamily", "name"),
    ("families", "GeneratingFamily", "seeds"),
    ("fields", "ScalarField", "box"),
    ("fronts", "PointCloud", "chains"),
    ("geometry", "Ellipse", "a"),
    ("geometry", "Ellipse", "b"),
    ("geometry", "Ellipsoid", "a"),
    ("geometry", "Ellipsoid", "b"),
    ("geometry", "Ellipsoid", "c"),
    ("geometry", "Parabola", "c"),
    ("pde", "BlockField", "box"),
}


def _defaulted(args: ast.arguments):
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in named]


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is decorated ``@dataclass`` or ``@dataclass(...)``."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list)


def library_knobs() -> set:
    """``(module, function, parameter)`` of every defaulted parameter of a
    public module-level function or public method of a public class, and
    ``(module, Class, field)`` of every defaulted field of a public
    dataclass."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_dataclass(node):
                    out.update(
                        (module, node.name, f.target.id)
                        for f in node.body
                        if isinstance(f, ast.AnnAssign) and f.value is not None
                    )
                functions = [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                functions = [(node.name, node)]
            else:
                continue
            for name, fn in functions:
                if not fn.name.startswith("_"):
                    out.update((module, name, arg) for arg in _defaulted(fn.args))
    return out


def test_defaulted_parameters_are_the_pinned_set():
    found = library_knobs()
    assert sorted(found - KNOBS - FIELDS) == [], "new defaulted parameters or fields"
    assert sorted((KNOBS | FIELDS) - found) == [], "pinned parameters or fields that are gone"


def _table(path: Path, name: str) -> list:
    """The literal list assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


def test_benchmark_tracer_names_exist():
    # perfbench/tracing.py patches these names through ``__dict__`` and fails
    # with KeyError on one that is gone, so a renamed or deleted function (or
    # a dropped re-export) fails here rather than only in a traced benchmark run
    tracing = ROOT / "perfbench" / "tracing.py"
    module = lambda name: importlib.import_module(f"wavefronts.{name}")
    missing = [
        (mod, attr) for mod, attr, *_ in _table(tracing, "MODULE_BOUNDARIES") if attr not in vars(module(mod))
    ]
    missing += [
        (mod, f"{cls}.{attr}")
        for mod, cls, attr, *_ in _table(tracing, "CLASS_BOUNDARIES")
        if cls not in vars(module(mod)) or attr not in vars(vars(module(mod))[cls])
    ]
    assert missing == []


def test_readme_constants_exist():
    # each row of README's "Fixed constants" table names a module attribute,
    # so a deleted or renamed constant cannot leave a stale row
    table = (ROOT / "README.md").read_text().split("### Fixed constants", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \|", table, flags=re.M)
    assert rows
    assert [f"{m}.{n}" for m, n in rows if not hasattr(importlib.import_module(f"wavefronts.{m}"), n)] == []


def test_every_import_is_used():
    # a name a module imports is read there, or re-exported through __all__;
    # the one exception is a name perfbench/tracing.py wraps in that module
    # (a MODULE_BOUNDARIES pair), imported on a ``noqa: F401`` line
    boundaries = {(mod, attr) for mod, attr, *_ in _table(ROOT / "perfbench" / "tracing.py", "MODULE_BOUNDARIES")}
    unused, unwrapped = [], []
    for path in sorted(SRC.glob("*.py")):
        module, text = path.stem, path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used.update(_table(path, "__all__"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if "noqa: F401" in lines[alias.lineno - 1]:
                    if (module, name) not in boundaries:
                        unwrapped.append((module, name))
                elif name not in used:
                    unused.append((module, name))
    assert unused == [], "imported names never used"
    assert unwrapped == [], "noqa: F401 imports that perfbench/tracing.py does not wrap"


# Top-level names of ``src/`` that nothing reaches yet, each kept for a reason
# stated here; a name leaves this list when its code is gone or reached.
PENDING = {
    ("fronts", "detect_cusps"): "a test-side cusp heuristic until cusps are located exactly on every chain",
    ("fronts", "CUSP_ANGLE"): "the angle of detect_cusps",
    ("solve", "OUTCOMES"): "the documented names of newton_batch's outcome codes",
}


def _definitions(tree: ast.Module) -> dict:
    """Top-level name -> the nodes that define it (def, class or assignment)."""
    out: dict = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out.setdefault(name.id, []).append(node)
    return out


def _imports(tree: ast.Module) -> dict:
    """Local name -> ``(module, name)`` of each package-relative import of a
    module; ``name`` is None for a module (``from . import fronts``)."""
    out = {}
    for imp in ast.walk(tree):
        if isinstance(imp, ast.ImportFrom) and imp.level == 1:
            for alias in imp.names:
                target = (alias.name, None) if imp.module is None else (imp.module, alias.name)
                out[alias.asname or alias.name] = target
    return out


def _mentioned(paths) -> set:
    """Every identifier a file names: names, attributes, import aliases and
    the dotted parts of string constants."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.update((node.asname or node.name).split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(part for part in node.value.split(".") if part.isidentifier())
    return out


def unreached_names() -> list:
    """``(module, name)`` of every top-level definition under ``src/wavefronts``
    that no root reaches.

    The roots are the names ``__init__.__all__`` exports, every top-level
    function of ``cli`` and any name that ``perfbench/*.py`` or
    ``tools/*.py`` mentions.  A reached definition
    reaches each name its code refers to through ``ast.Name``, through
    ``ast.Attribute`` on an imported package module, or through an import
    alias; this is repeated to a fixpoint."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defs = {mod: _definitions(tree) for mod, tree in trees.items() if mod != "__init__"}
    imports = {mod: _imports(tree) for mod, tree in trees.items()}

    def resolve(mod, name):
        while name not in defs.get(mod, {}):  # follow re-exports
            mod, name = imports[mod].get(name, (None, None))
            if name is None:  # not from this package, or a module
                return None
        return mod, name

    def refs(mod, node):
        """The definitions the code of ``node`` in ``mod`` refers to."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(mod, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = imports[mod].get(sub.value.id)
                if target is not None and target[1] is None:
                    yield resolve(target[0], sub.attr)

    mentioned = _mentioned([*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")])
    todo = [resolve("__init__", name) for name in _table(SRC / "__init__.py", "__all__")]
    todo += [("cli", f.name) for f in trees["cli"].body if isinstance(f, ast.FunctionDef)]
    todo += [(mod, name) for mod, names in defs.items() for name in names if name in mentioned]
    reached = set()
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        for node in defs[key[0]][key[1]]:
            todo += refs(key[0], node)
    return sorted((mod, name) for mod, names in defs.items() for name in names if (mod, name) not in reached)


def test_every_top_level_name_is_reached():
    # a name only tests use is test code: it moves into the tests or goes
    unreached = unreached_names()
    assert sorted(set(unreached) - set(PENDING)) == [], "names no command, export, benchmark or tool reaches"
    assert sorted(set(PENDING) - set(unreached)) == [], "pending names that are now reached or gone"
