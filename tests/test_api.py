"""The library's settable defaults, pinned.

Every defaulted parameter of a public function or method under
``src/wavefronts`` is listed below as ``(module, function, parameter)``; a
method is named ``Class.method``.  A new keyword default, or a deleted one,
changes the set and fails this test, so each knob is added on purpose.
Values that no caller sets are module constants instead.  The module also
checks that every name a library module imports is used there.
"""

import ast
import importlib
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
    ("fields", "fd_jacobian", "ncols"),
    ("fields", "field_from_expr", "box"),
    ("fields", "field_from_expr", "third_rows"),
    ("fronts", "caustic", "max_points"),
    ("fronts", "caustic", "step"),
    ("gallery", "gallery_family", "alpha"),
    ("linalg", "numerical_rank", "eps"),
    ("pde", "burgers", "speed"),
}


def _defaulted(args: ast.arguments):
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in named]


def library_knobs() -> set:
    """``(module, function, parameter)`` of every defaulted parameter of a
    public module-level function or public method of a public class."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
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
    assert sorted(found - KNOBS) == [], "new defaulted parameters"
    assert sorted(KNOBS - found) == [], "pinned parameters that are gone"


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
