"""The library's settable defaults, pinned.

Every defaulted parameter of a public function or method under
``src/wavefronts`` is listed below as ``(module, function, parameter)``; a
method is named ``Class.method``.  A new keyword default, or a deleted one,
changes the set and fails this test, so each knob is added on purpose.
Values that no caller sets are module constants instead.
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
    ("fields", "ScalarField.derivatives", "third"),
    ("fields", "ScalarField.third", "rows"),
    ("fields", "fd_jacobian", "ncols"),
    ("fields", "field_from_callable", "box"),
    ("fields", "field_from_expr", "box"),
    ("fields", "field_from_expr", "third_rows"),
    ("fronts", "big_front", "max_points"),
    ("fronts", "big_front", "step"),
    ("fronts", "caustic", "max_points"),
    ("fronts", "caustic", "step"),
    ("fronts", "delta_set", "max_points"),
    ("fronts", "delta_set", "stall_ratio"),
    ("fronts", "delta_set", "step"),
    ("fronts", "detect_cusps", "angle"),
    ("fronts", "discriminant", "max_points"),
    ("fronts", "discriminant", "step"),
    ("fronts", "momentary_front", "max_points"),
    ("fronts", "momentary_front", "step"),
    ("gallery", "gallery_family", "alpha"),
    ("geometry", "distance_squared_family", "v_box"),
    ("geometry", "tangent_sphere_check", "radius_tol"),
    ("jets", "k_determinacy_dimension", "variables"),
    ("jets", "lagrangian_stability_check", "variables"),
    ("jets", "sp_plus_versality_check", "variables"),
    ("linalg", "numerical_rank", "eps"),
    ("pde", "burgers", "speed"),
    ("pde", "integrate_characteristics", "dt"),
    ("pde", "transport", "speed"),
    ("solve", "continue_curve", "box"),
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
