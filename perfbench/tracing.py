"""Outside-in tracing of the wavefronts layers.

Wrappers are installed on the names the package looks up at call time: a
module attribute where other modules reach a function through ``module.fn``
or ``from .module import fn`` (the second form binds the name in the
importing module, so every importing module is patched), and a class
attribute for methods.  Nothing under ``src/`` changes.

Every wrapped call updates a per-group self-time total (its duration minus
the time spent in traced calls below it) and adds its own duration to the
enclosing call, so the self times of all groups add up to the duration of
the root spans.  Boundaries that run more than about 10^5 times per run
(field evaluations, finite-difference Jacobians, rank computations, family
evaluations, the gallery's mu lambda) are aggregated: they keep counts and
times but store no span.  The others store one span
``(id, name, start, end, parent_id, op_id)`` each while span recording is on.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import Counter, defaultdict
from statistics import median
from time import perf_counter

# (module, attribute, span name, group, store a span per call)
# Groups are the metric prefixes of BENCHMARK.json's per_layer list.
MODULE_BOUNDARIES = [
    ("solve", "fd_jacobian", "solve.fd_jacobian", "solve.fd_jacobian", False),
    ("solve", "newton_solve", "solve.newton@solve", "solve.newton", True),
    ("fronts", "newton_solve", "solve.newton@fronts", "solve.newton", True),
    ("families", "newton_solve", "solve.newton@families", "solve.newton", True),
    ("gallery", "newton_solve", "solve.newton@gallery", "solve.newton", True),
    ("geometry", "newton_solve", "solve.newton@geometry", "solve.newton", True),
    ("solve", "continue_curve", "solve.continue@solve", "solve.continue", True),
    ("fronts", "continue_curve", "solve.continue@fronts", "solve.continue", True),
    ("solve", "null_space", "linalg.null_space@solve", "linalg", False),
    ("solve", "numerical_rank", "linalg.numerical_rank@solve", "linalg", False),
    ("families", "null_space", "linalg.null_space@families", "linalg", False),
    ("families", "numerical_rank", "linalg.numerical_rank@families", "linalg", False),
    ("fronts", "numerical_rank", "linalg.numerical_rank@fronts", "linalg", False),
    ("jets", "numerical_rank", "linalg.numerical_rank@jets", "linalg", False),
    ("families", "solve_critical_set", "families.solve_critical_set", "families.critical", True),
    ("fronts", "solve_critical_set", "families.solve_critical_set@fronts", "families.critical", True),
    ("families", "morse_family_check", "families.morse_family_check", "families.checks", True),
    ("families", "morse_hypersurface_check", "families.morse_hypersurface_check", "families.checks", True),
    ("families", "nondegeneracy_check", "families.nondegeneracy_check", "families.checks", True),
    ("families", "rank_diagnostics", "families.rank_diagnostics", "families.checks", True),
    ("families", "catalog", "families.catalog", "families.build", True),
    ("families", "family_from_text", "families.family_from_text", "families.build", True),
    ("families", "shifted_family", "families.shifted_family", "families.build", True),
    ("fronts", "project_to_set", "fronts.project_to_set", "fronts", True),
    ("fronts", "_trace_all", "fronts.trace_all", "fronts", True),
    ("fronts", "momentary_front", "fronts.momentary_front", "fronts", True),
    ("fronts", "big_front", "fronts.big_front", "fronts", True),
    ("fronts", "caustic", "fronts.caustic", "fronts", True),
    ("fronts", "maxwell_set", "fronts.maxwell_set", "fronts", True),
    ("fronts", "delta_set", "fronts.delta_set", "fronts", True),
    ("fronts", "discriminant", "fronts.discriminant", "fronts", True),
    ("fronts", "polyline_distances", "fronts.polyline_distances", "fronts.polyline_distances", True),
    ("fronts", "polyline_self_intersections", "fronts.self_intersections", "fronts.self_intersections", True),
    ("gallery", "polyline_self_intersections", "fronts.self_intersections@gallery", "fronts.self_intersections", True),
    ("geometry", "evolute", "geometry.evolute", "geometry", True),
    ("geometry", "parallels", "geometry.parallels", "geometry", True),
    ("geometry", "parallel_cusps", "geometry.parallel_cusps", "geometry", True),
    ("geometry", "distance_squared_family", "geometry.distance_squared_family", "geometry", True),
    ("gallery", "gallery_family", "gallery.gallery_family", "gallery.build", True),
    ("gallery", "gallery_front", "gallery.gallery_front", "gallery.front", True),
    ("gallery", "gallery_discriminant", "gallery.gallery_discriminant", "gallery.discriminant", True),
    ("pde", "integrate_characteristics", "pde.integrate_characteristics", "pde.integrate", True),
    ("pde", "breaking_time", "pde.breaking_time", "pde.other", True),
    ("pde", "multivalued_count", "pde.multivalued_count", "pde.other", True),
    ("pde", "sheet_values", "pde.sheet_values", "pde.other", True),
    ("pde", "burgers", "pde.burgers", "pde.other", True),
    ("jets", "lagrangian_stability_check", "jets.lagrangian_stability_check", "jets", True),
    ("jets", "sp_plus_versality_check", "jets.sp_plus_versality_check", "jets", True),
    ("jets", "k_determinacy_dimension", "jets.k_determinacy_dimension", "jets", True),
    ("expr", "parse_expr", "expr.parse_expr", "expr.parse", True),
    ("expr", "parse_family", "expr.parse_family", "expr.parse", True),
    ("cli", "emit_csv", "emitters.emit_csv", "emitters", True),
    ("cli", "emit_svg", "emitters.emit_svg", "emitters", True),
    ("cli", "run", "cli.run", "cli", True),
]

# (module, class, method, span name, group, store a span per call)
CLASS_BOUNDARIES = [
    ("fields", "ScalarField", "value", "fields.value", "fields", False),
    ("fields", "ScalarField", "grad", "fields.grad", "fields", False),
    ("fields", "ScalarField", "hessian", "fields.hessian", "fields", False),
    ("families", "GeneratingFamily", "value", "families.eval.value", "families.eval", False),
    ("families", "GeneratingFamily", "grad_q", "families.eval.grad_q", "families.eval", False),
    ("families", "GeneratingFamily", "grad_x", "families.eval.grad_x", "families.eval", False),
    ("families", "GeneratingFamily", "hess", "families.eval.hess", "families.eval", False),
    ("families", "GeneratingFamily", "hess_qq", "families.eval.hess_qq", "families.eval", False),
    ("families", "GeneratingFamily", "delta_jacobian", "families.eval.delta_jacobian", "families.eval", False),
    ("expr", "Expr", "compile", "expr.compile", "expr.compile", False),
]

# The benchmark's own per-operation spans (the roots) use this group.
ROOT_GROUP = "bench"


def _len(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


class Tracer:
    """Span and counter store for one traced process.

    ``install`` patches the package; ``uninstall`` restores every patched
    attribute.  Counters and self times accumulate until ``take`` returns
    them and starts a fresh accumulation.
    """

    def __init__(self):
        self._stack = []  # frames: [span name, group, start, child time, span id]
        self._patched = []
        self._next_id = 0
        self.op_id = 0
        self.record_spans = False
        self.spans = []
        # cleared in place by take(): the hooks hold references to these
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = Counter()
        self.raised = Counter()
        self.counts = Counter()
        self.calls_by_parent = Counter()  # (group, caller's group)
        self.root_s = 0.0

    def take(self) -> dict:
        out = {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "calls": dict(self.calls),
            "raised": dict(self.raised),
            "counts": dict(self.counts),
            "calls_by_parent": dict(self.calls_by_parent),
            "root_s": self.root_s,
        }
        for d in (self.self_s, self.inclusive_s, self.calls, self.raised, self.counts, self.calls_by_parent):
            d.clear()
        self.root_s = 0.0
        return out

    # -- spans -------------------------------------------------------------

    def _parent_group(self):
        return self._stack[-1][1] if self._stack else None

    def _enter(self, name, group, store):
        span_id = None
        if store and self.record_spans:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, group, perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, ok):
        end = perf_counter()
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - would mean a wrapper bug
            raise RuntimeError(f"span stack corrupted at {frame[0]}")
        name, group, start, child, span_id = frame
        dur = end - start
        self.self_s[group] += dur - child
        self.inclusive_s[name] += dur
        self.calls[name] += 1
        if not ok:
            self.raised[name] += 1
        if self._stack:
            self._stack[-1][3] += dur
        else:
            self.root_s += dur
        if span_id is not None:
            parent = next((f[4] for f in reversed(self._stack) if f[4] is not None), None)
            self.spans.append((span_id, name, start, end, parent, self.op_id))

    @contextlib.contextmanager
    def root(self, name):
        """One benchmark operation: a root span with a fresh op id."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        self.op_id += 1
        frame = self._enter(name, ROOT_GROUP, True)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit(frame, ok)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, group, store, on_exit=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent_group()
            frame = self._enter(name, group, store)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._exit(frame, ok)
                self.calls_by_parent[group, parent] += 1
                if on_exit is not None:
                    on_exit(args, kwargs, result if ok else None, ok)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules: dict):
        """Patch the package.  ``modules`` maps short names to module objects."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for mod, attr, name, group, store in MODULE_BOUNDARIES:
            owner = modules[mod]
            fn = owner.__dict__[attr]
            self._patch(owner, attr, self._wrap(fn, name, group, store, hooks.get(name.split("@")[0])))
        for mod, cls_name, attr, name, group, store in CLASS_BOUNDARIES:
            cls = getattr(modules[mod], cls_name)
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, group, store))

    def uninstall(self):
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched = []

    # -- counters read from arguments and results ---------------------------

    def _hooks(self) -> dict:
        c = self.counts

        def project(args, kwargs, result, ok):
            c["fronts.project.seeds_in"] += _len(args[1] if len(args) > 1 else kwargs.get("samples"))
            c["fronts.project.kept"] += _len(result)

        def trace_all(args, kwargs, result, ok):
            c["fronts.trace.seeds_in"] += _len(args[1] if len(args) > 1 else kwargs.get("seeds"))

        def continue_curve(args, kwargs, result, ok):
            if ok:
                c["solve.continue.points"] += len(result.points)

        def critical(args, kwargs, result, ok):
            c["families.critical.points"] += _len(result)

        def maxwell(args, kwargs, result, ok):
            c["fronts.maxwell.points"] += _len(result)

        def distances(args, kwargs, result, ok):
            points = args[0] if args else kwargs["points"]
            chains = args[1] if len(args) > 1 else kwargs["chains"]
            c["fronts.polyline_distances.pairs"] += sum(
                len(points) * max(len(ch) - 1, 1) for ch in chains if len(ch)
            )

        def self_intersections(args, kwargs, result, ok):
            m = len(args[0] if args else kwargs["points"]) - 1
            c["fronts.self_intersections.segment_pairs"] += max(m - 1, 0) * max(m - 2, 0) // 2

        def integrate(args, kwargs, result, ok):
            x0 = args[1] if len(args) > 1 else kwargs["x0_grid"]
            t_range = args[2] if len(args) > 2 else kwargs["t_range"]
            dt = args[3] if len(args) > 3 else kwargs.get("dt", 1e-3)
            steps = max(1, int(round((float(t_range[1]) - float(t_range[0])) / dt)))
            c["pde.strip_steps"] += len(x0) * steps

        def emitted(path_index):
            def hook(args, kwargs, result, ok):
                path = args[path_index] if len(args) > path_index else kwargs.get("path")
                if ok and path is not None and os.path.exists(path):
                    c["emitters.bytes"] += os.path.getsize(path)

            return hook

        def gallery_family(args, kwargs, result, ok):
            if not ok:
                return
            mu = result.mu_fn

            def counted_mu(u):
                c["gallery.mu_evals"] += 1
                return mu(u)

            result.mu_fn = counted_mu

        return {
            "fronts.project_to_set": project,
            "fronts.trace_all": trace_all,
            "solve.continue": continue_curve,
            "families.solve_critical_set": critical,
            "fronts.maxwell_set": maxwell,
            "fronts.polyline_distances": distances,
            "fronts.self_intersections": self_intersections,
            "pde.integrate_characteristics": integrate,
            "emitters.emit_csv": emitted(3),
            "emitters.emit_svg": emitted(1),
            "gallery.gallery_family": gallery_family,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _sum(d: dict, pred) -> float:
    return sum(v for k, v in d.items() if pred(k))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counts_round: dict, times_rounds: list) -> dict:
    """Per-layer metrics from one round's exact counts and the median of the
    traced rounds' times.

    ``counts_round`` is one ``Tracer.take()`` result (the first traced round:
    counts repeat exactly for a seed).  ``times_rounds`` holds every traced
    round's ``take()`` result; times are their medians.
    """
    calls = counts_round["calls"]
    counts = counts_round["counts"]
    raised = counts_round["raised"]

    def self_med(group):
        return median(r["self_s"].get(group, 0.0) for r in times_rounds)

    def incl_med(pred):
        return median(_sum(r["inclusive_s"], pred) for r in times_rounds)

    def ncalls(prefix):
        return _sum(calls, lambda k: k == prefix or k.startswith(prefix + "@") or k.startswith(prefix + "."))

    field_calls = ncalls("fields")
    newton_calls = ncalls("solve.newton")
    newton_raised = _sum(raised, lambda k: k.startswith("solve.newton"))
    by_parent = counts_round["calls_by_parent"]
    jac_in_newton = by_parent.get(("solve.fd_jacobian", "solve.newton"), 0)
    cont_calls = ncalls("solve.continue")
    cont_points = counts.get("solve.continue.points", 0)
    newton_in_cont = by_parent.get(("solve.newton", "solve.continue"), 0)
    cont_incl = incl_med(lambda k: k.startswith("solve.continue"))
    seeds_in = counts.get("fronts.project.seeds_in", 0)
    pairs = counts.get("fronts.polyline_distances.pairs", 0)
    strip_steps = counts.get("pde.strip_steps", 0)
    fronts_self = self_med("fronts")
    dist_self = self_med("fronts.polyline_distances")
    pde_self = self_med("pde.integrate")
    fields_self = self_med("fields")

    m = {
        "fields.calls": (field_calls, "count"),
        "fields.self_s": (fields_self, "s"),
        "fields.us_per_call": (1e6 * _ratio(fields_self, field_calls), "us"),
        "fields.calls_per_point": (_ratio(field_calls, cont_points), "count"),
        "solve.fd_jacobian.calls": (ncalls("solve.fd_jacobian"), "count"),
        "solve.fd_jacobian.self_s": (self_med("solve.fd_jacobian"), "s"),
        "solve.newton.calls": (newton_calls, "count"),
        "solve.newton.failed_frac": (_ratio(newton_raised, newton_calls), "ratio"),
        "solve.newton.jacobians_per_call": (_ratio(jac_in_newton, newton_calls), "count"),
        "solve.newton.self_s": (self_med("solve.newton"), "s"),
        "solve.continue.calls": (cont_calls, "count"),
        "solve.continue.points": (cont_points, "count"),
        "solve.continue.failed": (_sum(raised, lambda k: k.startswith("solve.continue")), "count"),
        "solve.continue.newton_per_point": (_ratio(newton_in_cont, cont_points), "count"),
        "solve.continue.ms_per_point": (1e3 * _ratio(cont_incl, cont_points), "ms"),
        "linalg.calls": (ncalls("linalg"), "count"),
        "linalg.self_s": (self_med("linalg"), "s"),
        "families.critical.calls": (ncalls("families.solve_critical_set"), "count"),
        "families.critical.points": (counts.get("families.critical.points", 0), "count"),
        "families.critical.self_s": (self_med("families.critical"), "s"),
        "families.checks.self_s": (self_med("families.checks"), "s"),
        "families.eval.calls": (ncalls("families.eval"), "count"),
        "families.eval.self_s": (self_med("families.eval"), "s"),
        "fronts.project.seeds_in": (seeds_in, "count"),
        "fronts.project.kept_frac": (_ratio(counts.get("fronts.project.kept", 0), seeds_in), "ratio"),
        "fronts.trace.seeds_covered": (
            counts.get("fronts.trace.seeds_in", 0) - calls.get("solve.continue@fronts", 0),
            "count",
        ),
        "fronts.maxwell.points": (counts.get("fronts.maxwell.points", 0), "count"),
        "fronts.self_s": (fronts_self, "s"),
        "fronts.polyline_distances.pairs": (pairs, "count"),
        "fronts.polyline_distances.self_s": (dist_self, "s"),
        "fronts.polyline_distances.ns_per_pair": (1e9 * _ratio(dist_self, pairs), "ns"),
        "fronts.self_intersections.segment_pairs": (
            counts.get("fronts.self_intersections.segment_pairs", 0),
            "count",
        ),
        "fronts.self_intersections.self_s": (self_med("fronts.self_intersections"), "s"),
        "geometry.calls": (ncalls("geometry"), "count"),
        "geometry.self_s": (self_med("geometry"), "s"),
        "gallery.mu_evals": (counts.get("gallery.mu_evals", 0), "count"),
        "gallery.front.self_s": (self_med("gallery.front"), "s"),
        "gallery.discriminant.self_s": (self_med("gallery.discriminant"), "s"),
        "pde.strip_steps": (strip_steps, "count"),
        "pde.integrate.self_s": (pde_self, "s"),
        "pde.ns_per_strip_step": (1e9 * _ratio(pde_self, strip_steps), "ns"),
        "jets.rank_calls": (calls.get("linalg.numerical_rank@jets", 0), "count"),
        "jets.self_s": (self_med("jets"), "s"),
        "expr.compile.calls": (ncalls("expr.compile"), "count"),
        "expr.compile.self_s": (self_med("expr.compile"), "s"),
        "emitters.bytes": (counts.get("emitters.bytes", 0), "bytes"),
        "emitters.self_s": (self_med("emitters"), "s"),
        "cli.self_s": (self_med("cli"), "s"),
    }
    return m


def self_time_shares(times_rounds: list) -> dict:
    """Median share of the traced rounds' root time held by each group."""
    groups = sorted({g for r in times_rounds for g in r["self_s"]})
    return {
        g: median(_ratio(r["self_s"].get(g, 0.0), r["root_s"]) for r in times_rounds) for g in groups
    }
