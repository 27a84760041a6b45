"""Span tracing of gradecat's public functions, installed from outside.

`Tracer.install()` replaces each traced function in every loaded gradecat
module namespace that holds it (modules import each other's functions by
name, so patching the defining module alone would miss most calls) and
`uninstall()` restores the originals.  Spans live in memory as
[pass, name, start, end, parent] lists and are written out by the caller.
Scalar products are counted, not spanned: they run millions of times.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) pairs traced with a span.  "Class.method" names a method.
SPANNED = {
    "cli": ("main", "rows_to_json"),
    "classify": ("classify",),
    "verify": ("run_suite", "suite_inner_aut", "suite_idempotents", "suite_squares",
               "suite_universal", "suite_weyl", "suite_stab", "suite_properties"),
    "division": ("canonical", "build_crossed_product", "commutation_bicharacter",
                 "centralizer_support", "quadratic_form", "quad_forms", "arf",
                 "equivalent", "is_fine_division", "parse_catalog_ref"),
    "matrix": ("matrix_algebra", "fine_condition", "is_fine", "equivalent_gradings",
               "harvest_universal_group", "expected_universal_group", "component_count",
               "expected_component_count", "homogeneous_idempotents", "squares_profile",
               "to_structure_constants", "is_graded_simple"),
    "abelian": ("universal_abelian_group", "smith_normal_form", "automorphism_group",
                "character_group", "abstract_type", "quotient_type", "square_elements",
                "subgroup_generated"),
    "autgroups": ("weyl_division", "weyl_descriptor", "stab_division", "stab_descriptor",
                  "diag_descriptor", "identify_group", "descriptors_equal",
                  "WeylModel.__init__", "WeylModel.identify", "WeylModel.mul"),
    "structconst": ("from_division", "group_algebra", "inner_stabilizer_quotient",
                    "homogeneous_witness", "int_in_stabilizer", "is_graded_simple",
                    "center_basis", "invert", "hxh_counterexample"),
}

# Entry points: their self time is the part of a pass no layer span covers.
ENTRY_SPANS = frozenset(
    ["cli.main", "classify.classify"] + [f"verify.{name}" for name in SPANNED["verify"]]
)

# (counter name, module, class) for the scalar product counters.
MUL_COUNTERS = (
    ("scalars.cyclotomic.mul_calls", "scalars", "Cyclotomic"),
    ("scalars.quaternion.mul_calls", "scalars", "RationalQuaternion"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[dict] = []  # one dict of counters per traced pass
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pass = -1

    # -- recording --------------------------------------------------------

    def begin_pass(self):
        self._pass += 1
        self.counts.append({})

    def count(self, key: str, n=1):
        bucket = self.counts[self._pass]
        bucket[key] = bucket.get(key, 0) + n

    def _parent_name(self):
        return self.spans[self._stack[-1]][1] if self._stack else None

    def _span_wrapper(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([self._pass, name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                spans[index][3] = clock()
                stack.pop()
                if observe is not None:
                    observe(self, args, kwargs, result, error)

        return wrapper

    def _count_wrapper(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bucket = tracer.counts[tracer._pass]
            bucket[key] = bucket.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "gradecat" or n.startswith("gradecat.")]
        for module_name, attrs in SPANNED.items():
            module = sys.modules[f"gradecat.{module_name}"]
            for attr in attrs:
                name = f"{module_name}.{attr}"
                observe = _OBSERVERS.get(name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, method,
                                self._span_wrapper(name, cls.__dict__[method], observe))
                    continue
                original = getattr(module, attr)
                wrapped = self._span_wrapper(name, original, observe)
                # rebind every module-level reference, including aliases
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
        for key, module_name, cls_name in MUL_COUNTERS:
            cls = getattr(sys.modules[f"gradecat.{module_name}"], cls_name)
            mul = cls.__dict__["__mul__"]
            wrapped = self._count_wrapper(key, mul)
            self._patch(cls, "__mul__", wrapped)
            # an __rmul__ that is the same routine is a product of its own; one
            # that delegates to __mul__ is counted there
            if cls.__dict__.get("__rmul__") is mul:
                self._patch(cls, "__rmul__", wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- per-call observers: counts recorded where the work happens ---------------

def _observe_aut(tracer, args, kwargs, result, error):
    if error is not None:
        tracer.count("abelian.automorphism_group.refused")
        return
    tracer.count("abelian.automorphism_group.size", len(result))
    if tracer._parent_name() == "autgroups.weyl_division":
        tracer.count("autgroups.weyl_division.enumerated", len(result))


def _observe_weyl_division(tracer, args, kwargs, result, error):
    if error is None:
        tracer.count("autgroups.weyl_division.kept", len(result[0]))


def _observe_universal(tracer, args, kwargs, result, error):
    tracer.count("abelian.universal_abelian_group.labels", len(args[0]))
    tracer.count("abelian.universal_abelian_group.relations", len(args[1]))


def _observe_invert(tracer, args, kwargs, result, error):
    if error is None and result is not None:
        tracer.count("structconst.invert.units")


_OBSERVERS = {
    "abelian.automorphism_group": _observe_aut,
    "autgroups.weyl_division": _observe_weyl_division,
    "abelian.universal_abelian_group": _observe_universal,
    "structconst.invert": _observe_invert,
}


# -- aggregation --------------------------------------------------------------

def pass_profile(spans, pass_index: int) -> dict:
    """calls, inclusive and self seconds per span name for one traced pass."""
    mine = [(i, s) for i, s in enumerate(spans) if s[0] == pass_index]
    child_time: dict[int, float] = {}
    for _, (_, _, start, end, parent) in mine:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    profile: dict[str, dict] = {}
    for i, (_, name, start, end, _) in mine:
        entry = profile.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time.get(i, 0.0)
    return profile


def layer_metrics(profile: dict, counts: dict) -> dict:
    """The per-layer metrics of one traced pass (see README.md)."""
    def self_s(name):
        return profile.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return profile.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "division.canonical.calls": calls("division.canonical"),
        "division.canonical.self_s": self_s("division.canonical"),
        "division.commutation_bicharacter.self_s": self_s("division.commutation_bicharacter"),
        "division.quad_forms.self_s": self_s("division.quad_forms"),
        "matrix.harvest_universal_group.self_s": self_s("matrix.harvest_universal_group"),
        "matrix.to_structure_constants.self_s": self_s("matrix.to_structure_constants"),
        "abelian.universal_abelian_group.self_s": self_s("abelian.universal_abelian_group"),
        "abelian.universal_abelian_group.labels":
            counts.get("abelian.universal_abelian_group.labels", 0),
        "abelian.universal_abelian_group.relations":
            counts.get("abelian.universal_abelian_group.relations", 0),
        "abelian.smith_normal_form.self_s": self_s("abelian.smith_normal_form"),
        "abelian.automorphism_group.self_s": self_s("abelian.automorphism_group"),
        "abelian.automorphism_group.size": counts.get("abelian.automorphism_group.size", 0),
        "abelian.automorphism_group.refused":
            counts.get("abelian.automorphism_group.refused", 0),
        "autgroups.weyl_division.calls": calls("autgroups.weyl_division"),
        "autgroups.weyl_division.self_s": self_s("autgroups.weyl_division"),
        "autgroups.weyl_division.kept": counts.get("autgroups.weyl_division.kept", 0),
        "autgroups.weyl_division.kept_ratio":
            ratio(counts.get("autgroups.weyl_division.kept", 0),
                  counts.get("autgroups.weyl_division.enumerated", 0)),
        "autgroups.WeylModel.self_s": sum(e["self_s"] for n, e in profile.items()
                                          if n.startswith("autgroups.WeylModel.")),
        "autgroups.identify_group.self_s": self_s("autgroups.identify_group"),
        "structconst.invert.calls": calls("structconst.invert"),
        "structconst.invert.self_s": self_s("structconst.invert"),
        "structconst.invert.unit_ratio":
            ratio(counts.get("structconst.invert.units", 0), calls("structconst.invert")),
    }
    for fn in ("from_division", "inner_stabilizer_quotient", "homogeneous_witness",
               "int_in_stabilizer", "is_graded_simple", "center_basis"):
        m[f"structconst.{fn}.self_s"] = self_s(f"structconst.{fn}")
    for key, _, _ in MUL_COUNTERS:
        m[key] = counts.get(key, 0)
    for fn in SPANNED["verify"][1:]:
        suite = fn[len("suite_"):].replace("_", "-")
        m[f"verify.{suite}.s"] = profile.get(f"verify.{fn}", {}).get("total_s", 0.0)
    m["cli.rows_to_json.self_s"] = self_s("cli.rows_to_json")
    for module in SPANNED:
        m[f"{module}.self_s"] = sum(e["self_s"] for n, e in profile.items()
                                    if n.split(".")[0] == module)
    pass_s = profile.get("cli.main", {}).get("total_s", 0.0)
    entry_self = sum(e["self_s"] for n, e in profile.items() if n in ENTRY_SPANS)
    m["trace.coverage_ratio"] = ratio(pass_s - entry_self, pass_s)
    return m
