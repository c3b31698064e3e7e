"""Layer tracing for one braidcomplex CLI command, done from outside the package.

Run as a child process:

    python3 perfbench/tracer.py SPANS.json CLI-ARGS...

It imports every braidcomplex module, wraps the public functions of each layer
(see LAYERS) in spans, runs ``braidcomplex.cli.main(CLI-ARGS)`` and writes the
per-layer totals to SPANS.json. Nothing inside ``src/`` is edited: a wrapper
replaces the function on its module and on every other braidcomplex module that
bound the same object at import time (``from .graphs import canonicalize``), and
methods are replaced on their class.

Only public functions are wrapped: the canonical search that ``internal_cores``
runs directly on core skeletons is therefore self time of ``graphs.enumerate``,
while the searches behind ``canonicalize`` count for ``graphs.canonicalize``.

A span's self time is its duration minus the time covered by spans it caused.
``calls`` counts entries into a layer from outside it: a wrapped function called
from another function of the same layer adds self time but not a call.
"""

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "braidcomplex"
MODULES = ("exact", "graphs", "freelie", "braids", "cohomology", "forms", "transport", "cli")

# layer -> (module, names). "*" takes every public module-level function of the
# module that no other layer names; "Class.*" takes the public methods and the
# arithmetic operators of the class.
LAYERS = {
    "graphs.canonicalize": ("graphs", ["canonicalize"]),
    "graphs.enumerate": ("graphs", ["enumerate_internally_connected", "enumerate_admissible",
                                    "internal_cores"]),
    "graphs.differential": ("graphs", ["d_contract", "d_split"]),
    "cohomology.assembly": ("cohomology", ["*", "ComplexBlock.*"]),
    "exact.elim": ("exact", ["rank", "rank_kernel_image", "membership", "cohomology_dims",
                             "echelon_from_matrix"]),
    "exact.matmul": ("exact", ["SparseRationalMatrix.__matmul__"]),
    "freelie": ("freelie", ["*", "LieElt.*", "TraceElt.*"]),
    "braids": ("braids", ["*", "TnElt.*", "EnvElt.*", "SderElement.*"]),
    "forms.gfe": ("forms", ["graph_form_eval"]),
    "forms.driver": ("forms", ["connection_eval", "flatness_residual", "holonomy",
                               "at_associator", "arnold_numeric_check"]),
    "transport.kron": ("transport", ["kron"]),
    "transport.products": ("transport", ["standard_simplex_module", "circle_module",
                                         "twist_module", "box_product", "level_tensor",
                                         "diagonal_module"]),
    "transport.projector": ("transport", ["degenerate_complement_projector",
                                          "bidegree_complement_projector",
                                          "chain_boundary_matrix", "map_matrix"]),
    "transport.aw_shuffle": ("transport", ["shuffle_sign", "shuffles_with_signs",
                                           "shuffle_lemma_report", "aw_map", "shuffle_map",
                                           "total_boundary", "monoidal_aw_check"]),
    "transport.poly": ("transport", ["Poly.*", "WordForm.*", "PolyConnection.*",
                                     "simplex_corner", "zero_connection", "flat_family",
                                     "abelian_family", "face_connection", "segment_holonomy",
                                     "edge_holonomy", "corner_restriction", "k_map",
                                     "bar_boundary", "k_boundary_report", "t_map",
                                     "t_face_report", "holonomy_ode_report", "psi",
                                     "psi_boundary_check"]),
    "cli.emit": ("cli", ["emit_report"]),
}

OPERATORS = ("__add__", "__sub__", "__mul__", "__neg__", "__matmul__")

# caches whose cache_info() gives cohomology.lru.hit_ratio
LRU_FUNCTIONS = ("ic_graphs", "admissible_graphs", "build_block", "tree_basis")


class Slot:
    """Totals of one layer: calls from outside it, self time, and its counters."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0
        self.counters = {}

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value


def _nnz_in(args, kwargs, out):
    return sum(a.nnz() for a in (*args, *kwargs.values()) if hasattr(a, "nnz"))


def _kron_out(args, kwargs, out):
    return out.nnz()


def _gfe_samples(args, kwargs, out):
    return (out[0] if isinstance(out, tuple) else out).samples


# layer -> (counter, function of (args, kwargs, result)), applied on outside calls
COUNTERS = {
    "exact.elim": ("input_nnz", _nnz_in),
    "transport.kron": ("out_nnz", _kron_out),
    "forms.gfe": ("samples", _gfe_samples),
}


class Tracer:
    def __init__(self):
        self.slots = {layer: Slot() for layer in LAYERS}
        self.stack = []          # child time covered so far, one entry per open span
        self.top_s = 0.0         # total duration of spans opened outside any span
        self.missing = []        # named functions and caches that were not found
        self.generators = []     # generator functions, left unwrapped
        self.basis = {}          # (function, args) -> size of the enumerated basis
        self.originals = {}

    def wrap(self, fn, layer):
        slot = self.slots[layer]
        stack = self.stack
        counter = COUNTERS.get(layer)
        clock = time.perf_counter
        basis = self.basis if layer == "graphs.enumerate" and fn.__name__.startswith(
            "enumerate_") else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outside = slot.depth == 0
            slot.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                slot.depth -= 1
                slot.self_s += dur - stack.pop()
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur
            if outside:
                slot.calls += 1
                if counter is not None:
                    slot.add(counter[0], counter[1](args, kwargs, out))
            if basis is not None:
                basis[(fn.__name__, args)] = len(out)
            return out

        return span

    def install(self):
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        claimed = set()
        plan = []  # (owner, attribute, original, layer)

        def take(owner, attr, layer):
            obj = owner.__dict__.get(attr)
            if obj is None or id(obj) in claimed:
                return False
            if inspect.isgeneratorfunction(obj):
                # a span would close before the generator does its work
                self.generators.append(f"{owner.__name__}.{attr}")
                return True
            claimed.add(id(obj))
            plan.append((owner, attr, obj, layer))
            return True

        # explicit names first, so that "*" only takes what nobody named
        for layer, (modname, names) in LAYERS.items():
            mod = modules[modname]
            for name in names:
                if name == "*":
                    continue
                cls_name, _, meth = name.partition(".")
                if not meth:
                    if not take(mod, name, layer):
                        self.missing.append(f"{modname}.{name}")
                    continue
                cls = mod.__dict__.get(cls_name)
                if not isinstance(cls, type):
                    self.missing.append(f"{modname}.{name}")
                elif meth == "*":
                    for attr, obj in list(vars(cls).items()):
                        public = not attr.startswith("_") or attr in OPERATORS
                        if public and inspect.isfunction(obj):
                            take(cls, attr, layer)
                elif not take(cls, meth, layer):
                    self.missing.append(f"{modname}.{name}")
        for layer, (modname, names) in LAYERS.items():
            if "*" not in names:
                continue
            mod = modules[modname]
            for attr, obj in list(vars(mod).items()):
                own = getattr(obj, "__module__", None) == mod.__name__
                func = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if own and func and not attr.startswith("_"):
                    take(mod, attr, layer)

        by_id = {}
        for owner, attr, obj, layer in plan:
            wrapper = self.wrap(obj, layer)
            by_id[id(obj)] = wrapper
            self.originals[f"{owner.__name__}.{attr}"] = obj
            setattr(owner, attr, wrapper)
        # rebind every other module-level name that holds a wrapped function
        for name, mod in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, obj in list(vars(mod).items()):
                    wrapper = by_id.get(id(obj))
                    if wrapper is not None:
                        setattr(mod, attr, wrapper)
        return modules

    def summary(self, modules, main_s):
        graphs = modules["graphs"]
        cohomology = modules["cohomology"]
        layers = {}
        for layer, slot in self.slots.items():
            layers[layer] = {"calls": slot.calls, "self_s": slot.self_s, **slot.counters}
        # a cache that is gone or renamed is reported as missing, not read as empty
        canon_cache = getattr(graphs, "_canon_cache", None)
        if canon_cache is None:
            self.missing.append(f"{graphs.__name__}._canon_cache")
        layers["graphs.canonicalize"]["distinct"] = len(canon_cache or ())
        hits = misses = 0
        for name in LRU_FUNCTIONS:
            fn = self.originals.get(f"{cohomology.__name__}.{name}")
            if fn is None or not hasattr(fn, "cache_info"):
                self.missing.append(f"{cohomology.__name__}.{name} (cache_info)")
                continue
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return {
            "layers": layers,
            "basis_graphs": sum(self.basis.values()),
            "lru": {"hits": hits, "misses": misses},
            "main_s": main_s,
            "top_s": self.top_s,
            "missing": self.missing,
            "generators": self.generators,
        }


def main(argv):
    start = time.perf_counter()
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    modules = tracer.install()
    import_s = time.perf_counter() - start
    t0 = time.perf_counter()
    code = modules["cli"].main(cli_args)
    main_s = time.perf_counter() - t0
    summary = tracer.summary(modules, main_s)
    summary["import_s"] = import_s
    summary["exit_code"] = code
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
