"""Per-layer tracing of proflq from outside, by patching module attributes.

`Tracer.install()` wraps the public functions and methods of every layer
module.  It then rebinds the names other proflq modules imported with
`from .x import f`, so those calls are traced as well.  Each wrapped call
records a span (id, parent id, name id, nested, start, end) in memory,
packed into 40 bytes; `write()` saves them when the run ends.  `nested` marks a span opened beneath a same-name call of its own
layer, so that recursion is not counted twice in the function's time.

A layer's self time is the time of its spans minus the time of their
child spans.  A function's `self_s` is the time the layer spent on behalf
of that function: its spans' self time plus that of the same-layer calls
made beneath it, without counting a function nested in itself twice.
`linalg` is traced at its boundary only: `rank` and `nullspace` include
the `rref` they run.  Nothing beneath a `catalog` call is traced, so
`catalog.all_groups.self_s` is the whole catalog build.  `FiniteGroup.mul`,
`conj` and `inv` run tens of millions of times, so they are counted
without a span.
"""

from __future__ import annotations

import importlib
import struct
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("groups", "catalog", "linalg", "groupcoh", "repv", "lq", "sep",
          "finring", "snf", "etale", "tower")
COUNT_ONLY = {"groups.FiniteGroup.mul", "groups.FiniteGroup.conj",
              "groups.FiniteGroup.inv"}
BOUNDARY_ONLY = {"linalg"}   # calls within the layer belong to the outer call
OPAQUE = {"catalog"}         # every call beneath the layer belongs to it
ALIASES = {
    "groups.FiniteGroup.closure": "groups.closure",
    "groups.FiniteGroup.mul": "groups.mul",
    "groups.FiniteGroup.conj": "groups.conj",
    "groups.FiniteGroup.inv": "groups.inv",
    **{f"groups.FiniteGroup.{m}": "groups.scan"
       for m in ("conjugacy_classes", "centralizer", "normalizer", "center",
                 "conjugate_subgroup", "are_conjugate_subgroups", "are_conjugate")},
}

SPAN = struct.Struct("=qqiidd")  # id, parent id, name id, nested, start, end

# Functions whose arguments or results feed counts in Tracer._hook.
HOOKED = {"groups.all_subgroups", "groupcoh.free_resolution", "repv.rep_classes",
          "repv.hom_enumerate", "lq.symonds_module"}

# The per-layer metrics the benchmark reports, with their units.
PER_LAYER = [
    ("groups.self_s", "s"), ("groups.mul.calls", "count"), ("groups.conj.calls", "count"),
    ("groups.inv.calls", "count"), ("groups.closure.calls", "count"),
    ("groups.closure.self_s", "s"), ("groups.all_subgroups.calls", "count"),
    ("groups.all_subgroups.self_s", "s"), ("groups.all_subgroups.repeat_frac", "frac"),
    ("groups.scan.self_s", "s"),
    ("linalg.self_s", "s"), ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    *[(f"linalg.rank.p{p}.{m}", u) for p in (2, 3)
      for m, u in (("calls", "count"), ("self_s", "s"), ("cells", "count"),
                   ("max_cells", "count"))],
    ("linalg.rank.ops", "count"), ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.self_s", "s"), ("linalg.in_row_space.calls", "count"),
    ("groupcoh.self_s", "s"), ("groupcoh.free_resolution.calls", "count"),
    ("groupcoh.free_resolution.self_s", "s"),
    ("groupcoh.free_resolution.repeat_frac", "frac"),
    ("groupcoh.free_resolution.betti_sum", "count"),
    ("groupcoh.cohomology.calls", "count"), ("groupcoh.cohomology.self_s", "s"),
    ("groupcoh.permutation_module.calls", "count"),
    ("groupcoh.permutation_module.self_s", "s"), ("groupcoh.shapiro_check.calls", "count"),
    ("repv.self_s", "s"), ("repv.hom_enumerate.calls", "count"),
    ("repv.hom_enumerate.homs", "count"), ("repv.rep_classes.calls", "count"),
    ("repv.rep_classes.self_s", "s"), ("repv.rep_classes.repeat_frac", "frac"),
    ("repv.weyl_image.self_s", "s"),
    ("lq.self_s", "s"), ("lq.lq_check.calls", "count"), ("lq.lq_check.self_s", "s"),
    ("lq.strata_split.self_s", "s"), ("lq.symonds_module.max_dim", "count"),
    ("sep.self_s", "s"), ("sep.sp_functor_check.calls", "count"),
    ("sep.sp_functor_check.self_s", "s"), ("sep.fullness_check.calls", "count"),
    ("sep.fullness_check.self_s", "s"),
    ("finring.self_s", "s"), ("finring.calls", "count"), ("snf.self_s", "s"),
    ("snf.smith_normal_form.calls", "count"), ("etale.self_s", "s"),
    ("etale.adjunction_check.calls", "count"), ("etale.adjunction_check.self_s", "s"),
    ("tower.self_s", "s"), ("tower.decomposition_check.calls", "count"),
    ("catalog.all_groups.self_s", "s"),
    ("proc.cpu_s", "s"), ("trace.overhead_frac", "frac"),
]


def _table_key(group):
    return group.table.tobytes()


class Tracer:
    def __init__(self):
        self.spans = bytearray()          # packed SPANs, in closing order
        self.names: list[str] = []        # span name ids -> names
        self.name_ids: dict[str, int] = {}
        self.stack = [(0, "bench", "")]   # open spans: (id, layer, name)
        self.calls: dict[str, int] = defaultdict(int)
        self.counted: dict[str, list] = {}  # count-only names -> [calls]
        self.seen: dict[str, set] = defaultdict(set)
        self.repeats: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(int)
        self.resolutions: dict = {}
        self._next_id = 1

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    # -- hooks: counts measured where the work happens ------------------------

    def _repeat(self, name, key):
        if key in self.seen[name]:
            self.repeats[name] += 1
        else:
            self.seen[name].add(key)

    def _hook(self, name, args, kwargs, result):
        if name == "groups.all_subgroups":
            self._repeat(name, _table_key(args[0]))
        elif name == "groupcoh.free_resolution":
            key = (_table_key(args[0]), args[1])
            self._repeat(name, key)
            self.resolutions[key] = result
        elif name == "repv.rep_classes":
            self._repeat(name, (_table_key(args[1]), args[0].p, args[0].r))
        elif name == "repv.hom_enumerate":
            self.extra["repv.hom_enumerate.homs"] += len(result)
        elif name == "lq.symonds_module":
            key = "lq.symonds_module.max_dim"
            self.extra[key] = max(self.extra[key], result.dim)
        elif name.startswith("linalg.rank.p"):
            shape = np.shape(args[0])
            rows, cols = shape[0], int(np.prod(shape[1:]))
            cells = rows * cols
            self.extra[f"{name}.cells"] += cells
            key = f"{name}.max_cells"
            self.extra[key] = max(self.extra[key], cells)
            self.extra["linalg.rank.ops"] += cells * min(rows, cols)

    # -- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, fn, name, layer):
        spans, stack, calls, pack = self.spans, self.stack, self.calls, SPAN.pack
        boundary = layer in BOUNDARY_ONLY
        is_rank = name == "linalg.rank"
        hooked = is_rank or name in HOOKED
        tracer = self
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            caller = stack[-1][1]
            if caller in OPAQUE or (boundary and caller == layer):
                return fn(*args, **kwargs)
            span_name, span_nid = name, nid
            if is_rank:
                span_name = f"linalg.rank.p{args[1] if len(args) > 1 else kwargs['p']}"
                span_nid = tracer.name_id(span_name)
            calls[span_name] += 1
            nested = 0
            if caller == layer:
                for _, frame_layer, frame_name in reversed(stack):
                    if frame_layer != layer:
                        break
                    if frame_name == span_name:
                        nested = 1
                        break
            sid = tracer._next_id
            tracer._next_id += 1
            stack.append((sid, layer, span_name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.extend(pack(sid, stack[-1][0], span_nid, nested, t0, t1))
            if hooked:
                tracer._hook(span_name, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        cell = self.counted.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _wrap(self, fn, name, layer):
        if name in COUNT_ONLY:
            return self._count_wrapper(fn, ALIASES[name])
        return self._span_wrapper(fn, ALIASES.get(name, name), layer)

    def install(self):
        """Wrap every layer's public functions and methods, then rebind imports."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"proflq.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replaced[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
                    setattr(mod, attr, replaced[obj])
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    for mname, method in list(vars(obj).items()):
                        if isinstance(method, types.FunctionType) and \
                                (mname == "__init__" or not mname.startswith("_")):
                            setattr(obj, mname,
                                    self._wrap(method, f"{layer}.{attr}.{mname}", layer))
        for name, mod in list(sys.modules.items()):
            if not name.startswith("proflq") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer self times, per-function times and counts."""
        layer_of = [name.split(".", 1)[0] for name in self.names]
        layer_self: dict[str, float] = defaultdict(float)
        fn_self: dict[str, float] = defaultdict(float)
        # Children close before their parent, so the entries for a span are
        # complete when it comes up, and both dicts stay as small as the stack.
        child_time: dict[int, float] = defaultdict(float)
        below: dict[tuple, float] = defaultdict(float)  # (span, layer) -> time
        for sid, parent, nid, nested, t0, t1 in SPAN.iter_unpack(self.spans):
            layer = layer_of[nid]
            dur = t1 - t0
            own = dur - child_time.pop(sid, 0.0)
            layer_self[layer] += own
            fn_time = own + below.pop((sid, layer), 0.0)
            if not nested:
                fn_self[self.names[nid]] += fn_time
            child_time[parent] += dur
            below[(parent, layer)] += fn_time
        out = {f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS}
        for name, t in fn_self.items():
            out[f"{name}.self_s"] = t
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for name, cell in self.counted.items():
            out[f"{name}.calls"] = cell[0]
        out["finring.calls"] = sum(n for k, n in self.calls.items()
                                   if k.startswith("finring."))
        for name in ("groups.all_subgroups", "groupcoh.free_resolution",
                     "repv.rep_classes"):
            calls = self.calls.get(name, 0)
            out[f"{name}.repeat_frac"] = self.repeats[name] / calls if calls else 0.0
        out["groupcoh.free_resolution.betti_sum"] = sum(
            sum(res.betti) for res in self.resolutions.values())
        out.update(self.extra)
        return out

    def write(self, path):
        """Save the names and the spans, as a structured array indexing the names."""
        rows = np.frombuffer(self.spans, dtype=np.dtype(
            [("id", "<i8"), ("parent", "<i8"), ("name", "<i4"), ("nested", "<i4"),
             ("start", "<f8"), ("end", "<f8")]))
        np.savez_compressed(path, names=np.array(self.names), spans=rows)
