"""Rules the library source keeps, checked on its syntax tree.

* No `assert` statement: `python -O` strips them, so an invariant must be
  checked with `errors.require` instead.
* No use of the name `AssertionError`: invariant failures are
  `errors.InvariantError`.
* One class each named `BudgetError` and `InvariantError`, in `errors`;
  every other module imports them.
* No module-level name bound to an empty `{}` or `dict()` outside
  `cache`: a memo table is a region of `proflq.cache`, where it is
  counted and cleared with the others.
* Every region in `cache.REGIONS` is read by some `cache.lookup` in the
  library, and every `lookup` and `store` call names a region of
  `REGIONS` by a string literal: no region is dead and none misspelled.
  The `cache` docstring names every region, in backquotes.
* Every top-level function and class, and every method, is reachable by
  name from `cli.main`: the library is exactly the code the `proflq`
  command runs, and what only the tests use lives in `tests/reference.py`.
* No module, of the library or of its tests, keeps a module-level import
  it never uses.
* Only `groupcoh` knows how a module is stored: no other library module
  reads an attribute `.action` (other than the `tower` command's
  positional argument, `args.action` in `cli`) or calls `GModule(`.
* A group is built in one place: `FiniteGroup(` is called only by
  `groups._table_group`, which every constructor goes through, and by
  `jsonio.load_group`, which reads a table as given.
* No library module reads a private `_name` of another library module,
  neither as `m._name` nor by `from .m import _name`.
* Only `groups` serializes a group table: no other library module calls
  `.tobytes()` on an expression that reads a `.table` attribute; a cache
  key reads `group.key`, the bytes taken once when the group is built.
* Only `groups` builds an array from conjugation columns: no other
  library module calls `np.asarray(...)` or `np.array(...)` on an
  expression that reads a `.conj_cols` attribute; the conjugation table
  is `group.conj`, built once when the group is, and `repv` gathers from
  it.
* Only `repv` enumerates hom(V, G): no other library module names
  `hom_enumerate`, so every other reads the homs, the classes and the
  action from the one checked Rep(V, G) record that `repv` keeps.
* Only `finring` imports `snf`: the Smith form sits behind the module
  layer, and map matrices are multiplied in `finring.sum_of_composites`
  alone.
* No public function or method (one whose name has no leading `_`, or a
  dunder such as `__init__`) has a parameter whose name starts with `_`:
  a knob that only the library passes itself is a second path.
* Only `groups` reads a private attribute of a `FiniteGroup` (`_rows`,
  `_inv`, `_classes`, ..., every `self._x` it sets and every `_x` method):
  no other library module reads one, as `obj._x` on anything but `self`
  or through `getattr`, so every other reads the public fields.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import proflq
from proflq import cache, errors, groupcoh, lq, repv, tower

SOURCES = sorted(Path(proflq.__file__).parent.glob("*.py"))
TEST_SOURCES = sorted(Path(__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_and_no_assertion_error(path):
    tree = _tree(path)
    asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    names = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Name) and n.id == "AssertionError"
             or isinstance(n, ast.Attribute) and n.attr == "AssertionError"]
    assert (asserts, names) == ([], [])


def test_one_class_per_error():
    classes = Counter((path.name, node.name) for path in SOURCES
                      for node in ast.walk(_tree(path))
                      if isinstance(node, ast.ClassDef)
                      and node.name in ("BudgetError", "InvariantError"))
    assert classes == Counter({("errors.py", "BudgetError"): 1,
                               ("errors.py", "InvariantError"): 1})
    assert groupcoh.BudgetError is repv.BudgetError is tower.BudgetError \
        is errors.BudgetError
    assert lq.LqError is errors.InvariantError


def _is_empty_dict(node):
    return isinstance(node, ast.Dict) and not node.keys or \
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "dict" and not node.args and not node.keywords


def _module_level_empty_dicts(tree):
    """Names bound to an empty dict by module-level statements, with lines."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                and _is_empty_dict(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(ast.unparse(t), node.lineno) for t in targets]
        for field in ("body", "orelse", "finalbody", "handlers"):
            todo += getattr(node, field, [])
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_level_memo_dict_outside_cache(path):
    if path.name != "cache.py":
        assert _module_level_empty_dicts(_tree(path)) == []


def test_memo_dict_rule_sees_every_binding_form():
    source = """
a = {}
b: dict[str, int] = dict()
if True:
    c = d = {}
try:
    e = {}
except ImportError:
    f = dict()
kept = {1: 2}
also_kept = dict(x=1)
def g():
    local = {}
class C:
    attribute = {}
"""
    assert [name for name, _ in _module_level_empty_dicts(ast.parse(source))] \
        == ["a", "b", "c", "d", "e", "f"]


# -- every cache region is read, and every call names one --------------------------


def _region_uses(tree):
    """(call, region, line) for each call of `cache.lookup` or `cache.store`,
    or of either name imported from `cache`; region is None unless the
    region argument is a string literal."""
    calls = ("lookup", "store")
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "cache"
                for alias in node.names if alias.name in calls}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in calls \
                and isinstance(func.value, ast.Name) and func.value.id == "cache":
            call = func.attr
        elif isinstance(func, ast.Name) and func.id in imported:
            call = imported[func.id]
        else:
            continue
        arg = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "region"), None)
        region = arg.value if isinstance(arg, ast.Constant) \
            and isinstance(arg.value, str) else None
        found.append((call, region, node.lineno))
    return sorted(found, key=lambda use: use[2])


def _undocumented_regions(doc, regions):
    """The regions that a docstring does not name in backquotes."""
    return [region for region in regions if f"`{region}`" not in doc]


def test_every_cache_region_is_read_and_every_call_names_one():
    uses = [(path.name, *use) for path in SOURCES if path.name != "cache.py"
            for use in _region_uses(_tree(path))]
    assert [use for use in uses if use[2] not in cache.REGIONS] == []
    read = {region for _, call, region, _ in uses if call == "lookup"}
    assert sorted(set(cache.REGIONS) - read) == []
    assert _undocumented_regions(cache.__doc__, cache.REGIONS) == []


def test_region_docstring_rule_sees_an_undocumented_region():
    # a region named only as part of a longer name, or without backquotes,
    # is undocumented
    regions = cache.REGIONS + ("groupcoh.resolution", "groupcoh.lifts")
    assert _undocumented_regions(cache.__doc__ + "groupcoh.lifts", regions) \
        == ["groupcoh.resolution", "groupcoh.lifts"]


def test_region_rule_sees_every_call_form():
    source = """
from . import cache
from .cache import lookup as find, store
def f(key, name, other):
    a = cache.lookup("finring.direct_sum", key)
    b = find("lq.sub_dim", key)
    store(name, key, a)
    cache.store(region="repv.rep_classes", key=key, value=b)
    return other.lookup("not.a.cache.call", key)
"""
    assert _region_uses(ast.parse(source)) == [
        ("lookup", "finring.direct_sum", 5), ("lookup", "lq.sub_dim", 6),
        ("store", None, 7), ("store", "repv.rep_classes", 8)]


# -- reachability from the command line ------------------------------------------

# Reached from no command, on purpose:
ALLOWED_UNREACHED = {
    "cache.clear",           # test isolation (tests/conftest.py)
    "cache.stats",           # the hit and miss counts, for a coming --stats
    "finring.direct_sum",    # every map of a sum at once, for bench/workloads.py;
                             # the library reads maps through lazy_direct_sum
}


def _references(node):
    """Bare names and attribute names used in a node, outside annotations."""
    names, attrs = set(), set()
    todo = [node]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                todo += [v for v in (value if isinstance(value, list) else [value])
                         if isinstance(v, ast.AST)]
    return names, attrs


def _unreached(sources):
    """Definitions of `sources` ({module: text}) that `cli.main` never reaches.

    A bare name reaches every top-level function and class so named; an
    attribute `.x` reaches those and every method x.  Names are matched
    across modules, so a collision can hide a dead definition, but a
    method is never reached by a bare name.  A reached class brings its
    bases, decorators, class-level statements and dunder methods; module
    statements other than imports run at import and count as reached.
    """
    tops, methods, todo = {}, {}, []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                tops.setdefault(node.name, []).append((f"{module}.{node.name}", node))
                for m in node.body if isinstance(node, ast.ClassDef) else []:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("__"):
                        methods.setdefault(m.name, []).append(
                            (f"{module}.{node.name}.{m.name}", m))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo.append(node)
    reached = {"cli.main"}
    todo += [node for qual, node in tops["main"] if qual == "cli.main"]
    while todo:
        node = todo.pop()
        parts = [node]
        if isinstance(node, ast.ClassDef):
            parts = node.bases + node.decorator_list + [
                b for b in node.body
                if not isinstance(b, ast.FunctionDef) or b.name.startswith("__")]
        for part in parts:
            names, attrs = _references(part)
            for qual, definition in (
                    [d for n in names | attrs for d in tops.get(n, [])]
                    + [d for a in attrs for d in methods.get(a, [])]):
                if qual not in reached:
                    reached.add(qual)
                    todo.append(definition)
    defined = {qual for defs in [*tops.values(), *methods.values()]
               for qual, _ in defs}
    return sorted(defined - reached)


def test_every_definition_is_reached_from_the_command_line():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert _unreached(sources) == sorted(ALLOWED_UNREACHED)


def test_reachability_rule_flags_what_no_command_runs():
    cli = """
from .lib import Used, helper
def main():
    helper(Used().run)
"""
    lib = """
class Used:
    def __init__(self):
        self._setup()
    def _setup(self):
        pass
    def run(self):
        pass
    def act(self):
        pass
def helper(f):
    def act(x):
        return x
    return act(f)
def only_in_tests():
    pass
"""
    # the call of the local `act` in helper reaches no method
    assert _unreached({"cli": cli, "lib": lib}) == [
        "lib.Used.act", "lib.only_in_tests"]


# -- unused imports ------------------------------------------------------------


def _unused_imports(tree):
    """Names bound by module-level imports that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize("path", SOURCES + TEST_SOURCES,
                         ids=[p.name for p in SOURCES]
                         + [f"tests/{p.name}" for p in TEST_SOURCES])
def test_no_unused_import(path):
    assert _unused_imports(_tree(path)) == []


def test_unused_import_rule_sees_every_import_form():
    source = """
from __future__ import annotations
import os
import numpy as np
import os.path
from .finring import dual_map, kernel as ker
from . import snf
def f(x: np.ndarray):
    return ker(x) + snf.zeros(1, 1)
"""
    assert _unused_imports(ast.parse(source)) == ["dual_map", "os"]


# -- the module format stays in groupcoh -----------------------------------------


def _module_format_uses(tree):
    """Lines that read `.action` (not `args.action`) or call `GModule`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "action" \
                and ast.unparse(node) != "args.action":
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and "GModule" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_format_only_in_groupcoh(path):
    if path.name != "groupcoh.py":
        assert _module_format_uses(_tree(path)) == []


def test_module_format_rule_sees_reads_and_calls():
    source = """
from . import groupcoh as gc
from .groupcoh import GModule
def f(args, m, g):
    x = m.action[g]
    y = gc.GModule(g, 2, x)
    z = GModule(g, 2, x)
    if args.action == "dual":
        return getattr(m, "dim"), m.dim, x, y, z
"""
    assert _module_format_uses(ast.parse(source)) == [5, 6, 7]


# -- one group builder -------------------------------------------------------------

GROUP_BUILDERS = ["groups._table_group", "jsonio.load_group"]


def _finite_group_callers(module, tree):
    """The definition (`module.f`, `module.C.m`, ...) around each call of
    `FiniteGroup`, or `module` for a call at module level."""
    found, todo = [], [(tree, module)]
    while todo:
        node, owner = todo.pop()
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}"
            elif isinstance(child, ast.Call) and "FiniteGroup" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(owner)
            todo.append((child, inner))
    return sorted(found)


def test_finite_group_is_built_only_by_the_builders():
    callers = [c for path in SOURCES
               for c in _finite_group_callers(path.stem, _tree(path))]
    assert sorted(set(callers)) == GROUP_BUILDERS


def test_group_builder_rule_sees_every_call_site():
    source = """
from . import groups
from .groups import FiniteGroup
ONE = FiniteGroup([[0]])
def _table_group(elements, mul, name):
    return FiniteGroup([[0]], name=name)
def cyclic(n):
    def inner():
        return groups.FiniteGroup([[0]])
    return inner()
class Q:
    def build(self):
        return FiniteGroup([[0]])
def named(g):
    return "FiniteGroup(" + g.name
"""
    assert _finite_group_callers("groups", ast.parse(source)) == [
        "groups", "groups.Q.build", "groups._table_group", "groups.cyclic.inner"]


# -- private names stay in their module ----------------------------------------------


def _package_import(node):
    """Whether an `ImportFrom` node imports from the library package."""
    return node.level > 0 or (node.module or "").split(".")[0] == "proflq"


def _private_reads(tree):
    """(line, name) for each read of a private name of another library
    module: `m._x` with `m` bound by `from . import m` (or `from proflq
    import m`, either with `as`), and `from .m import _x`."""
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and _package_import(node)]
    modules = {alias.asname or alias.name for node in imports
               if node.module in (None, "proflq") for alias in node.names}
    found = [(node.lineno, alias.name) for node in imports
             if node.module not in (None, "proflq") for alias in node.names
             if alias.name.startswith("_")]
    found += [(node.lineno, f"{node.value.id}.{node.attr}")
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.startswith("__")
              and isinstance(node.value, ast.Name) and node.value.id in modules]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_name_of_another_module(path):
    assert _private_reads(_tree(path)) == []


def test_private_name_rule_sees_every_read():
    source = """
from . import groupcoh as gc, repv
from .groups import FiniteGroup, _table_group
from proflq import lq
from numpy import _private_but_not_ours
def f(group, hom):
    logs = repv._discrete_log_table(group, hom, 2)
    rows = group._rows
    def inner():
        from .linalg import _pack as pack
        return gc._chain_map, lq._total(()), pack, repv.__name__
    return logs, rows, inner, repv.weyl_image, FiniteGroup._validate
"""
    assert _private_reads(ast.parse(source)) == [
        (3, "_table_group"), (7, "repv._discrete_log_table"), (10, "_pack"),
        (11, "gc._chain_map"), (11, "lq._total")]


# -- a group table is serialized once, in groups -----------------------------------


def _table_bytes_calls(tree):
    """Lines that call `.tobytes()` on an expression reading `.table`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "tobytes"
                  and any(isinstance(n, ast.Attribute) and n.attr == "table"
                          for n in ast.walk(node.func.value)))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_group_table_bytes_only_in_groups(path):
    if path.name != "groups.py":
        assert _table_bytes_calls(_tree(path)) == []


def test_table_bytes_rule_sees_every_call():
    source = """
import numpy as np
def f(g, res, packed):
    a = g.table.tobytes()
    b = (res.group.table
         .tobytes())
    c = np.asarray(g.table, dtype=np.int64).tobytes()
    return a, b, c, packed.tobytes(), g.key, g.table.tolist(), g.tobytes()
"""
    assert _table_bytes_calls(ast.parse(source)) == [4, 5, 7]


# -- the conjugation table is built once, in groups ---------------------------------


def _conj_col_arrays(tree):
    """Lines that call `np.asarray` or `np.array` (by any module name, or
    the bare names) on an expression reading `.conj_cols`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Attribute)
                       and node.func.attr in ("asarray", "array")
                       or isinstance(node.func, ast.Name)
                       and node.func.id in ("asarray", "array"))
                  and any(isinstance(n, ast.Attribute) and n.attr == "conj_cols"
                          for arg in [*node.args, *(k.value for k in node.keywords)]
                          for n in ast.walk(arg)))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_conjugation_array_only_in_groups(path):
    tree = _tree(path)
    if path.name != "groups.py":
        assert _conj_col_arrays(tree) == []
    if path.name == "repv.py":  # hom(V, G) is conjugated by a gather from `conj`
        assert any(isinstance(n, ast.Attribute) and n.attr == "conj"
                   for n in ast.walk(tree))


def test_conjugation_array_rule_sees_every_call():
    source = """
import numpy as np
from numpy import asarray
def f(g, res, cols):
    a = np.asarray(g.conj_cols)
    b = np.array(res.group
                 .conj_cols[1:], dtype=np.int64)
    c = asarray(object=g.conj_cols)
    d = np.array([col[0] for col in g.conj_cols])
    return a, b, c, d, np.asarray(cols), np.asarray(g.conj), list(g.conj_cols)
"""
    assert _conj_col_arrays(ast.parse(source)) == [5, 6, 8, 9]


# -- hom(V, G) is enumerated in repv alone -------------------------------------------


def _hom_enumerate_uses(tree):
    """Lines that name `hom_enumerate`: a call, a read or an import."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "hom_enumerate"
                  or isinstance(node, ast.Attribute) and node.attr == "hom_enumerate"
                  or isinstance(node, ast.ImportFrom)
                  and any(a.name == "hom_enumerate" for a in node.names))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_homs_enumerated_only_in_repv(path):
    if path.name != "repv.py":
        assert _hom_enumerate_uses(_tree(path)) == []


def test_hom_enumerate_rule_sees_every_use():
    source = """
from . import repv
from .repv import ElementaryAbelian, hom_enumerate as homs
def f(v, g):
    a = repv.hom_enumerate(v, g)
    enumerate_ = repv.hom_enumerate
    return a, enumerate_(v, g), homs, repv.rep_classes(v, g), "hom_enumerate"
"""
    assert _hom_enumerate_uses(ast.parse(source)) == [3, 5, 6]


# -- the Smith form sits behind finring ----------------------------------------------


def _snf_imports(tree):
    """Lines that import `snf`, as a module or a name from it, by any form."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_import(node):
            module = (node.module or "").split(".")
            if module[-1] == "snf" or any(a.name == "snf" for a in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name == "proflq.snf" for a in node.names):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_finring_imports_snf(path):
    if path.name != "finring.py":
        assert _snf_imports(_tree(path)) == []


def test_snf_import_rule_sees_every_import_form():
    source = """
from . import cache, snf
from .snf import smith_normal_form as smith
import proflq.snf
from proflq import snf as s
from proflq.snf import zeros
def f(x):
    from . import snf
    return snf.zeros(1, 1), smith, s, zeros, x.snf
from .finring import snf_like
from numpy import snf as not_ours
import snf
"""
    assert _snf_imports(ast.parse(source)) == [2, 3, 4, 5, 6, 8]


# -- no private parameter on a public function ---------------------------------------


def _private_parameters(tree):
    """(definition, parameter) for each parameter named `_x` of a public
    function or method: one at module level or in a module-level class,
    whose name has no leading `_` or is a dunder."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []
    for node in tree.body:
        if isinstance(node, functions):
            defs.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m) for m in node.body
                     if isinstance(m, functions)]
    found = []
    for qual, f in defs:
        name = f.name
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            continue
        a = f.args
        found += [(qual, arg.arg)
                  for arg in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
                  if arg is not None and arg.arg.startswith("_")]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_parameter_of_a_public_function(path):
    assert _private_parameters(_tree(path)) == []


def test_private_parameter_rule_sees_every_parameter_kind():
    source = """
def build(a, _b, *_rest, c=1, _d=None, **_extra):
    def inner(_local):
        return _local
    return inner
def _helper(_x):
    return _x
async def fetch(_url):
    return _url
class Tower:
    def __init__(self, _secs=None):
        self._secs = _secs
    def product(self, /, _pos, *, kind):
        return kind
    def _glue(self, _k):
        return _k
class _Body:
    def levels(self, _k):
        return _k
"""
    assert _private_parameters(ast.parse(source)) == [
        ("build", "_b"), ("build", "_rest"), ("build", "_d"), ("build", "_extra"),
        ("fetch", "_url"), ("Tower.__init__", "_secs"), ("Tower.product", "_pos"),
        ("_Body.levels", "_k")]


# -- the private attributes of a FiniteGroup stay in groups ---------------------------


def _finite_group_privates():
    """The private attributes of `FiniteGroup`: each `self._x` its methods
    set and each method `_x`, dunders aside."""
    tree = _tree(Path(proflq.__file__).parent / "groups.py")
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "FiniteGroup")
    names = {node.name for node in cls.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    names |= {target.attr for node in ast.walk(cls) if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Attribute)
              and isinstance(target.value, ast.Name) and target.value.id == "self"}
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _finite_group_private_reads(tree, privates):
    """(line, name) for each read of a name in `privates` other than on
    `self`: `obj._x`, and `getattr(obj, "_x")` or `setattr` with a literal."""
    found = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in privates
             and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    found += [(node.lineno, node.args[1].value) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr", "hasattr")
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in privates]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_attribute_of_a_finite_group_outside_groups(path):
    if path.name != "groups.py":
        assert _finite_group_private_reads(_tree(path), _finite_group_privates()) == []


def test_finite_group_private_rule_sees_every_read():
    privates = _finite_group_privates()
    assert {"_rows", "_inv", "_classes", "_generators", "_validate",
            "_conjugate"} <= privates
    source = """
def f(group, res, space):
    rows = group._rows
    inverse = res.group._inv[3]
    classes = getattr(group, "_classes", None)
    group._validate()
    return rows, inverse, classes, group.conj_cols, space._lead, group.__class__
class Space:
    def __init__(self, rows):
        self._rows = rows
    def dim(self):
        return len(self._rows), getattr(self, "rows")
"""
    assert _finite_group_private_reads(ast.parse(source), privates) == [
        (3, "_rows"), (4, "_inv"), (5, "_classes"), (6, "_validate")]
