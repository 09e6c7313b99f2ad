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
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import proflq
from proflq import errors, groupcoh, lq, repv, tower

SOURCES = sorted(Path(proflq.__file__).parent.glob("*.py"))


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
