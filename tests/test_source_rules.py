"""Rules the library source keeps, checked on its syntax tree.

* No `assert` statement: `python -O` strips them, so an invariant must be
  checked with `errors.require` instead.
* No use of the name `AssertionError`: invariant failures are
  `errors.InvariantError`.
* One class each named `BudgetError` and `InvariantError`, in `errors`;
  every other module imports them.
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
