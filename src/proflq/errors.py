"""The two errors of the library: a refused budget (CLI exit code 2) and
a violated invariant, a bug by definition (exit code 3).  `require`
checks an invariant and, unlike `assert`, still runs under `python -O`.
"""


class BudgetError(Exception):
    """An enumeration or a cochain space would exceed its size budget."""


class InvariantError(Exception):
    """An internal invariant failed; `dump` holds the evidence, if any."""

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump


def require(cond, message, dump=None) -> None:
    if not cond:
        raise InvariantError(message, dump)
