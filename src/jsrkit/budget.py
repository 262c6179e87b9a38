"""The multiplication budget and the run's fault classes.

Every product-forming routine charges its matrix multiplications to one
:class:`BudgetCounter`; :mod:`jsrkit.bounds` re-exports these names.
This module imports no numpy, so the command-line front end can name
them in a run that never forms a product.
"""

import numbers
import os

__all__ = [
    "DEFAULT_BUDGET",
    "BUDGET_ENV",
    "BudgetExceededError",
    "BudgetCounter",
    "InternalInvariantError",
]

DEFAULT_BUDGET = 20_000_000
BUDGET_ENV = "JSRKIT_BUDGET"


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured multiplication budget;
    raised by :meth:`BudgetCounter.check` only."""

    def __init__(self, needed, limit, detail):
        self.needed = needed
        self.limit = limit
        message = (
            "enumeration needs %d matrix multiplications, budget is %d "
            "(set %s to raise it)" % (needed, limit, BUDGET_ENV)
        )
        if detail:
            message += "; " + detail
        super().__init__(message)


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed; results are not trustworthy."""


class BudgetCounter:
    """Counts matrix multiplications against a hard cap.

    The default cap is ``DEFAULT_BUDGET`` unless the ``JSRKIT_BUDGET``
    environment variable overrides it.  A cap that is not a non-negative
    integer (a ``numbers.Integral``, which numpy's integers are), given or
    read from the variable, raises ``ValueError``.  :meth:`check` is the
    one budget test: it raises the run's :class:`BudgetExceededError`,
    whose ``needed`` counts what the counter has already spent.
    :attr:`remaining` is the one reading of what is left of the cap.
    """

    def __init__(self, limit=None):
        if limit is None:
            env = os.environ.get(BUDGET_ENV, "")
            if env and not env.strip().isdecimal():
                raise ValueError("%s must be a non-negative integer, got %r" % (BUDGET_ENV, env))
            limit = int(env) if env else DEFAULT_BUDGET
        if not isinstance(limit, numbers.Integral) or limit < 0:
            raise ValueError("the budget must be a non-negative integer, got %r" % (limit,))
        self.limit = int(limit)
        self.used = 0

    @property
    def remaining(self):
        """The multiplications left before the cap: ``limit - used``."""
        return self.limit - self.used

    def check(self, count, detail=""):
        """Raise unless ``count`` more multiplications fit the cap."""
        if self.used + count > self.limit:
            raise BudgetExceededError(self.used + count, self.limit, detail)

    def charge(self, count):
        self.check(count)
        self.used += count


def _counter(budget):
    """``budget`` if it is a :class:`BudgetCounter`, else a new counter
    with ``budget`` as its limit (None for the default)."""
    return budget if isinstance(budget, BudgetCounter) else BudgetCounter(budget)
