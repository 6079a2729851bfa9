"""Exception types shared across the package."""


class Selmer3Error(Exception):
    pass


class DomainError(Selmer3Error, ValueError):
    """Input outside the mathematical domain of an operation (zero twist
    parameter, residue characteristic 3 where excluded, bad reduction where
    good is required, and so on)."""


class NonIntegralClassError(DomainError):
    """An integral representative was requested for a class that has none."""


class IncompleteConfigError(Selmer3Error, KeyError):
    """A descriptor or place profile is missing data that the requested
    computation needs (e.g. a 3-adic override, or a kappa-order entry for a
    stratum of nonzero measure)."""

    def __str__(self) -> str:  # KeyError quotes its message otherwise
        return self.args[0] if self.args else ""


class BudgetError(Selmer3Error, RuntimeError):
    """A bounded search ran out of budget: an oracle's lattice search or
    the rho iterations of a factorization.  No partial result is
    returned."""


class PrecisionError(Selmer3Error, RuntimeError):
    """A p-adic search hit its depth cap without resolving; raising instead
    of guessing keeps every reported answer exact."""
