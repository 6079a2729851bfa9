"""Exception types, and the kind checks of user JSON documents."""


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


_JSON_KINDS = {bool: "boolean", int: "integer", str: "string"}


def json_kind(value, kind: type, what: str):
    """value when its type is exactly `kind` (bool, int or str), so that no
    boolean, float or string passes for an integer; else a TypeError."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")
    return value


def check_schema(obj: dict, what: str) -> None:
    """Raise DomainError unless the document's schema is the integer 1."""
    if type(obj.get("schema")) is not int or obj["schema"] != 1:
        raise DomainError(f"unsupported {what} schema")
