"""Exception types shared across the package, and the work budget they enforce."""

import os

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "BLOCKERLAB_BUDGET"


class BlockerlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidEdgeError(BlockerlabError):
    """An edge set refers to a pair that is not an edge of the host graph."""


class InvalidVertexError(BlockerlabError):
    """A vertex set refers to an index outside the host graph."""


class GraphFormatError(BlockerlabError):
    """A text instance file could not be parsed."""


class NotACographError(BlockerlabError):
    """Raised when a cotree is requested for a graph with an induced P4.

    The offending four vertices are stored in ``witness``.
    """

    def __init__(self, witness):
        super().__init__(f"graph is not a cograph, induced P4 on {sorted(witness)}")
        self.witness = tuple(witness)


class CertificateError(BlockerlabError):
    """A class certificate does not validate against its graph."""


class CriticalityError(BlockerlabError):
    """A set handed to a solution-transfer routine is not criticality-certified."""


class GadgetPreconditionError(BlockerlabError):
    """An instance violates a gadget builder's precondition."""


class CapacityExceededError(BlockerlabError):
    """An exhaustive routine would exceed its configured work budget.

    This is a first-class outcome: oracles refuse rather than degrade silently.
    """

    def __init__(self, message: str, needed: int, budget: int):
        super().__init__(message)
        self.needed = needed
        self.budget = budget


def configured_budget(budget: int | None = None) -> int:
    """The work budget: ``budget`` if given, else ``$BLOCKERLAB_BUDGET``, else the default.

    A variable that is not a non-negative integer is a ``ValueError`` naming it.
    """
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a non-negative integer, got {env!r}")
    return value


def check_capacity(needed: int, unit: str, budget: int | None = None) -> None:
    """The one refusal path: raise unless ``needed`` units fit the budget.

    ``budget`` is resolved through :func:`configured_budget`; a fixed ceiling
    passed here never reads the environment.
    """
    budget = configured_budget(budget)
    if needed > budget:
        raise CapacityExceededError(
            f"{needed} {unit} exceed the budget of {budget}", needed=needed, budget=budget
        )
