"""Exception hierarchy for cylwig.

Plain precondition violations (bad arguments, incompatible objects) raise
``ValueError``; the classes below mark numerical/limit failures that a caller
may want to handle differently (the CLI maps them to exit code 3).
"""

MEMORY_BUDGET = 2 * 2**30  # bytes one request may ask for


class CylwigError(Exception):
    """Base class for numerical/limit failures."""


class TruncationError(CylwigError):
    """A finite OAM window cannot hold the requested state at tolerance."""

    def __init__(self, message, required_window=None):
        super().__init__(message)
        self.required_window = required_window


class BandLimitError(CylwigError):
    """An angle grid is too coarse for the band limit of the data."""


class ReconstructionError(CylwigError):
    """The stored grid does not resolve the density-matrix recovery."""


class RealnessError(CylwigError):
    """A grid that must be real carries a too-large imaginary part."""


class MemoryBudgetError(CylwigError):
    """A request would allocate more than the fixed memory budget."""


def _check_budget(what: str, n_floats: int) -> None:
    """Refuse a request whose largest arrays together hold more than
    MEMORY_BUDGET bytes, before any of them is allocated."""
    need = 8 * n_floats
    if need > MEMORY_BUDGET:
        raise MemoryBudgetError(
            f"{what} needs about {need / 2**30:.3g} GiB, over the "
            f"{MEMORY_BUDGET / 2**30:.0f} GiB memory budget"
        )
