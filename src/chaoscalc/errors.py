"""Domain-specific exceptions.

Plain ``ValueError`` is used for invalid arguments (bad grids, index range
violations, order mismatches).  The classes below mark the runtime gates of
the integral pipelines and the limits of the kernel representations, so
callers can tell a modelling failure apart from a programming error.
"""


class IntegrabilityError(RuntimeError):
    """An integrability diagnostic came out non-finite.

    ``assumption`` names the failing condition, e.g. ``"A(3)"`` or ``"D(10)"``.
    """

    def __init__(self, assumption: str, detail: str = ""):
        self.assumption = assumption
        msg = f"integrability gate failed: {assumption}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class IndependenceError(RuntimeError):
    """Strong-independence gate rejected a pair of operands.

    ``cell`` is the first time cell where kernel supports overlap.
    """

    def __init__(self, cell: int, detail: str = ""):
        self.cell = cell
        msg = f"strong independence violated at cell {cell}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class TruncationOverflowError(RuntimeError):
    """A product or integral would exceed the configured chaos-order cap."""

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"output chaos order {needed} exceeds configured cap {cap}"
        )


class RepresentationLimitError(RuntimeError):
    """A structured kernel is too large to convert to sparse tuples; the
    command line exits 4 on it, as on an overflow."""


class StabilityLawError(RuntimeError):
    """The perturbation residual of ``stability_suite`` broke the exact
    ``1/n`` law at step ``n``: ``residual`` against ``expected``."""

    def __init__(self, n: int, residual: float, expected: float):
        self.n = n
        self.residual = residual
        self.expected = expected
        super().__init__(f"stability law violated at n={n}: residual {residual}, expected {expected}")
