"""Exception types and warning categories shared across the library."""


class BVContactError(Exception):
    """Base class for all library errors."""


class UnboundedBelow(BVContactError):
    """The inf-convolution inf_q tau(x,q) + sigma|p-q| has no finite value.

    Raised when a descent direction is still active at the search boundary,
    or when a closed form shows the slope of tau exceeds sigma at infinity.
    """


class DegenerateMargin(BVContactError):
    """sigma - sup L is too small to bound the inner minimization radius."""


class LayerTooThin(BVContactError):
    """Grid spacing h is too coarse for the domain or the boundary-layer width."""


class MaskMismatch(BVContactError):
    """Two grid fields do not share the same lattice or mask."""


class SchemaError(BVContactError):
    """A scenario or domain file violates the documented schema."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class ParseError(BVContactError):
    """Density expression rejected by the grammar; carries a byte offset."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


class NonconvexBoundaryTerm(UserWarning):
    """Sampled contact term is nonconvex; solver certificate downgraded."""
