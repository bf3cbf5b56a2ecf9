"""Exception hierarchy shared by all capax modules."""


class CapaxError(Exception):
    """Base class for all errors raised by this package."""


# --- construction / validation ---------------------------------------------


class GroundMismatch(CapaxError):
    """Two values that must share a ground set do not."""


class MissingSubset(CapaxError):
    """Strict capacity construction got no value for some nonempty proper subset."""


class NotMonotone(CapaxError):
    """Capacity table violates monotonicity; carries a witness pair (small, large)."""

    def __init__(self, small: int, large: int, message: str = ""):
        self.small = small
        self.large = large
        super().__init__(message or f"value of subset {small:#b} exceeds value of superset {large:#b}")


class OutOfRange(CapaxError):
    """A capacity value falls outside [0, 1]."""

    def __init__(self, subset: int, message: str = ""):
        self.subset = subset
        super().__init__(message or f"value of subset {subset:#b} outside [0, 1]")


class BadNormalization(CapaxError):
    """Supplied values for the empty or full set contradict 0 / 1."""


class EmptyCarrier(CapaxError):
    """Unanimity capacity asked for an empty carrier set."""


class EmptySubset(CapaxError):
    """An operation that needs a nonempty subset got the empty one."""


# --- linear programming ------------------------------------------------------


class ShapeMismatch(CapaxError):
    """LP instance and outcome (or rows and objective) disagree on dimensions."""


# --- classification / credal -------------------------------------------------


class CoreEmpty(CapaxError):
    """The capacity is unbalanced, so its core polytope is empty."""


class NotExact(CapaxError):
    """An operation that requires an exact capacity received a non-exact one."""


class InfeasibleCredal(CapaxError):
    """A constraint-form credal set has no feasible probability measure."""


class InternalInconsistency(CapaxError):
    """Two decision routes that must agree did not: a solver bug, never a math outcome."""

    def __init__(self, message, *witnesses):
        self.witnesses = witnesses
        super().__init__(message)


# --- front end ---------------------------------------------------------------


class ParseError(CapaxError):
    """A text input failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class ValidationError(CapaxError):
    """Parsed input is syntactically fine but semantically invalid."""


class ConfigOutOfRange(CapaxError):
    """A configuration value or an input size is outside the supported range."""


class GeneratorExhausted(ConfigOutOfRange):
    """A seeded generator ran out of attempts: the configuration asks for
    members the sampler cannot find in bounded time."""
