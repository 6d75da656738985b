"""Exception hierarchy shared across the package."""


class GraphGameError(Exception):
    """Base class for all errors raised by this package."""


# --- graph construction / formats ---------------------------------------

class UnknownName(GraphGameError):
    """Requested named graph does not exist."""


class BadParam(GraphGameError):
    """Invalid parameter for a graph family or formula."""


class BadVertexSet(GraphGameError):
    """Vertex set argument is not a subset of V(G)."""


class MalformedGraph6(GraphGameError):
    """graph6 line could not be decoded; carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


# --- pattern detection ----------------------------------------------------

class PatternTooLarge(GraphGameError):
    """Pattern graph exceeds the small-pattern search limit."""


# --- structure / decomposition --------------------------------------------

class NotInClass(GraphGameError):
    """Input graph is outside the required forbidden-subgraph class."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NoInducedC5(GraphGameError):
    """Decomposition requires an induced 5-cycle and none exists."""


class NoInducedC6(GraphGameError):
    """Decomposition requires an induced 6-cycle and none exists."""


class Disconnected(GraphGameError):
    """Operation requires a connected graph."""


class StructureViolation(GraphGameError):
    """A validated structural claim failed; indicates a bug or an
    out-of-class input that slipped past detection."""


# --- game engine ------------------------------------------------------------

class AlreadyColored(GraphGameError):
    """Vertex is already colored."""


class NoLegalColor(GraphGameError):
    """Ben has no proper color for the pending vertex."""


class TooLarge(GraphGameError):
    """Graph exceeds the configured exact-solve size limit."""


class ResourceBudgetExceeded(GraphGameError):
    """Solver exceeded its node budget; result would not be exact."""


class NotWinnableWithinKmax(GraphGameError):
    """No palette size up to kmax lets the selector win."""


# --- strategies --------------------------------------------------------------

class NotApplicable(GraphGameError):
    """Strategy preconditions (class membership) do not hold."""


class BoundViolated(GraphGameError):
    """Palette size below the strategy's guaranteed bound."""


class StrategyIllegalMove(GraphGameError):
    """Strategy selected a colored or absent vertex."""


class StrategyInvariantViolation(GraphGameError):
    """A runtime assertion derived from a strategy's correctness
    argument failed during play."""


class NotWinnable(GraphGameError):
    """Solver-backed strategy requested on a losing position."""


class ScriptError(GraphGameError):
    """Scripted adversary ran out of moves or played an illegal color."""
