"""Exception types shared across the toolkit, and the integer-argument rule.

Every error raised on purpose derives from GGEvalError so the CLI can map
library failures to exit code 1 while argparse keeps exit code 2 for usage
problems.
"""

import operator
from numbers import Integral


def require_integer(name: str, value, minimum: int) -> int:
    """value as a plain int, checked against the smallest value it may take.

    Raises TypeError unless value is an integer (a bool is not a count)
    and ValueError when it is below minimum. Callers keep the returned
    int, so a numpy integer never reaches a json.dumps of a config or
    report.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


class GGEvalError(Exception):
    """Base class for all toolkit errors."""


class InvariantViolationError(GGEvalError):
    """A constructed graph violates a structural invariant."""


class SelfLoopError(InvariantViolationError):
    """An edge connects a node to itself."""


class EndpointOutOfRangeError(InvariantViolationError):
    """An edge endpoint is outside [0, num_nodes)."""


class ParseError(GGEvalError):
    """A serialized graph record could not be parsed.

    Carries the 1-based record index when known.
    """

    def __init__(self, message, record=None):
        if record is not None:
            message = f"record {record}: {message}"
        super().__init__(message)
        self.record = record


class FeatureMismatchError(GGEvalError):
    """Node features of a graph disagree with the encoder configuration.

    Carries the 0-based index of the graph in its collection when known,
    and the message without that prefix as reason.
    """

    def __init__(self, reason, graph=None):
        super().__init__(reason if graph is None else f"graph {graph}: {reason}")
        self.reason = reason
        self.graph = graph


class DimensionMismatchError(GGEvalError):
    """Two embedding matrices have incompatible dimensions."""


class TooFewRowsError(GGEvalError):
    """An embedding matrix has too few rows for the requested statistic."""


class KTooLargeError(GGEvalError):
    """k-NN radius requested with k >= number of available points."""


class DegenerateSetError(GGEvalError):
    """A sample set is too small for the requested estimator."""


class DegenerateBatchError(GGEvalError):
    """A contrastive batch has fewer than two graphs (no negatives)."""


class NonFiniteGradientError(GGEvalError):
    """A training step produced a NaN or infinite gradient."""


class HypothesisViolationError(GGEvalError):
    """Cycle-pair parameters violate 4 < a < c < d < b with a+b = c+d."""


class AllClustersSelectedError(GGEvalError):
    """Mode dropping selected every cluster, leaving nothing to resample."""


class CensusTooLargeError(GGEvalError):
    """4-node orbit census requested on a graph above the size cap."""
