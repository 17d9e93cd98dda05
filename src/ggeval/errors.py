"""Exception types shared across the toolkit.

Every error raised on purpose derives from GGEvalError so the CLI can map
library failures to exit code 1 while argparse keeps exit code 2 for usage
problems.
"""


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
    """Node features of a graph disagree with the encoder configuration."""


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
