"""Exception hierarchy shared across the package."""


class PropGraphError(Exception):
    """Base class for all errors raised by propgraph."""


class EmptyTextError(PropGraphError):
    """A node or document was given empty text."""


class UnknownNodeError(PropGraphError):
    """A node id does not exist in the graph."""


class NotNormalizedError(PropGraphError):
    """An embedding vector is not unit length within tolerance."""


class DimensionMismatchError(PropGraphError):
    """Two vectors (or a vector and an index) disagree on dimensionality."""


class FrozenGraphError(PropGraphError):
    """Mutation was attempted on a finalized graph."""


class GraphNotFinalizedError(PropGraphError):
    """An operation that requires a finalized graph was called too early."""


class CorruptFileError(PropGraphError):
    """An on-disk graph artifact is truncated or inconsistent."""


class VersionMismatchError(PropGraphError):
    """An on-disk graph was written with an unsupported format version."""


class ExtractionFailed(PropGraphError):
    """The extraction backend returned unparseable output twice in a row."""


class BackendUnavailable(PropGraphError):
    """A live backend could not be reached after retries."""


class ConfigError(PropGraphError):
    """A configuration file is malformed or contains unknown keys."""


class EmptyGraphError(PropGraphError, ValueError):
    """A question was asked of a graph that holds no propositions."""


class InputFileError(PropGraphError, ValueError):
    """A corpus or dataset file has a row that is not valid input."""
