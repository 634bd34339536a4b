"""Exception types shared across the councilnet package."""


class CouncilNetError(Exception):
    """Base class for all councilnet errors."""


class DuplicateNid(CouncilNetError):
    """A node id was declared more than once."""


class UnknownNode(CouncilNetError):
    """An operation referenced a node that is not in the topology."""


class UnknownCluster(CouncilNetError):
    """An operation referenced a cluster id that does not exist."""


class DisconnectedTopology(CouncilNetError):
    """A re-form (``maintenance.reform``) requires a connected topology."""


class InvalidDominatingSet(CouncilNetError):
    """Cluster formation was handed a set that does not dominate the graph."""


class InvalidCouncilSize(CouncilNetError):
    """Threshold selection needs a council of at least one head."""


class DuplicateX(CouncilNetError):
    """Two shares of one secret may not sit on the same x coordinate."""


class ZeroX(CouncilNetError):
    """Share x coordinates must be nonzero (x = 0 holds the secret itself)."""


class InsufficientShares(CouncilNetError):
    """Fewer shares than the threshold were offered for reconstruction."""


class MixedEpoch(CouncilNetError):
    """Shares from different refresh epochs may not be combined."""


class IncompleteShareSet(CouncilNetError):
    """Refreshing requires the complete set of outstanding shares."""


class ParseError(CouncilNetError):
    """A scenario file could not be read or decoded."""


class ValidationError(CouncilNetError):
    """A scenario or argument violated a documented invariant."""
