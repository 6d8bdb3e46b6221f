"""Exception types shared across the toolkit."""


class QuatemError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(QuatemError):
    """Invalid user-supplied configuration or file content."""


class CapacityError(QuatemError):
    """Requested discretization exceeds the desk-scale memory budget."""


class TopologyError(QuatemError):
    """Surface mesh is not a closed orientable surface."""


class SingularityError(QuatemError):
    """Kernel evaluated at (or numerically on top of) its singular point."""


class NearSingularityError(QuatemError):
    """Evaluation point violates the boundary exclusion-zone rule: it lies
    closer to a node of the boundary rule than the rule allows."""

    def __init__(self, distance: float, min_distance: float):
        super().__init__(
            "evaluation point is %.6e from the nearest boundary rule node, "
            "rule requires >= %.6e"
            % (distance, min_distance)
        )
        self.distance = distance
        self.min_distance = min_distance


class SingularMediumError(QuatemError):
    """Medium parameters sit on (or too close to) k*beta = +-1."""
