"""Exception types shared across the package."""


class FormatError(ValueError):
    """A text document does not match the expected line format."""


class PivotOnZero(ValueError):
    """Pivot requested at a zero matrix entry."""


class DimensionMismatch(ValueError):
    """Two matrices (or bipartite graphs) have incompatible shapes."""


class NotAnEdge(ValueError):
    """Graph pivot requested on a non-edge."""


class CapExceeded(RuntimeError):
    """Requested parameters exceed a documented size cap."""


class OrbitBudgetExceeded(CapExceeded):
    """Pivot orbit grew past the caller's size budget.

    Says how far the closure got: ``found`` labelled graphs found, the one
    past the budget included, and ``depth`` the BFS level of that graph
    (0 is the starting graph).
    """

    def __init__(self, max_size: int, found: int, depth: int):
        super().__init__(f"orbit exceeds {max_size}: found={found} depth={depth}")
        self.found = found
        self.depth = depth


class SearchBudgetExceeded(CapExceeded):
    """Containment search ran out of node budget; result is unknown.

    Says how far the search got: ``expanded`` nodes expanded, ``stored``
    labelled graphs the search holds as keys, and ``depth`` the path
    length of the state that would have been expanded next (0 is the host
    graph).
    """

    def __init__(self, budget: int, expanded: int, stored: int, depth: int):
        super().__init__(f"budget {budget} exhausted: expanded={expanded} "
                         f"stored={stored} depth={depth}")
        self.expanded = expanded
        self.stored = stored
        self.depth = depth


class NotConnected(ValueError):
    """The multigraph is not connected."""


class NotASpanningTree(ValueError):
    """The designated edge set is not a spanning tree."""


class ElementNotFound(ValueError):
    """Matroid element label not present where required."""


class TreeTooSmall(ValueError):
    """Tree has fewer edges than the splitting procedure requires."""


class NotATree(ValueError):
    """The graph is not a tree (connected and acyclic)."""


class PartitionInvalid(ValueError):
    """Row/column classes do not partition the index range."""


class UnknownCampaign(ValueError):
    """No campaign registered under the given name."""


class GroundSetTooLarge(CapExceeded):
    """Matroid ground set exceeds the circuit enumeration cap."""


class SubsetCapExceeded(CapExceeded):
    """Subset enumeration over a vertex/element set larger than the cap."""
