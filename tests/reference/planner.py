"""The star-schema connectivity rule the planner's ``JoinGraph`` must
reproduce on a star: a table subset is joinable without a cross product
iff it is a singleton or contains the center table."""


def connected(subset: frozenset, center: str) -> bool:
    """Star-schema connectivity: singleton or contains the center."""
    return len(subset) == 1 or center in subset
