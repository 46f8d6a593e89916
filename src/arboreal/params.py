"""Values that the layers define and the CLI parser reads: the default ball
cap, the two sides of a splitting's tree vertices, and the least limits of a
tree ball or an audit. Importing this module loads no layer, so a usage
error or a limit error loads none either."""

from .errors import InputError

DEFAULT_BALL_CAP = 200_000

# The two kinds of vertex of a splitting's Bass-Serre tree: cosets of G_A, of G_B.
SIDE_A = "A"
SIDE_B = "B"

# The least value of each limit of a tree ball or an audit.
_LEAST_LIMITS = dict(k=1, radius=0, tree_radius=1, element_radius=1, local_radius=1, cap=1)


def check_limits(names: dict[str, str] | None = None, **limits: int) -> None:
    """Raise InputError for the first of ``limits`` below its least value (0
    for a tree ball's radius, else 1), or for k above 2 * tree_radius, the
    longest path in the tree ball, under which nothing would be audited.
    ``names`` maps a parameter name to how messages spell it."""
    names = names or {}
    for key, value in limits.items():
        least = _LEAST_LIMITS[key]
        if value < least:
            raise InputError(f"{names.get(key, key)} must be at least {least}, got {value}")
    if "k" in limits and limits["k"] > 2 * limits["tree_radius"]:
        raise InputError(
            f"{names.get('k', 'k')} {limits['k']} is more than twice "
            f"{names.get('tree_radius', 'tree_radius')} {limits['tree_radius']}: no path of "
            "that many edges fits in the tree ball, so nothing would be audited"
        )
