"""Bundled rainbow-free colorings in the exchange file format.

Each file is a verified witness: a square 4-coloring, the two minimal
cube 10-colorings, and a hypercube 23-coloring.  All were produced by
the package's own enumeration and construction routines.
"""

from importlib import resources

from ..coloring import Coloring, parse


def load_fixture(name: str) -> Coloring:
    """Parse a bundled coloring by file name."""
    path = resources.files(__package__).joinpath(name)
    if not path.is_file():
        raise FileNotFoundError(f"no bundled coloring named {name!r}")
    return parse(path.read_text())
