"""Exact search and verification toolkit for anti-Hales-Jewett numbers.

ah(k, n) is one more than the largest number of colors in a coloring of
the hypercube [k]^n with no rainbow combinatorial line.  The subpackages
split the work: `hypercube` (point indices, lines, symmetries), `coloring`
(rainbow checks, canonical forms, file I/O), `constructions` (explicit
rainbow-free colorings), `search` (exact branch and bound, enumeration,
completion), `bounds` (closed-form and recursive bounds), `repro` (the
ten headline claims), `cli` (the `ahj` command), and `fixtures` (bundled
verified colorings).  Every module works on point indices; a point or a
line is named only when it is printed.
"""

__version__ = "0.1.0"
