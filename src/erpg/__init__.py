"""Polarity graphs of finite projective planes.

Construction and certification of large independent sets and
triangle-free induced subgraphs of the polarity graph ER_q of PG(2,q),
with exact finite-field arithmetic, a bitset graph core, an exact
branch-and-bound independence solver, and graph6/DIMACS/CSV export.
"""

__version__ = "0.1.0"
