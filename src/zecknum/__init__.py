"""Block numeration systems with user-defined digit admissibility.

A system pairs a family of rows (the immediate predecessors of the basis
functions, or the maximal tails on the real side) with a fundamental
sequence of basis values.  The package builds the standard families,
encodes and decodes integers, reals in (0,1), and p-adic integers, walks
members in lexicographic order, and probes uniqueness and coverage claims.
The top level re-exports only the ``config`` loaders; every other name
lives in its own module.
"""

from .config import System, build_system, fixture_names, load_config, load_fixture

__version__ = "0.1.0"
