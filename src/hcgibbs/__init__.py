"""Gibbs measures of the hard-core model on the order-2 Cayley tree.

The model has countably many spin values, a hub value 0 admissible next to
everything, and self-loops at one or two nonzero values.  This package
solves the translation-invariant boundary-law equations in closed form,
counts solutions across parameter regimes, verifies the counts with an
independent fixed-point oracle, builds the associated spin chain, and
samples tree configurations.

The package root re-exports nothing; import names from the submodules.
"""

__version__ = "0.1.0"
