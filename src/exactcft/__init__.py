"""Exact rational computer algebra for chiral conformal partial waves,
intertwining differential operators, and six-point positivity data.

The library API lives in the submodules (``from exactcft.pairs import
PairSum``); the package itself carries only ``__version__``.
"""

__version__ = "0.1.0"
