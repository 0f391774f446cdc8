"""Relaxed BV contact energies: densities, domain geometry, grids, and solvers."""

from . import (corpus, density, exprgrammar, extension, geometry, grid,
               relaxation, solver)
from .errors import (BVContactError, DegenerateMargin, LayerTooThin, MaskMismatch,
                     ParseError, SchemaError, UnboundedBelow)

__version__ = "0.1.0"
