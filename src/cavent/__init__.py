"""Atom-atom entanglement mediated by coherent and squeezed micromaser cavity fields.

Two excited two-level atoms cross a lossless single-mode cavity one after the
other.  The resonant Jaynes-Cummings interaction entangles them through the
field; this package computes the emerging mixed two-atom state and its
Wootters concurrence / entanglement of formation for coherent and squeezed
coherent cavity fields, with an independent Fock-space oracle.  The commands
and their CSV output live in `cavent.cli`, which `import cavent` does not load.
"""

from .dynamics import BASIS, assemble_rho, gamma_coefficients
from .entanglement import concurrence, eof_from_concurrence
from .errors import CaventError, NumericsError, ParameterError
from .fields import (
    PhotonDistribution,
    SqueezedParams,
    solve_alpha_for_mean,
    squeezed_distribution,
)
from .oracle import trace_out_field, tripartite_state

__version__ = "0.1.0"

__all__ = [
    "BASIS",
    "CaventError",
    "NumericsError",
    "ParameterError",
    "PhotonDistribution",
    "SqueezedParams",
    "assemble_rho",
    "concurrence",
    "eof_from_concurrence",
    "gamma_coefficients",
    "solve_alpha_for_mean",
    "squeezed_distribution",
    "trace_out_field",
    "tripartite_state",
    "__version__",
]
