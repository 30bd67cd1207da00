"""spinfp: exact spin-resolved electron transport through two magnetic impurities.

A 1D wire hosts two spin-1/2 impurities with contact exchange coupling.  The
package computes the exact stationary scattering states, channel amplitudes,
transmittivities for arbitrary incident spin states, conservation-law
diagnostics and the post-selected impurity entanglement, cross-validated by
an independent transfer-matrix oracle.

The package re-exports nothing: each name is imported from the module that
defines it, such as ``spinfp.closed_form``, ``spinfp.observables`` or
``spinfp.spin_algebra``.
"""

__version__ = "0.1.0"
