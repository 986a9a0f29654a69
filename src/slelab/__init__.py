"""Numerical laboratory for interacting Loewner flows.

Backward and forward chains with several marked boundary points, driven
by Brownian motion with an interaction drift.  The pieces fit together
as: core (configurations, driving paths, reproducible noise), loewner
(exact slit-map integration and capacity extraction), partition
(pairwise-power interaction weights and their PDE residuals), sampler
(ensembles, change-of-measure weights, inverse-map law), commutation
(two-leg scheme comparison and generator algebra), coupling (harmonic
field observables carried along the flow).
"""

__version__ = "0.1.0"
