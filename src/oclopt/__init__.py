"""Online continual learning optimization toolkit.

Synthetic non-stationary streams, replay pools, one moving-average averager
(plain SGD, EMA and the adaptive two-model variant), moving-average-based
learning-rate control, OCL metrics, and empirical verification of SGD
convergence bounds.
"""

# the one version string: run manifests and pyproject.toml both read it
__version__ = "0.1.0"
