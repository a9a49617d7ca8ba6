"""Open ASEP simulation and numerical verification of its stochastic heat
equation scaling limit with Robin boundary conditions."""

__version__ = "0.1.0"
