"""Lattice invariants, hyperkahler period maps, and equivariant spectral
zeta continuations for involutions, with a JSON command line front end."""

__version__ = "0.1.0"
