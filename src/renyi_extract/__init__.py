"""Renyi-divergence uniformity certification for k*-universal leftover hashing.

The top level holds the names of the README's quick start; everything else
is imported from its module.
"""

from .extraction import Source, extract_joint
from .families import HashFamily, certify_k_star
from .fields import FieldParams
from .measures import Alpha, Pmf, empirical_divergences

__version__ = "0.1.0"
