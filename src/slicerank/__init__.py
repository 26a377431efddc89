"""Exact toolkit for sunflower-free set families.

Predicates and encodings for set families, the slice-rank machinery that
certifies size bounds for them (symbolic tensor expansion, grouping into
slices, exact verification against the product form), closed-form bound
evaluation, and brute-force extremal search at small instance sizes.
"""

__version__ = "0.1.0"
