"""Nodal sets of torus eigenfunctions: extraction, measure, and statistics.

Exact trigonometric eigenfunctions on the unit torus, periodic contour
extraction of their zero sets, ball-mass equidistribution statistics,
bounded-overlap coverings, doubling classification, growth exponents, and
an end-to-end verification harness with a CLI front door.

The package namespace exports nothing: import the submodules, e.g.
``from torusnodal import harness``.
"""
