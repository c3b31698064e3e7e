"""Exact graph complexes, infinitesimal braid Lie algebras, and the flat connections
whose holonomy produces Drinfeld associators.

The package is organized bottom-up:

- ``exact``: sparse rational linear algebra (ranks, kernels, membership, normal forms
  modulo a span, cohomology).
- ``graphs``: admissible graphs with signed edge orderings, canonical forms, the two
  differentials, enumeration, and the induced Lie brackets.
- ``freelie``: free Lie algebras in the Lyndon basis plus cyclic-word (trace) spaces.
- ``braids``: the infinitesimal braid Lie algebras, their enveloping algebras, special
  derivations, divergence, and pentagon/hexagon checks.
- ``cohomology``: complexes assembled from graph blocks, cohomology dimensions, and the
  identifications between graph classes and braid Lie elements.
- ``forms``: propagator-form Monte Carlo integration over configuration spaces, the flat
  connection, its curvature, and the associator extraction.
- ``transport``: Eilenberg-Zilber shuffle/Alexander-Whitney machinery on bisimplicial
  chain data, plus bar-complex and iterated-integral transport maps for flat polynomial
  connections, all checked exactly.
- ``cli``: the ``braidcomplex`` command line entry point emitting JSON reports.
"""

__version__ = "0.1.0"
