"""Exact-arithmetic toolkit for half-flat structures on six-dimensional Lie algebras.

Submodules: ``exterior`` (sparse exact exterior algebra), ``liealg``
(structure constants and the induced differential), ``stable`` (stable
forms and induced metrics), ``verify`` (half-flat verdicts and ansatz
constructions), ``classify3d`` (Bianchi/Milnor classification),
``obstruct`` (non-existence machinery), ``corpus`` (built-in reference
structures), ``search`` (float penalty search), ``cli`` (command line and
file format).
"""

__version__ = "0.1.0"
