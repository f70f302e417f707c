"""Exact integer tensors from graph homomorphism counting, a diagram calculus
of bilabelled graphs, and morphism-space dimensions for generator-presented
graph fibrations.

The modules are the API: each name lives in one module and is imported from
there, as ``graphfib.<module>.<name>``.  This package re-exports nothing."""

__version__ = "0.1.0"
