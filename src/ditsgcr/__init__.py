"""Structural node embeddings for directed temporal transaction graphs."""

__version__ = "0.1.0"
