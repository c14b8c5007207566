"""Layered end-to-end benchmark of the OASIS query path (see README.md)."""
