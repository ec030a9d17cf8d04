"""Turing machines compiled into planar gradient flows and Beltrami lifts."""

__version__ = "0.1.0"
