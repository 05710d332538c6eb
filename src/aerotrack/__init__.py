"""Occlusion-aware aerial target tracking library and closed-loop simulator."""

__version__ = "0.1.0"
