"""Resonant-beam SWIPT link simulator: cavity ray optics, semiconductor
gain power model, PV/APD receiver, and parameter-sweep design search."""

__version__ = "0.1.0"
