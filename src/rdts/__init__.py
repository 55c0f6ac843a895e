"""Exact information-ratio and rate-distortion experiments for Thompson
sampling on finite Bayesian bandits."""

__version__ = "0.1.0"
