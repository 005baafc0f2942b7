"""Differentially private tabular data synthesis.

A sequential GAN generates one column at a time from the previously
generated columns plus fresh noise; a group-lasso penalty on each input's
whole dependence (its input-map row and skip entry) switches off spurious
cross-column dependencies;
the critic is trained with per-example clipped, noised gradients and the
privacy cost is tracked by a Renyi-DP accountant. Synthetic
structural-equation benchmarks and a metric suite round things out.

Each name has one import path, its module's (``dpsynth.training.train``);
the package itself holds only the version.
"""

__version__ = "0.1.0"
