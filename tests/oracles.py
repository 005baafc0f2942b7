"""Reference objectives and a finite-difference checker for the gradient
tests: the group-lasso penalty, the critic separation and its penalized
form, whose gradients ``models.generator_grad`` and ``nn.backward`` must
match, and ``grad_check`` to compare them by central differences.
"""

import numpy as np

from dpsynth import models
from dpsynth.errors import NumericError, ShapeError, UsageError


def group_lasso(W) -> float:
    """Sum of Euclidean norms of the prefix rows (all rows but the last).

    The generator penalty applies it to ``np.column_stack([w_in, skip])``, so
    row k is the whole dependence on input k.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ShapeError(f"W must be 2-D, got ndim={W.ndim}")
    return float(np.sqrt((W[:-1] ** 2).sum(axis=1)).sum())


def objective_delta(f, g, X_batch, Z_batch) -> float:
    """Critic separation: mean critic on real rows minus mean critic on fakes."""
    X_batch = np.asarray(X_batch, dtype=np.float64)
    Z_batch = np.asarray(Z_batch, dtype=np.float64)
    if X_batch.size == 0 or Z_batch.size == 0:
        raise UsageError("objective needs non-empty real and noise batches")
    real, _ = models.disc_forward_batch(f, X_batch)
    fake, _ = models.disc_forward_batch(f, models.sample_batch(g, Z_batch))
    return float(real.mean() - fake.mean())


def penalized_objective(f, g, X_batch, Z_batch, sched) -> float:
    lam = sched.values(g.d)
    penalty = sum(lam[jj] * group_lasso(np.column_stack([s.w_in, s.skip])) for jj, s in enumerate(g.subs))
    return objective_delta(f, g, X_batch, Z_batch) + float(penalty)


def grad_check(f, params, eps: float = 1e-6) -> float:
    """Compare an analytic gradient against central finite differences.

    ``f(params)`` must return ``(value, grad)`` where grad has the shape of
    params. Returns the worst relative error
    ``|analytic - numeric| / max(1, |numeric|)`` over all coordinates.
    """
    if not (0.0 < eps <= 1e-3):
        raise UsageError(f"eps must lie in (0, 1e-3], got {eps}")
    params = np.asarray(params, dtype=np.float64)
    value, grad = f(params)
    if not np.isfinite(value):
        raise NumericError(f"objective is non-finite at the base point: {value}")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.shape:
        raise ShapeError(f"grad shape {grad.shape} does not match params {params.shape}")
    worst = 0.0
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + eps
        up, _ = f(bumped)
        bumped[i] = params[i] - eps
        down, _ = f(bumped)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError(f"objective non-finite near coordinate {i}")
        numeric = (up - down) / (2.0 * eps)
        rel = abs(grad[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, rel)
    return worst
