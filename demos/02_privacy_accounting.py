"""Walk through the privacy accountant, from one step to a full budget.

The trainer releases each discriminator update through the subsampled
Gaussian mechanism. The accountant keeps the Renyi divergence cost of the
releases as one curve over a grid of orders, adds the curves of further
releases to it, and converts the total into an (epsilon, delta) statement.
"""

import numpy as np

from dpsynth import dp

# Cost of a single release, per order. With full batches (q = 1) the cost is
# exactly alpha / (2 sigma^2); subsampling (q < 1) buys a large discount.
sigma = 2.0
for q in (1.0, 0.1, 0.004):
    curve = dp.rdp(q, sigma, 1)
    costs = [curve[dp.DEFAULT_ORDERS.index(a)] for a in (2, 8, 32)]
    print(f"q = {q:<6} per-step cost at orders 2/8/32: "
          + "  ".join(f"{c:.2e}" for c in costs))

# Costs add across steps: the ledger is the sum of the rdp curves of the
# releases, here 3000 steps and then 4000 more (the same as 7000 at once).
curve = dp.rdp(50 / 12384, sigma, 3000) + dp.rdp(50 / 12384, sigma, 4000)
eps, order = dp.eps_and_order(curve, delta=1e-5)
print(f"\n7000 steps at q = 50/12384, sigma = 2: "
      f"epsilon = {eps:.4f} at delta = 1e-05 (best order {order})")

# More noise, less budget spent: epsilon falls monotonically in sigma.
print("\nsigma -> epsilon (same run length):")
for s in (1.0, 1.5, 2.0, 4.0, 8.0):
    print(f"  sigma = {s:<4} epsilon = {dp.epsilon_for(50 / 12384, s, 7000, 1e-5):8.4f}")

# Calibration inverts that curve: name the budget, get the noise level.
target = dp.PrivacySpec(epsilon=1.0, delta=1e-5)
sigma_cal = dp.calibrate_sigma(target, q=50 / 12384, steps=7000)
achieved = dp.epsilon_for(50 / 12384, sigma_cal, 7000, 1e-5)
print(f"\ntarget epsilon = 1.0 -> calibrated sigma = {sigma_cal:.4f} "
      f"(achieves epsilon = {achieved:.6f})")

# The same arithmetic backs the DP-SGD release itself: clip each per-example
# gradient to norm C, average, and add N(0, (sigma C / B)^2) noise per
# coordinate.
rng = np.random.default_rng(0)
grads = rng.standard_normal((50, 8)) * 3.0
release_cfg = dp.DpConfig(clip_norm=1.0, noise_multiplier=sigma)
noisy_mean = dp.privatize(grads, release_cfg, rng)
print(f"\nprivate gradient release (B = 50, C = 1): {np.round(noisy_mean, 4)}")
