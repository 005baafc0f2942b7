"""The same training loop with differential privacy switched on.

Three changes relative to the non-private run: batches become Poisson
subsamples of the table, each per-example critic gradient is clipped and the
averaged update carries Gaussian noise, and the privacy cost of every step
is added to the run's RDP curve. The generator never touches the real rows, so its
updates are free.
"""

import numpy as np

from dpsynth import dp, metrics, models, semdata, tabular, training

spec = semdata.SemSpec(kind="linear")
dag = semdata.sample_er_dag(d=5, expected_edges=5, seed=3)
weights = semdata.sample_weights(dag, spec, seed=3)
raw = semdata.simulate(dag, weights, spec, n=2000, seed=3)
held = semdata.simulate(dag, weights, spec, n=2000, seed=903)
pre = tabular.fit_preprocessor(raw)
data = tabular.transform(pre, raw)
held_std = tabular.transform(pre, held)

for sigma in (0.0, 1.0, 4.0):
    cfg = training.TrainConfig(
        steps=1500, batch=100, t_g=5, eta_theta=0.05, eta_nu=0.1,
        clamp=0.5, seed=3,
        dp=dp.DpConfig(clip_norm=1.0, noise_multiplier=sigma),
    )
    g, _, report = training.train(data, cfg)
    Z = np.random.default_rng(7).standard_normal((2000, data.d))
    synth = tabular.Table(data.names, models.sample_batch(g, Z))
    wd = metrics.wd_table(synth, held_std)
    eps = "inf (non-private)" if report.non_private else f"{report.epsilon:.3f}"
    print(f"sigma = {sigma:<4} epsilon = {eps:<20} held-out wd_table = {wd:.3f}")

# Epsilon is re-derivable from the run's public facts alone: table size,
# batch, noise multiplier, and step count.
recomputed = dp.account_report(data.n, 100, 4.0, 1500, 1e-5)["epsilon"]
print(f"\nepsilon check at sigma = 4: reported {report.epsilon:.12f}")
print(f"                    recomputed {recomputed:.12f}")

# Planning ahead of a run: how much noise does a named budget require?
sigma_needed = dp.calibrate_sigma(dp.PrivacySpec(epsilon=2.0, delta=1e-5), 100 / data.n, 1500)
print(f"\nbudget epsilon = 2 over the same schedule needs sigma = {sigma_needed:.3f}")
