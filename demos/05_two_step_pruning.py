"""Select dependencies in phase one, prune, and retrain the survivors.

The group penalty shrinks each input's whole dependence, its input-map row
together with its skip entry, so a small row norm is evidence that a column
does not need that dependency. With ``two_step=True`` the trainer
thresholds those norms midway: rows below tau are zeroed and frozen, and
phase two retrains only the surviving structure. Both phases draw from the
same privacy ledger, so the final epsilon covers the whole pipeline.
"""

import numpy as np

from dpsynth import dp, semdata, tabular, training

spec = semdata.SemSpec(kind="linear")
dag = semdata.sample_er_dag(d=6, expected_edges=6, seed=11)
weights = semdata.sample_weights(dag, spec, seed=11)
raw = semdata.simulate(dag, weights, spec, n=1500, seed=11)
data = tabular.transform(tabular.fit_preprocessor(raw), raw)

cfg = training.TrainConfig(
    steps=1200, batch=60, t_g=5, eta_theta=0.05, eta_nu=0.1, clamp=0.5,
    lam=0.003, tau=0.05, seed=11, dp=dp.DpConfig(noise_multiplier=1.0), two_step=True,
)
g, _, report = training.train(data, cfg)

print(f"phase 1 budget: epsilon = {report.epsilon_phase1:.3f}")
print(f"both phases:    epsilon = {report.epsilon:.3f} at delta = {report.delta:g}")
print(f"steps accounted: {report.steps} ({report.gen_updates} generator updates)")

kept = dropped = 0
for j, mask in enumerate(report.freeze_mask, start=1):
    for k, frozen in enumerate(mask[:-1], start=1):
        if frozen:
            dropped += 1
        else:
            kept += 1
print(f"\ndependencies after pruning: {kept} kept, {dropped} frozen at zero")
print(f"true edge count: {len(dag.edges)}")

# Frozen rows are bit-zero and stay that way through phase two.
sub = g.subs[-1]
frozen_rows = [k for k, fz in enumerate(sub.frozen[:-1]) if fz]
print(f"\nlast column's frozen prefix rows: {frozen_rows}")
for k in frozen_rows:
    assert np.all(sub.w_in[k] == 0.0) and sub.skip[k] == 0.0
print("frozen rows verified zero in both the input map and the skip path")
