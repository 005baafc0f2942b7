"""Output checks. Each returns a list of problems; an empty list passes.

The checks read the files the CLI wrote with their own parsers (numpy's
``loadtxt``, the JSON module) and recompute what they compare against
independently of the code under test wherever that is cheap, so a defect in
``dpsynth`` cannot hide by agreeing with itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

EPS_BAND = 1e-3  # calibration lands epsilon in [target * (1 - 1e-3), target]
WD_TOLERANCE = 1e-12


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def load_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def epsilon(report: dict, target: float, n: int, account_report) -> list:
    """Calibrated epsilon lies in the band and equals the accountant's figure
    for the same n, batch, sigma and steps."""
    eps = report.get("epsilon")
    if eps is None or not math.isfinite(eps):
        return [f"report epsilon is {eps!r}, expected a finite value"]
    problems = []
    if not target * (1.0 - EPS_BAND) <= eps <= target:
        problems.append(f"epsilon {eps!r} outside [{target * (1 - EPS_BAND)!r}, {target!r}]")
    expected = account_report(n, report["batch"], report["sigma"], report["steps"], report["delta"])
    if not math.isclose(eps, expected["epsilon"], rel_tol=1e-12, abs_tol=0.0):
        problems.append(f"epsilon {eps!r} != account_report epsilon {expected['epsilon']!r}")
    return problems


def gen_updates(report: dict, steps_per_phase: int, t_g: int, phases: int) -> list:
    expected = phases * (steps_per_phase // t_g)
    if report.get("gen_updates") != expected:
        return [f"gen_updates {report.get('gen_updates')!r}, expected {expected}"]
    return []


def _generator_blocks(payload: dict):
    """Yield (w_in, skip, frozen) per column from a checkpoint's flat theta.

    Layout per sub-generator j (1-based): w_in (j, width) row-major, skip (j),
    hidden weight (width, width), hidden bias (width), output weight (width),
    output bias (1).
    """
    theta = np.asarray(payload["theta"], dtype=np.float64)
    width = int(payload["hidden_width"])
    pos = 0
    for j, mask in enumerate(payload["freeze_mask"], start=1):
        w_in = theta[pos : pos + j * width].reshape(j, width)
        pos += j * width
        skip = theta[pos : pos + j]
        pos += j + width * width + width + width + 1
        yield w_in, skip, np.asarray(mask, dtype=bool)
    if pos != theta.size:
        raise ValueError(f"theta has {theta.size} entries, layout needs {pos}")


def frozen_rows_zero(payload: dict) -> list:
    """Every frozen input slot has an all-zero w_in row and a zero skip entry,
    and the prune froze at least one slot (otherwise the check is empty)."""
    problems = []
    frozen_total = 0
    try:
        for j, (w_in, skip, frozen) in enumerate(_generator_blocks(payload), start=1):
            frozen_total += int(frozen.sum())
            if np.any(w_in[frozen] != 0.0) or np.any(skip[frozen] != 0.0):
                problems.append(f"column {j}: frozen slot holds a nonzero weight")
    except (KeyError, ValueError) as exc:
        return [f"checkpoint layout: {exc}"]
    if frozen_total == 0:
        problems.append("no frozen slots after prune")
    return problems


def same_digest(first: str, current: str, what: str) -> list:
    if first != current:
        return [f"{what} sha256 {current[:12]} differs from the first repeat's {first[:12]}"]
    return []


def generated_rows(values: np.ndarray, n: int, d: int) -> list:
    problems = []
    if values.shape != (n, d):
        problems.append(f"generated table has shape {values.shape}, expected ({n}, {d})")
    if not np.all(np.isfinite(values)):
        problems.append("generated table holds non-finite values")
    return problems


def sorted_sample_wd(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over columns of the mean absolute gap between sorted columns
    (the 1-Wasserstein distance for equal sample sizes)."""
    if a.shape != b.shape:
        raise ValueError(f"samples differ in shape: {a.shape} vs {b.shape}")
    gaps = np.abs(np.sort(a, axis=0) - np.sort(b, axis=0))
    return float(np.mean([gaps[:, j].mean() for j in range(a.shape[1])]))


def metrics_wd(metrics_payload: dict, synthetic: np.ndarray, test: np.ndarray) -> list:
    expected = sorted_sample_wd(synthetic, test)
    got = metrics_payload.get("wd")
    if not isinstance(got, float) or abs(got - expected) > WD_TOLERANCE:
        return [f"metrics.json wd {got!r} != sorted-sample wd {expected!r}"]
    return []
