"""Differentially private tabular data synthesis.

A sequential GAN generates one column at a time from the previously
generated columns plus fresh noise; a group-lasso penalty on each input's
whole dependence (its input-map row and skip entry) switches off spurious
cross-column dependencies;
the critic is trained with per-example clipped, noised gradients and the
privacy cost is tracked by a Renyi-DP accountant. Synthetic
structural-equation benchmarks and a metric suite round things out.
"""

from .dp import (
    DpConfig,
    PrivacyLedger,
    PrivacySpec,
    calibrate_sigma,
    clip_grad,
    eps_from_ledger,
    ledger_compose,
    new_ledger,
    privatize,
    rdp_subsampled_gaussian,
)
from .errors import (
    CalibrationError,
    FitError,
    IngestionError,
    MetricError,
    NumericError,
    ShapeError,
    TrainingDiverged,
    UsageError,
)
from .metrics import (
    BinGrid,
    MetricReport,
    downstream_efficacy,
    fit_grid,
    js_divergence,
    metric_report,
    mmd,
    tvd_1way,
    tvd_2way,
    wd_1d,
    wd_table,
)
from .models import (
    Discriminator,
    PenaltySchedule,
    SequentialGenerator,
    SubGenerator,
    clip_weights,
    generator_grad,
    group_lasso_subgrad,
    load_checkpoint,
    new_discriminator,
    new_generator,
    prune,
    row_norms,
    save_checkpoint,
)
from .semdata import (
    Dag,
    SemSpec,
    SemWeights,
    ancestor_closure,
    max_ancestor_size,
    sample_er_dag,
    sample_sf_dag,
    sample_weights,
    simulate,
)
from .tabular import (
    Preprocessor,
    SplitSpec,
    Table,
    fit_preprocessor,
    inverse_transform,
    read_csv,
    split,
    transform,
    write_csv,
)
from .training import TrainConfig, TrainReport, poisson_batch, train

__version__ = "0.1.0"
