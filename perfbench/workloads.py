"""The three workloads, each a closed loop of real ``dpsynth`` CLI commands.

Every command runs in-process through ``dpsynth.cli.main(argv)``, one at a
time. Inputs (training tables, held-out tables, W3's checkpoint) come from
the workload seed and are made before the timed loop starts. The training
and sampling seeds handed to the CLI are constants, so every repeat of a
command inside one run does identical work and every count repeats exactly.

- ``train-private-d10``: DP training at the paper's reference n and batch,
  sigma calibrated to (1.0, 1e-5). Per-row clipping dominates.
- ``train-twostep-d30``: two-step training at sigma 0 on 30 columns. The
  per-column loops of the generator dominate; prune/freeze and the
  two-phase ledger run only here.
- ``release-d10``: two large ``generate`` commands, then ``generate`` and
  ``evaluate`` at 2,000 rows from a fixed checkpoint. CSV I/O and the
  pairwise metric tensors dominate; no traced training.

Every W1 and W2 iteration ends with a small release from the checkpoint it
just trained (``generate`` 5,000 rows, ``evaluate`` the first 500 of them),
and W3 trains its checkpoint through the CLI before the loop and rebuilds it
at the start of every iteration, so every end-to-end metric exists on every
workload. W1 and W2 evaluate 500 rows: the pairwise tensors at 2,000 rows
and 30 columns need ~4 GB.

The first loop iteration is a warm-up. Before every command the session runs
the host-speed reference loop (``hostspeed``), which the end-to-end report
uses to bring each sample to nominal host speed.
"""

from __future__ import annotations

import gc
import io
import resource
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dpsynth import cli, dp, metrics, semdata, tabular

from . import checks
from .hostspeed import Reference
from .tracer import SPAN, Tracer, full_plan

TRAIN_SEED = "0"
GEN_SEED = "1"
BATCH = 50
T_G = 5
EPSILON = 1.0
DELTA = 1e-5

# Run id of the commands that build W3's checkpoint; never traced.
SETUP_RUN = -2

TRAIN_SPANS = ("training.train", "training.train_two_step")
# One poisson_batch call per critic step; one _run_phase call per phase.
STEP_SPAN = "training.poisson_batch"
TRAIN_PROBES = TRAIN_SPANS + ("training._run_phase", STEP_SPAN)
# train_steps_per_s is sampled over chunks of this many critic steps, a
# multiple of T_G so every chunk holds the same number of generator updates.
CHUNK_STEPS = 25
# The first call that does the command's real work; setup_s ends there.
WORK_STARTS = frozenset(TRAIN_SPANS + ("models.sample_batch",))


def derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def sem_tables(d: int, seed: int, n: int, n_heldout: int):
    """A training and a held-out draw from one random linear Erdos-Renyi SEM."""
    dag = semdata.sample_er_dag(d, d, seed=derive_seed(seed, 1))
    spec = semdata.SemSpec(kind="linear")
    weights = semdata.sample_weights(dag, spec, seed=derive_seed(seed, 2))
    train = semdata.simulate(dag, weights, spec, n, seed=derive_seed(seed, 3))
    heldout = semdata.simulate(dag, weights, spec, n_heldout, seed=derive_seed(seed, 4))
    return train, heldout


def step_rates(spans: list) -> list:
    """(critic steps per second, chunk midpoint) over consecutive chunks of
    ``CHUNK_STEPS`` steps, from the start times of the step spans. A chunk
    never spans two phases: the step spans of one phase share a parent."""
    ticks = defaultdict(list)
    for span in spans:
        if span.name == STEP_SPAN:
            ticks[span.parent].append(span.start)
    rates = []
    for starts in ticks.values():
        for j in range(0, len(starts) - CHUNK_STEPS, CHUNK_STEPS):
            a, b = starts[j], starts[j + CHUNK_STEPS]
            rates.append((CHUNK_STEPS / (b - a), (a + b) / 2))
    return rates


@dataclass
class Command:
    start: float
    duration: float
    setup: float | None
    step_rates: list

    @property
    def middle(self) -> float:
        return self.start + self.duration / 2


class Session:
    """One benchmark run: the tracer, the samples and the op counts.

    A sample is a (value, time) pair; the time, a ``perf_counter`` reading
    in the middle of what was measured, places it between the reference
    loops that ran before and after it (see ``report.end_to_end``)."""

    def __init__(self, work: Path, seed: int, seconds: float, trace: bool, probes: tuple):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        # Untraced commands wrap only the calls that time setup and training.
        self.light_plan = dict.fromkeys(probes, SPAN)
        self.full_plan = full_plan() if trace else None
        self.tracer = Tracer()
        self.reference = Reference()
        self.samples: dict = defaultdict(list)
        self.traced_samples: dict = defaultdict(list)
        self.traced_runs: list = []
        self.recording = False  # True in the timed loop, after its warm-up iteration
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.peak_rss_mb = None
        self.synth_wd = None
        self.d = None  # column count of the workload's tables

    def path(self, name: str) -> str:
        return str(self.work / name)

    def command(self, argv: list, run: int, traced: bool = False) -> Command | None:
        """Run one CLI command under a root span; None if it did not exit 0.
        An untraced command's spans are dropped once its timings are taken."""
        self.attempted += 1
        plan = self.full_plan if traced else self.light_plan
        tracer = self.tracer
        first = len(tracer.spans)
        captured = io.StringIO()
        code = None
        gc.collect()  # no collection left over from earlier commands
        self.reference.run()
        with redirect_stdout(captured), redirect_stderr(captured):
            with tracer.installed(plan, run), tracer.root(f"cli.{argv[0]}") as root:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    captured.write(traceback.format_exc())
        later = tracer.spans[first + 1 :]
        work = next((s for s in later if s.name in WORK_STARTS), None)
        done = Command(
            start=root.start,
            duration=root.duration,
            setup=None if work is None else work.start - root.start,
            step_rates=step_rates(later),
        )
        if not traced:
            del tracer.spans[first:]
        if code != 0:
            self.fail([f"{argv[0]} exited {code!r}: {captured.getvalue().strip()[-500:]}"])
            return None
        return done

    def fail(self, problems: list) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def verify(self, inspect):
        """Run one operation's checks. ``inspect()`` returns (problems, value);
        the operation counts as failed if a check fails or its outputs cannot
        be read. Returns the value, or None on failure."""
        try:
            problems, value = inspect()
        except Exception:
            problems, value = [f"unreadable output: {traceback.format_exc(limit=2)}"], None
        if problems:
            self.fail(problems)
            return None
        return value

    def record(self, name: str, value: float, at: float, traced: bool = False) -> None:
        """Keep one sample taken at time ``at``; nothing during the warm-up."""
        if self.recording:
            (self.traced_samples if traced else self.samples)[name].append((value, at))

    def record_command(self, name: str, cmd: Command) -> None:
        """Keep an untraced command's duration and its set-up time."""
        self.record(f"{name}.duration", cmd.duration, cmd.middle)
        self.record(f"{name}.setup", cmd.setup, cmd.start + cmd.setup / 2)

    def loop(self, iteration) -> None:
        """Closed loop for ``seconds``: no iteration starts that the last one's
        duration says would end past the deadline. The first iteration is a
        warm-up whose checks run but whose timings are not kept. With
        tracing, odd iterations are traced and even ones are not, so the
        overhead compares neighbours."""
        start = time.perf_counter()
        minimum = 3 if self.trace else 2
        i = 0
        last = 0.0
        while i < minimum or time.perf_counter() - start + last <= self.seconds:
            traced = self.trace and i % 2 == 1
            if traced:
                self.traced_runs.append(i)
            self.recording = i > 0
            began = time.perf_counter()
            iteration(i, traced)
            last = time.perf_counter() - began
            i += 1
        self.reference.run()  # brackets the last command
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# shared pieces


def _write(values: np.ndarray, path: str) -> None:
    names = tuple(f"x{j + 1}" for j in range(values.shape[1]))
    tabular.write_csv(tabular.Table(names, values), path)


def _standardized(train_out: str, heldout: tabular.Table) -> np.ndarray:
    pre = tabular.load_preprocessor(f"{train_out}/preprocessor.json")
    return tabular.transform(pre, heldout).values


def _generate(s, model: str, n: int, out: str, run: int, traced: bool, extra=()):
    """``generate`` plus its row checks; returns (command, values) or None."""
    argv = ["generate", "--model", model, "--n", str(n), "--seed", GEN_SEED, *extra, "--out", out]
    cmd = s.command(argv, run, traced)
    if cmd is None:
        return None

    def inspect():
        values = checks.load_csv(f"{out}/synthetic.csv")
        return checks.generated_rows(values, n, s.d), (cmd, values)

    return s.verify(inspect)


def _evaluate(s, synthetic: str, test: str, out: str, run: int, traced: bool):
    """``evaluate`` plus the check of its wd against an independent one."""
    argv = ["evaluate", "--synthetic", synthetic, "--test", test, "--target", f"x{s.d}", "--out", out]
    cmd = s.command(argv, run, traced)
    if cmd is None:
        return None

    def inspect():
        payload = checks.load_json(f"{out}/metrics.json")
        return checks.metrics_wd(payload, checks.load_csv(synthetic), checks.load_csv(test)), cmd

    return s.verify(inspect)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class TrainSizes:
    n: int
    d: int
    steps: int
    heldout: int = 2000
    gen_rows: int = 5000
    eval_rows: int = 500


@dataclass(frozen=True)
class ReleaseSizes:
    n: int = 2000
    d: int = 10
    checkpoint_steps: int = 500
    large_rows: int = 25_000
    # Two shorter large generates rather than one long one: twice the
    # samples, each bracketed closely by reference passes.
    large_repeats: int = 2
    small_rows: int = 2000
    heldout: int = 2000


def _train_workload(s: Session, z: TrainSizes, flags: list, check) -> None:
    """Loop: train, generate ``gen_rows``, evaluate the first ``eval_rows``.
    ``synth_wd`` compares the first ``heldout`` generated rows with the
    held-out table.

    ``check(report, out)`` returns the problems of one train command."""
    s.d = z.d
    train, heldout = sem_tables(z.d, s.seed, z.n, z.heldout)
    data, out = s.path("data.csv"), s.path("train")
    tabular.write_csv(train, data)
    argv = ["train", "--data", data, "--out", out, *flags, "--batch", str(BATCH), "--t-g", str(T_G)]
    argv += ["--steps", str(z.steps), "--seed", TRAIN_SEED]
    synthetic, test = s.path("synthetic-head.csv"), s.path("heldout-head.csv")
    held = []

    def iteration(i: int, traced: bool) -> None:
        cmd = s.command(argv, i, traced)
        if cmd is None:
            return

        def inspect():
            report = checks.load_json(f"{out}/report.json")
            return check(report, out), report

        report = s.verify(inspect)
        if report is None:
            return
        if not held:  # the preprocessor is the same every repeat
            held.append(_standardized(out, heldout))
            _write(held[0][: z.eval_rows], test)
        generated = _generate(s, f"{out}/checkpoint.json", z.gen_rows, s.path("gen"), i, traced)
        if generated is None:
            return
        gen, values = generated
        _write(values[: z.eval_rows], synthetic)
        ev = _evaluate(s, synthetic, test, s.path("eval"), i, traced)
        if ev is None:
            return
        s.synth_wd = metrics.wd_table(values[: z.heldout], held[0])
        for rate, at in cmd.step_rates:
            s.record("train_steps_per_s", rate, at, traced)
        s.record("training.gen_updates", report["gen_updates"], cmd.middle, traced)
        if not traced:
            s.record_command("train", cmd)
            s.record("generate.duration", gen.duration, gen.middle)
            s.record("generate_rows_per_s", z.gen_rows / gen.duration, gen.middle)
            s.record("evaluate.duration", ev.duration, ev.middle)

    s.loop(iteration)


def train_private_d10(s: Session, z: TrainSizes) -> None:
    def check(report, out):
        problems = checks.epsilon(report, EPSILON, z.n, dp.account_report)
        return problems + checks.gen_updates(report, z.steps, T_G, phases=1)

    flags = ["--epsilon", str(EPSILON), "--delta", str(DELTA)]
    _train_workload(s, z, flags, check)


def train_twostep_d30(s: Session, z: TrainSizes) -> None:
    digests = []

    def check(report, out):
        digests.append(checks.sha256(f"{out}/checkpoint.json"))
        problems = checks.gen_updates(report, z.steps, T_G, phases=2)
        problems += checks.same_digest(digests[0], digests[-1], "checkpoint.json")
        return problems + checks.frozen_rows_zero(checks.load_json(f"{out}/checkpoint.json"))

    _train_workload(s, z, ["--two-step", "--sigma", "0"], check)


def release_d10(s: Session, z: ReleaseSizes) -> None:
    s.d = z.d
    train, heldout = sem_tables(z.d, s.seed, z.n, z.heldout)
    data, model_dir = s.path("data.csv"), s.path("model")
    tabular.write_csv(train, data)
    argv = ["train", "--data", data, "--out", model_dir, "--sigma", "0", "--batch", str(BATCH)]
    argv += ["--t-g", str(T_G), "--steps", str(z.checkpoint_steps), "--seed", TRAIN_SEED]
    digests = []

    def train_checkpoint() -> bool:
        cmd = s.command(argv, SETUP_RUN)
        if cmd is None:
            return False

        def inspect():
            report = checks.load_json(f"{model_dir}/report.json")
            digests.append(checks.sha256(f"{model_dir}/checkpoint.json"))
            problems = checks.gen_updates(report, z.checkpoint_steps, T_G, phases=1)
            return problems + checks.same_digest(digests[0], digests[-1], "checkpoint.json"), report

        report = s.verify(inspect)
        if report is not None:
            for rate, at in cmd.step_rates:
                s.record("train_steps_per_s", rate, at)
        return report is not None

    if not train_checkpoint():
        return
    held = _standardized(model_dir, heldout)
    test = s.path("heldout.csv")
    _write(held, test)
    model, pre = f"{model_dir}/checkpoint.json", f"{model_dir}/preprocessor.json"
    small_csv = s.path("small/synthetic.csv")

    def iteration(i: int, traced: bool) -> None:
        # Rebuilding the checkpoint samples the training rate across the run;
        # it is untraced, outside wall_s, and must match the first byte for byte.
        train_checkpoint()
        bigs = [
            _generate(s, model, z.large_rows, s.path("large"), i, traced, ("--preprocessor", pre))
            for _ in range(z.large_repeats)
        ]
        small = _generate(s, model, z.small_rows, s.path("small"), i, traced)
        ev = _evaluate(s, small_csv, test, s.path("eval"), i, traced)
        if any(big is None for big in bigs) or small is None or ev is None:
            return
        bigs = [big for big, _ in bigs]
        small, values = small
        s.synth_wd = metrics.wd_table(values, held)
        s.record("iteration_s", sum(b.duration for b in bigs) + small.duration + ev.duration, bigs[0].start, traced)
        if not traced:
            for big in bigs:
                s.record_command("generate-large", big)
                s.record("generate_rows_per_s", z.large_rows / big.duration, big.middle)
            s.record_command("generate-small", small)
            s.record("evaluate.duration", ev.duration, ev.middle)

    s.loop(iteration)


WORKLOADS = {
    "train-private-d10": (train_private_d10, TrainSizes(n=12_384, d=10, steps=500), TRAIN_PROBES),
    "train-twostep-d30": (train_twostep_d30, TrainSizes(n=2000, d=30, steps=125), TRAIN_PROBES),
    "release-d10": (release_d10, ReleaseSizes(), TRAIN_PROBES + ("models.sample_batch",)),
}

SMOKE_SIZES = {
    "train-private-d10": TrainSizes(n=400, d=10, steps=30, heldout=200, gen_rows=300, eval_rows=60),
    "train-twostep-d30": TrainSizes(n=300, d=30, steps=30, heldout=200, gen_rows=300, eval_rows=60),
    "release-d10": ReleaseSizes(n=300, checkpoint_steps=30, large_rows=1000, small_rows=200, heldout=200),
}
