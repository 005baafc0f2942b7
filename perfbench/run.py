"""dpsynth benchmark: one workload per process, closed loop, one command at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-private-d10 --seed 1 --seconds 40 --trace 0

Workloads: train-private-d10, train-twostep-d30, release-d10 (see README.md).
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of the traced iterations. The
line before it records the machine and the per-metric sample counts.
Scratch files go to ``.perfbench_runs/`` in the checkout and are removed at
the end; a traced run leaves its span log there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
BLAS_THREADS = "1"  # small-matrix numpy work; one thread keeps timings steady
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARIABLES},
        "cpu": platform.processor() or platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "dpsynth" / "__init__.py").is_file():
        print(f"error: no dpsynth sources under {SOURCE}", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("error: --seconds must be >= 0", file=sys.stderr)
        return 2
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SOURCE), str(ROOT)]

    import dpsynth

    if Path(dpsynth.__file__).resolve().parent != SOURCE / "dpsynth":
        print(f"error: imported dpsynth from {dpsynth.__file__}, not {SOURCE}", file=sys.stderr)
        return 2

    from perfbench import hostspeed, report, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    body, sizes, probes = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    session = workloads.Session(work, args.seed, args.seconds, bool(args.trace), probes)
    body(session, sizes)

    shutil.rmtree(work)  # the tables and CLI outputs; only a span log stays
    if args.trace:
        work.mkdir()
        with open(work / "spans.jsonl", "w") as fh:
            for s in session.tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run]) + "\n")
        metrics = report.per_layer(session)
    else:
        metrics = report.end_to_end(session)
    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    host = {"speed": session.reference.speed(), "nominal_reference_s": hostspeed.NOMINAL_SECONDS}
    samples = report.sample_summary(session)
    print(json.dumps({"workload": args.workload, "machine": machine(args.seed), "host": host, "samples": samples}))
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
