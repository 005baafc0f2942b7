"""dpsynth benchmark: workloads, tracing and output checks (see README.md)."""
