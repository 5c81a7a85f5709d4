"""Benchmark of the goesv command line: workloads, tracing and checks."""
