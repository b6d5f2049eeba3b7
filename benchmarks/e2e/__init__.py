"""End-to-end benchmark: train, monitor, sharded monitor and serve.

Run ``python -m benchmarks.e2e --help`` from the repository root; the
README next to this file describes the workloads and metrics.
"""
