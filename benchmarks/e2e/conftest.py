"""Make the checkout's ``src/`` importable for the benchmark's own tests."""

from benchmarks.e2e.harness import bootstrap

bootstrap()
