"""Benchmark harness for tracersep: three closed-loop workloads, output
checks, a traced per-layer run and a compare mode. See README.md."""
