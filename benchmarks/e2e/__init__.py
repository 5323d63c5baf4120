"""T-E2E: one benchmark for the whole gprof loop, broken down by layer.

Rel source -> -O2 compile with monitoring prologues -> profiled VM run
-> gmon write -> multi-run merge -> the nine §4 stages -> flat and
call-graph listings, measured end to end on four workloads and
attributed to layers by spans around each layer's public calls.  See
README.md in this directory.
"""
