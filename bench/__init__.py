"""The one benchmark for Mrs.

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the real runtimes, checks its outputs, and
prints the metrics ``BENCHMARK.json`` names.  ``bench/README.md`` says
what each workload and metric is for and how to read the output.
"""
