"""The five workloads, by the names ``BENCHMARK.json`` gives them."""

from bench.workloads.pso_iter import PsoIter
from bench.workloads.sort_http import SortHttp
from bench.workloads.svc_mixed import SvcMixed
from bench.workloads.tsqr_direct import TsqrDirect
from bench.workloads.wc_zipf import WcZipf

WORKLOADS = {w.name: w for w in (WcZipf, SortHttp, PsoIter, TsqrDirect, SvcMixed)}
