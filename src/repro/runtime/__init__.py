"""Runtime implementations (section IV-A).

Five execution contexts run the *same* program with identical results:

* ``serial`` — everything sequential and deterministic in one process.
* ``bypass`` — calls the program's ``bypass`` method, skipping Mrs.
* ``mockparallel`` — the master/slave task decomposition on one
  processor, with all intermediate data forced through files.
* ``multiprocess`` — a master with ``--mrs-procs`` slaves forked from
  it (XML-RPC control plane, shared-tmpdir file data plane): true
  single-node parallelism without any cluster setup.
* ``master``/``slave`` — the distributed implementation (XML-RPC
  control plane, file or HTTP data plane).

"Differences in behavior between any two implementations, even in
stochastic algorithms, indicate a bug in the program or possibly in
Mrs" — the test suite enforces exactly this equivalence.
"""
