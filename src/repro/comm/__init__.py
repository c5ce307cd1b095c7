"""Communication substrate (section IV-B).

Control plane: XML-RPC over HTTP (:mod:`repro.comm.rpc`), chosen by the
paper "because it is included in the Python standard library even
though other protocols are more efficient".  Data plane: either a
shared filesystem (``file:`` URLs) or direct slave-to-slave transfer
served by a built-in HTTP server (:mod:`repro.comm.dataserver`).
Event wakeups use pipes (:mod:`repro.comm.wakeup`), mirroring the
paper's "writing a single byte to a pipe wakes up poll".

Bucket *fetches* ride the transfer plane (:mod:`repro.comm.transfer`):
pooled keep-alive connections, inputs opened in parallel, and
streaming, optionally compressed responses.
"""

from repro.comm.rpc import RpcServer, rpc_client, parse_address, format_address
from repro.comm.dataserver import DataServer
from repro.comm.transfer import ConnectionPool, FetchError, FetchPolicy
from repro.comm.wakeup import Wakeup

__all__ = [
    "RpcServer",
    "rpc_client",
    "parse_address",
    "format_address",
    "DataServer",
    "ConnectionPool",
    "FetchError",
    "FetchPolicy",
    "Wakeup",
]
