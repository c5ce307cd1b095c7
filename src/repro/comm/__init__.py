"""Communication substrate (section IV-B).

Control plane: XML-RPC over HTTP (:mod:`repro.comm.rpc`), chosen by the
paper "because it is included in the Python standard library even
though other protocols are more efficient".  Data plane: either a
shared filesystem (``file:`` URLs) or direct slave-to-slave transfer
served by a built-in HTTP server (:mod:`repro.comm.dataserver`).
Every server is a request handler on the one keep-alive
:class:`~repro.comm.listener.Listener`, and both planes' calls and
fetches go through one HTTP client, :mod:`repro.comm.transfer`'s
``ConnectionPool``: pooled keep-alive connections, and for fetches,
inputs opened in parallel and streaming, optionally compressed responses.
"""
