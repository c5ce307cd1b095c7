"""URL-addressed bucket data.

Persisted buckets are named by URL (section IV-B): ``file:`` URLs point
at any mounted filesystem (NFS, Lustre, local disk); ``http://`` URLs
point at a slave's built-in data server for direct peer transfer.  A
task streams each input URL through :func:`iter_pairs` or
:func:`iter_records` (by way of :mod:`repro.io.bucket`'s readers)
without caring which transport backs it.

HTTP fetches ride the transfer plane (:mod:`repro.comm.transfer`):
pooled keep-alive connections, one retry/timeout policy, negotiated
compression, and response bodies streamed straight into the
format readers — so remote buckets take the same canonical-key-bytes
fast path as local files instead of being materialized and re-encoded.
"""

from __future__ import annotations

import urllib.parse
from typing import Any, Iterator, List, Optional, Tuple

from repro.comm.transfer import (  # noqa: F401  (FetchError re-exported)
    FetchError,
    fetch_pair_stream,
    fetch_record_stream,
)
from repro.io import formats

KeyValue = Tuple[Any, Any]
Record = Tuple[bytes, KeyValue]


def parse(url: str) -> urllib.parse.ParseResult:
    return urllib.parse.urlparse(url)


def path_of_file_url(url: str) -> str:
    parsed = parse(url)
    if parsed.scheme not in ("", "file"):
        raise ValueError(f"not a file url: {url}")
    # 'file:/abs/path' and 'file:///abs/path' both resolve to the path.
    return parsed.path or parsed.netloc


def _open(
    url: str,
    key_serializer: Optional[str],
    value_serializer: Optional[str],
    records: bool,
) -> Iterator[Any]:
    """Stream what is behind ``url``: plain pairs, or with ``records``
    the decorated ``(keybytes, pair)`` form.  The one place a URL's
    scheme picks its transport."""
    scheme = parse(url).scheme
    if scheme in ("", "file"):
        path = path_of_file_url(url)
        with open(path, "rb") as f:
            reader = formats.open_reader(path, f, key_serializer, value_serializer)
            yield from reader.iter_records() if records else reader
    elif scheme in ("http", "https"):
        fetch = fetch_record_stream if records else fetch_pair_stream
        yield from fetch(url, key_serializer, value_serializer)
    else:
        raise ValueError(f"unsupported url scheme {scheme!r} in {url}")


def fetch_pairs(
    url: str,
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
) -> List[KeyValue]:
    """Fetch and decode all key-value pairs behind ``url``.

    ``key_serializer``/``value_serializer`` name registered serializers
    for binary-format data written with non-default codecs.
    """
    return list(iter_pairs(url, key_serializer, value_serializer))


def iter_pairs(
    url: str,
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
) -> Iterator[KeyValue]:
    """Iterate the pairs behind ``url`` without materializing a list.

    ``file:`` URLs stream record by record straight off the reader;
    HTTP URLs stream straight off the socket through the transfer
    plane, which resumes a mid-stream failure by refetching and
    skipping already-delivered records — so a consumer that merges or
    filters never holds the whole bucket in memory on either transport.
    """
    return _open(url, key_serializer, value_serializer, records=False)


def iter_records(
    url: str,
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
) -> Iterator[Record]:
    """Iterate decorated ``(keybytes, pair)`` records behind ``url``.

    Like :func:`iter_pairs`, but each pair arrives with its canonical
    key bytes.  Binary readers rebuild the bytes straight from the wire
    encoding when the key serializer is canonical (see
    ``Serializer.canonical_key_tag``) — over *both* transports: remote
    buckets feed ``BinReader.iter_records`` directly off the socket, so
    canonical bytes are sliced from the wire without a detour through a
    materialized pair list.  Every other source re-encodes each key
    exactly once (``Reader.iter_records``).
    """
    return _open(url, key_serializer, value_serializer, records=True)
