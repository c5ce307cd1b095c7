"""Record file formats.

Three formats, mirroring Mrs:

* **Text** (``.txt``, ``.mtxt``): one record per line.  Reading yields
  ``(line_number, line)`` pairs — the WordCount input convention where
  "the input key is ignored but generally arbitrarily set to be the
  line number".  Writing renders ``key<TAB>value`` lines.
* **Bin** (``.mrsb``): length-prefixed binary records with pluggable
  key/value serializers; the default intermediate format because it
  round-trips arbitrary Python objects.
* **Hex** (``.mrsx``): hex-encoded binary, one record per line; slower
  but grep-able, kept for debuggability of mock-parallel runs.

``reader_for``/``writer_for`` select a format class from a path's
extension, defaulting to text for unknown extensions (so arbitrary
corpus files are readable as lines).
"""

from __future__ import annotations

import binascii
import io
import os
import struct
from itertools import repeat
from typing import Any, BinaryIO, Iterable, Iterator, List, Optional, Tuple

from repro.io.serializers import (
    Serializer,
    dumps_parts_for,
    get_serializer,
    loads_view_for,
)

KeyValue = Tuple[Any, Any]


class Writer:
    """Base class for record writers over a binary file object."""

    def __init__(self, fileobj: BinaryIO):
        self.fileobj = fileobj

    def writepair(self, pair: KeyValue) -> None:
        raise NotImplementedError

    def writepairs(self, pairs: Iterable[KeyValue]) -> None:
        """Write a batch of pairs.

        The base implementation loops :meth:`writepair`; formats with a
        cheap batch encoding override this to serialize the whole batch
        into one buffer and pay a single file write.
        """
        for pair in pairs:
            self.writepair(pair)

    def finish(self) -> None:
        """Flush buffered data without closing the underlying file."""
        self.fileobj.flush()

    def close(self) -> None:
        self.finish()
        self.fileobj.close()

    def __enter__(self) -> "Writer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Reader:
    """Base class for record readers: iterate to get key-value pairs."""

    def __init__(self, fileobj: BinaryIO):
        self.fileobj = fileobj

    def __iter__(self) -> Iterator[KeyValue]:
        raise NotImplementedError

    def iter_records(self) -> Iterator[Tuple[bytes, KeyValue]]:
        """Decorated ``(keybytes, pair)`` records: each key is encoded
        exactly once here (:class:`BinReader` instead rebuilds the bytes
        from the wire encoding when the key serializer is canonical)."""
        from repro.util.hashing import key_to_bytes

        for pair in self:
            yield key_to_bytes(pair[0]), pair

    def close(self) -> None:
        self.fileobj.close()

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TextWriter(Writer):
    """``key<TAB>value`` lines; the standard human-readable output."""

    ext = "txt"

    def writepair(self, pair: KeyValue) -> None:
        key, value = pair
        line = f"{key}\t{value}\n"
        self.fileobj.write(line.encode("utf-8"))

    def writepairs(self, pairs: Iterable[KeyValue]) -> None:
        self.fileobj.write(
            "".join(f"{key}\t{value}\n" for key, value in pairs).encode("utf-8")
        )


class TextReader(Reader):
    """Yield ``(line_number, line_without_newline)`` for each line."""

    ext = "txt"

    def __iter__(self) -> Iterator[KeyValue]:
        for lineno, raw in enumerate(self.fileobj):
            yield lineno, raw.decode("utf-8", errors="replace").rstrip("\r\n")


_LEN_STRUCT = struct.Struct("!II")
_BIN_MAGIC = b"MRSB\x01"
#: Read granularity for streaming record iteration (and the writer's
#: flush size): large enough that per-record costs are slicing, small
#: enough to keep merges O(1)-ish in memory.
_READ_CHUNK = 1 << 20
#: The ``!II`` framing caps each encoded key and value at 2^32 - 1
#: bytes.  The writer checks explicitly and raises a ValueError naming
#: the record, instead of letting ``struct.error: argument out of
#: range`` escape with no hint of which record overflowed.
FRAME_LIMIT = 0xFFFFFFFF
#: Value parts at least this large are written directly (scatter) on
#: the zero-copy path; smaller parts coalesce into the batch buffer.
_SCATTER_MIN = 1 << 16


def _part_nbytes(part: Any) -> int:
    # memoryview length is in *items*, not bytes, unless cast to 'B'.
    return part.nbytes if isinstance(part, memoryview) else len(part)


class BinWriter(Writer):
    """Length-prefixed binary records with named serializers.

    Layout: magic, then per record ``!II`` (key length, value length)
    followed by the encoded key and value bytes.
    """

    ext = "mrsb"

    def __init__(
        self,
        fileobj: BinaryIO,
        key_serializer: Optional[Serializer] = None,
        value_serializer: Optional[Serializer] = None,
    ):
        super().__init__(fileobj)
        self.key_s = key_serializer or get_serializer(None)
        self.value_s = value_serializer or get_serializer(None)
        #: Zero-copy value encoder, or None for the plain dumps path.
        #: Resolved once per writer: the knob is process-wide and
        #: writers are short-lived.
        self._value_parts = dumps_parts_for(self.value_s)
        self.fileobj.write(_BIN_MAGIC)

    def writepair(self, pair: KeyValue) -> None:
        self.writepairs([pair])

    def writepairs(self, pairs: Iterable[KeyValue]) -> None:
        """Serialize a batch of pairs, every key through ``dumps``."""
        self._write(zip(repeat(None), pairs), None)

    def writerecords(self, records: Iterable[Tuple[bytes, KeyValue]]) -> None:
        """Batch-write decorated ``(keybytes, (key, value))`` records.

        When the key serializer is canonical (its wire bytes are the
        canonical key encoding minus the type tag), the serialized key
        is sliced straight out of the cached key bytes — the pipeline's
        one encode per key also covers serialization.  Non-matching
        keys (or non-canonical serializers) go through ``dumps``, which
        preserves the serializer's type errors.  Output is byte-for-byte
        identical to :meth:`writepairs` over the same pairs.
        """
        self._write(records, getattr(self.key_s, "canonical_key_tag", None))

    def _write(
        self, records: Iterable[Tuple[Optional[bytes], KeyValue]],
        tag: Optional[bytes],
    ) -> None:
        """The one ``.mrsb`` encode loop.

        A key's wire bytes are its cached key bytes minus ``tag`` when
        they start with it, else ``key_dumps(key)``.  Frames coalesce
        into one buffer written every ``_READ_CHUNK`` bytes.  Values
        whose serializer implements ``dumps_parts`` (zero-copy knob on)
        are scatter-written: parts of at least ``_SCATTER_MIN`` bytes go
        straight to the file object, which hands buffers above its own
        block size to the OS untouched — a multi-megabyte array block
        reaches the page cache without ever being copied into an
        intermediate ``bytes``.  Either way the bytes are identical.
        """
        key_dumps = self.key_s.dumps
        value_dumps = self.value_s.dumps
        value_parts = self._value_parts
        taglen = len(tag) if tag is not None else 0
        pack = _LEN_STRUCT.pack
        write = self.fileobj.write
        chunks: List[Any] = []
        append = chunks.append
        pending = 0
        for keybytes, (key, value) in records:
            if tag is not None and keybytes.startswith(tag):
                kb = keybytes[taglen:]
            else:
                kb = key_dumps(key)
            if value_parts is None:
                parts = None
                vb = value_dumps(value)
                vlen = len(vb)
            else:
                parts = value_parts(value)
                vlen = sum(map(_part_nbytes, parts))
            klen = len(kb)
            if klen > FRAME_LIMIT or vlen > FRAME_LIMIT:
                side, size = ("key", klen) if klen > vlen else ("value", vlen)
                raise ValueError(
                    f"record {side} for key {key!r} is {size} bytes, which "
                    f"exceeds the .mrsb frame limit of {FRAME_LIMIT} bytes "
                    f"({size - FRAME_LIMIT} over); split the value into "
                    f"smaller blocks"
                )
            append(pack(klen, vlen))
            append(kb)
            if parts is None:
                append(vb)
                pending += klen + vlen
            else:
                for part in parts:
                    nbytes = _part_nbytes(part)
                    if nbytes < _SCATTER_MIN:
                        append(part)
                        pending += nbytes
                        continue
                    write(b"".join(chunks))
                    chunks.clear()
                    pending = 0
                    write(part)
            if pending >= _READ_CHUNK:
                write(b"".join(chunks))
                chunks.clear()
                pending = 0
        if chunks:
            write(b"".join(chunks))


def _frames(buf: Any, pos: int) -> Iterator[Tuple[int, int, int]]:
    """``(key_start, value_start, value_end)`` of each complete record
    in ``buf[pos:]``, lazily."""
    header_size = _LEN_STRUCT.size
    unpack_from = _LEN_STRUCT.unpack_from
    end = len(buf)
    while pos + header_size <= end:
        klen, vlen = unpack_from(buf, pos)
        vstart = pos + header_size + klen
        vend = vstart + vlen
        if vend > end:
            return
        yield pos + header_size, vstart, vend
        pos = vend


class BinReader(Reader):
    ext = "mrsb"

    def __init__(
        self,
        fileobj: BinaryIO,
        key_serializer: Optional[Serializer] = None,
        value_serializer: Optional[Serializer] = None,
        use_mmap: bool = False,
    ):
        super().__init__(fileobj)
        self.key_s = key_serializer or get_serializer(None)
        self.value_s = value_serializer or get_serializer(None)
        #: Zero-copy value decoder, or None for the plain loads path.
        self._value_view = loads_view_for(self.value_s)
        magic = self.fileobj.read(len(_BIN_MAGIC))
        if magic != _BIN_MAGIC:
            raise ValueError(f"not a BinWriter file (magic={magic!r})")
        self._mmap = None
        self._mview: Optional[memoryview] = None
        if use_mmap and self._value_view is not None:
            self._try_mmap()

    def _try_mmap(self) -> None:
        """Map the file read-only; silently stay on the streaming path
        for non-file objects (sockets, BytesIO) or empty files.  Only
        readers whose values decode as views map: a copy out of the map
        saves nothing over a copy out of a read."""
        import mmap

        try:
            fileno = self.fileobj.fileno()
            if os.fstat(fileno).st_size <= len(_BIN_MAGIC):
                return
            self._mmap = mmap.mmap(fileno, 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError, io.UnsupportedOperation):
            self._mmap = None
            return
        self._mview = memoryview(self._mmap)

    def close(self) -> None:
        mview, self._mview = self._mview, None
        mapped, self._mmap = self._mmap, None
        if mview is not None:
            try:
                mview.release()
            except ValueError:
                pass
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:
                # Zero-copy value views handed to the consumer still
                # reference the map; the OS unmaps when the last view
                # is garbage-collected.
                pass
        super().close()

    def __iter__(self) -> Iterator[KeyValue]:
        return self._walk(decorate=False)

    def iter_records(self) -> Iterator[Tuple[bytes, KeyValue]]:
        """Iterate decorated ``(keybytes, (key, value))`` records.

        When the key serializer's wire bytes coincide with the
        canonical key encoding (``canonical_key_tag``), the cached key
        bytes are rebuilt by concatenation — the encode-once pipeline's
        key bytes survive the round-trip through the file.  Otherwise
        each key is re-encoded once here (the minimum possible).
        """
        return self._walk(decorate=True)

    def _walk(self, decorate: bool) -> Iterator[Any]:
        """The one ``.mrsb`` decoder: pairs, or with ``decorate`` the
        ``(keybytes, pair)`` records of :meth:`iter_records`.

        Records are parsed out of windows — ``_READ_CHUNK`` reads joined
        to the previous window's partial tail — so per-record cost is a
        pair of slices and memory stays bounded by the window, which is
        what lets a merge stream its inputs.  A record larger than the
        window is completed with one sized read and one join.  In mmap
        mode the whole mapping is the one window: slicing the mmap
        copies each key out as ``bytes``, and values decode as views
        over the map (``loads_view``).
        """
        from repro.util.hashing import key_to_bytes

        key_loads = self.key_s.loads
        tag = getattr(self.key_s, "canonical_key_tag", None)
        if self._mview is not None:
            keys, values, value_loads = self._mmap, self._mview, self._value_view
            pos, read = len(_BIN_MAGIC), None
        else:
            keys = values = b""
            value_loads = self.value_s.loads
            pos, read = 0, self.fileobj.read
        header_size = _LEN_STRUCT.size
        while True:
            if read is not None:
                chunk = read(_READ_CHUNK)
                if not chunk:
                    break
                tail = keys[pos:]
                if tail:
                    parts = [tail, chunk]
                    avail = len(tail) + len(chunk)
                    if avail >= header_size:
                        klen, vlen = _LEN_STRUCT.unpack_from(
                            tail if len(tail) >= header_size
                            else tail + chunk[:header_size]
                        )
                        missing = header_size + klen + vlen - avail
                        if missing > 0:
                            parts.append(read(missing))
                    chunk = b"".join(parts)
                keys = values = chunk
                pos = 0
            # ``pos`` ends on the first byte of the window not decoded.
            for kstart, vstart, pos in _frames(keys, pos):
                kb = keys[kstart:vstart]
                key = key_loads(kb)
                value = value_loads(values[vstart:pos])
                if not decorate:
                    yield key, value
                elif tag is not None:
                    yield tag + kb, (key, value)
                else:
                    yield key_to_bytes(key), (key, value)
            if read is None:
                break
        if pos != len(keys):
            raise ValueError("truncated record")


class HexWriter(Writer):
    """Hex-encoded pickled records, one per line — grep-able binary."""

    ext = "mrsx"

    def __init__(self, fileobj: BinaryIO):
        super().__init__(fileobj)
        self.serializer = get_serializer(None)

    def writepair(self, pair: KeyValue) -> None:
        key, value = pair
        kb = binascii.hexlify(self.serializer.dumps(key))
        vb = binascii.hexlify(self.serializer.dumps(value))
        self.fileobj.write(kb + b" " + vb + b"\n")


class HexReader(Reader):
    ext = "mrsx"

    def __init__(self, fileobj: BinaryIO):
        super().__init__(fileobj)
        self.serializer = get_serializer(None)

    def __iter__(self) -> Iterator[KeyValue]:
        for lineno, line in enumerate(self.fileobj):
            line = line.strip()
            if not line:
                continue
            try:
                khex, vhex = line.split(b" ", 1)
            except ValueError:
                raise ValueError(f"malformed hex record on line {lineno}") from None
            yield (
                self.serializer.loads(binascii.unhexlify(khex)),
                self.serializer.loads(binascii.unhexlify(vhex)),
            )


class ZipReader(Reader):
    """Read every text member of a zip archive as line records.

    Project Gutenberg distributes books as individual zip files; Mrs
    "can read and write to any filesystem" and any format with a
    registered reader.  Keys are ``(member_name, line_number)`` so the
    member provenance survives into the map function.
    """

    ext = "zip"

    def __iter__(self) -> Iterator[KeyValue]:
        import zipfile

        with zipfile.ZipFile(self.fileobj) as archive:
            for name in sorted(archive.namelist()):
                if name.endswith("/"):
                    continue  # directory entry
                with archive.open(name) as member:
                    for lineno, raw in enumerate(member):
                        yield (
                            (name, lineno),
                            raw.decode("utf-8", errors="replace").rstrip("\r\n"),
                        )


_WRITERS = {
    "txt": TextWriter,
    "mtxt": TextWriter,
    "mrsb": BinWriter,
    "mrsx": HexWriter,
}

_READERS = {
    "txt": TextReader,
    "mtxt": TextReader,
    "mrsb": BinReader,
    "mrsx": HexReader,
    "zip": ZipReader,
}


def _extension(path: str) -> str:
    name = path.rsplit("/", 1)[-1]
    if "." not in name:
        return ""
    return name.rsplit(".", 1)[1].lower()


def writer_for(path: str) -> type:
    """Return the writer class for ``path`` based on its extension."""
    return _WRITERS.get(_extension(path), TextWriter)


def reader_for(path: str) -> type:
    """Return the reader class for ``path`` based on its extension.

    Unknown extensions read as text, which lets a job consume arbitrary
    corpus files (``.html``, bare names, etc.) as line records.
    """
    return _READERS.get(_extension(path), TextReader)


def open_reader(
    path: str,
    fileobj: BinaryIO,
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
) -> Reader:
    """The reader for ``path``'s format over ``fileobj``, passing the
    named serializers where supported.

    Only the binary format has pluggable serializers; text and hex
    readers have fixed encodings.  When the value serializer supports
    zero-copy decoding (``loads_view``) and the zero-copy knob is on,
    binary readers open in mmap mode: values decode as views over the
    page cache instead of copies (sockets and other non-file objects
    stay on the streaming path).
    """
    reader_cls = reader_for(path)
    if issubclass(reader_cls, BinReader) and (key_serializer or value_serializer):
        value_s = get_serializer(value_serializer)
        return reader_cls(
            fileobj,
            key_serializer=get_serializer(key_serializer),
            value_serializer=value_s,
            use_mmap=loads_view_for(value_s) is not None,
        )
    return reader_cls(fileobj)


def default_read_pairs(path: str) -> Iterator[KeyValue]:
    """Convenience: open ``path`` and yield its records."""
    with open(path, "rb") as f:
        yield from reader_for(path)(f)
