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
from typing import Any, BinaryIO, Iterable, Iterator, List, Optional, Tuple

from repro.io.serializers import (
    Serializer,
    dumps_parts_for,
    get_serializer,
    loads_view_for,
)
from repro.native import kernels as _nk

KeyValue = Tuple[Any, Any]


def _native_kernels():
    """The shared native kernels, or ``None`` (mode-aware, cached)."""
    return _nk.get()


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
#: Read granularity for streaming record iteration: large enough that
#: per-record costs are slicing, small enough to keep merges O(1)-ish
#: in memory.
_READ_CHUNK = 1 << 20
#: The ``!II`` framing caps each encoded key and value at 2^32 - 1
#: bytes.  Writers check explicitly and raise a ValueError naming the
#: record, instead of letting ``struct.error: argument out of range``
#: escape with no hint of which record overflowed.
FRAME_LIMIT = 0xFFFFFFFF
#: Value parts at least this large are written directly (scatter) on
#: the zero-copy path; smaller parts coalesce into the batch buffer.
_SCATTER_MIN = 1 << 16


def _frame_limit_error(key: Any, klen: int, vlen: int) -> ValueError:
    side, size = ("key", klen) if klen > FRAME_LIMIT else ("value", vlen)
    return ValueError(
        f"record {side} for key {key!r} is {size} bytes, which exceeds "
        f"the .mrsb frame limit of {FRAME_LIMIT} bytes ({size - FRAME_LIMIT} "
        f"over); split the value into smaller blocks"
    )


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
        key, value = pair
        kb = self.key_s.dumps(key)
        if self._value_parts is not None:
            self._scatter([(key, kb, self._value_parts(value))])
            return
        vb = self.value_s.dumps(value)
        if len(kb) > FRAME_LIMIT or len(vb) > FRAME_LIMIT:
            raise _frame_limit_error(key, len(kb), len(vb))
        self.fileobj.write(_LEN_STRUCT.pack(len(kb), len(vb)))
        self.fileobj.write(kb)
        self.fileobj.write(vb)

    def _scatter(
        self, items: Iterable[Tuple[Any, bytes, Tuple[Any, ...]]]
    ) -> None:
        """Write ``(key, keybytes, value_parts)`` items without joining.

        Small parts (headers, framing) coalesce into a batch buffer;
        large parts go straight to the file object, which hands buffers
        above its own block size to the OS untouched — a multi-megabyte
        array block reaches the page cache without ever being copied
        into an intermediate ``bytes``.  Output is byte-for-byte
        identical to the ``dumps`` path.
        """
        pack = _LEN_STRUCT.pack
        write = self.fileobj.write
        chunks: List[Any] = []
        append = chunks.append
        pending = 0
        for key, kb, parts in items:
            vlen = sum(_part_nbytes(part) for part in parts)
            klen = len(kb)
            if klen > FRAME_LIMIT or vlen > FRAME_LIMIT:
                raise _frame_limit_error(key, klen, vlen)
            append(pack(klen, vlen))
            append(kb)
            pending += _LEN_STRUCT.size + klen
            for part in parts:
                nbytes = _part_nbytes(part)
                if nbytes >= _SCATTER_MIN:
                    if chunks:
                        write(b"".join(chunks))
                        chunks.clear()
                        pending = 0
                    write(part)
                else:
                    append(part)
                    pending += nbytes
            if pending >= _READ_CHUNK:
                write(b"".join(chunks))
                chunks.clear()
                pending = 0
        if chunks:
            write(b"".join(chunks))

    def writepairs(self, pairs: Iterable[KeyValue]) -> None:
        """Serialize a whole batch into one buffer and write it once.

        Byte-for-byte identical to looping :meth:`writepair`; only the
        number of file-object calls changes (3 per pair → 1 per batch).
        """
        key_dumps = self.key_s.dumps
        if self._value_parts is not None:
            value_parts = self._value_parts
            self._scatter(
                (key, key_dumps(key), value_parts(value))
                for key, value in pairs
            )
            return
        value_dumps = self.value_s.dumps
        pack = _LEN_STRUCT.pack
        chunks: List[bytes] = []
        append = chunks.append
        key = None
        kb = vb = b""
        try:
            for key, value in pairs:
                kb = key_dumps(key)
                vb = value_dumps(value)
                append(pack(len(kb), len(vb)))
                append(kb)
                append(vb)
        except struct.error:
            # ``pack`` overflowed the !II framing — unless the error
            # came from inside a serializer, in which case let it out.
            if len(kb) > FRAME_LIMIT or len(vb) > FRAME_LIMIT:
                raise _frame_limit_error(key, len(kb), len(vb)) from None
            raise
        self.fileobj.write(b"".join(chunks))

    def writerecords(self, records: Iterable[Tuple[bytes, KeyValue]]) -> None:
        """Batch-write decorated ``(keybytes, (key, value))`` records.

        When the key serializer is canonical (its wire bytes are the
        canonical key encoding minus the type tag), the serialized key
        is sliced straight out of the cached key bytes — the pipeline's
        one encode per key also covers serialization.  Non-matching
        keys (or non-canonical serializers) go through ``dumps``, which
        preserves the serializer's type errors.  Output is byte-for-byte
        identical to looping :meth:`writepair`.

        Values whose serializer implements ``dumps_parts`` (and the
        zero-copy knob is on) take the scatter-write path instead of
        being joined into the batch buffer.
        """
        tag = getattr(self.key_s, "canonical_key_tag", None)
        key_dumps = self.key_s.dumps
        if self._value_parts is not None:
            value_parts = self._value_parts
            taglen = len(tag) if tag is not None else 0

            def items():
                for keybytes, pair in records:
                    if tag is not None and keybytes.startswith(tag):
                        kb = keybytes[taglen:]
                    else:
                        kb = key_dumps(pair[0])
                    yield pair[0], kb, value_parts(pair[1])

            self._scatter(items())
            return
        if tag is None:
            self.writepairs([record[1] for record in records])
            return
        taglen = len(tag)
        value_dumps = self.value_s.dumps
        native = _native_kernels()
        if native is not None:
            # Batch framing in C: serialize keys/values into two column
            # lists, then one kernel call lays out every length prefix
            # and body (identical bytes to the pure loop below).
            kbs: List[bytes] = []
            vbs: List[bytes] = []
            kappend = kbs.append
            vappend = vbs.append
            for keybytes, pair in records:
                if keybytes.startswith(tag):
                    kappend(keybytes[taglen:])
                else:
                    kappend(key_dumps(pair[0]))
                vappend(value_dumps(pair[1]))
            if kbs and (
                max(map(len, kbs)) > FRAME_LIMIT
                or max(map(len, vbs)) > FRAME_LIMIT
            ):
                for kb, vb in zip(kbs, vbs):
                    if len(kb) > FRAME_LIMIT or len(vb) > FRAME_LIMIT:
                        raise _frame_limit_error(kb, len(kb), len(vb))
            self.fileobj.write(native.frame(kbs, vbs))
            return
        pack = _LEN_STRUCT.pack
        chunks: List[bytes] = []
        append = chunks.append
        pair = (None, None)
        kb = vb = b""
        try:
            for keybytes, pair in records:
                if keybytes.startswith(tag):
                    kb = keybytes[taglen:]
                else:
                    kb = key_dumps(pair[0])
                vb = value_dumps(pair[1])
                append(pack(len(kb), len(vb)))
                append(kb)
                append(vb)
        except struct.error:
            if len(kb) > FRAME_LIMIT or len(vb) > FRAME_LIMIT:
                raise _frame_limit_error(pair[0], len(kb), len(vb)) from None
            raise
        self.fileobj.write(b"".join(chunks))


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
        if use_mmap:
            self._try_mmap()

    def _try_mmap(self) -> None:
        """Map the file read-only; silently stay on the streaming path
        for non-file objects (sockets, BytesIO) or empty files."""
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

    def _iter_view(
        self, decorate: bool
    ) -> Iterator[Any]:
        """Walk the mmap'd file; values decode as zero-copy views when
        the serializer supports it (``loads_view``)."""
        from repro.util.hashing import key_to_bytes

        mv = self._mview
        assert mv is not None
        header_size = _LEN_STRUCT.size
        unpack_from = _LEN_STRUCT.unpack_from
        key_loads = self.key_s.loads
        value_view = self._value_view
        value_loads = self.value_s.loads
        tag = getattr(self.key_s, "canonical_key_tag", None)
        pos = len(_BIN_MAGIC)
        end = len(mv)
        while pos < end:
            body = pos + header_size
            if body > end:
                raise ValueError("truncated record header")
            klen, vlen = unpack_from(mv, pos)
            vstart = body + klen
            rec_end = vstart + vlen
            if rec_end > end:
                raise ValueError("truncated record body")
            kb = bytes(mv[body:vstart])
            if value_view is not None:
                value = value_view(mv[vstart:rec_end])
            else:
                value = value_loads(bytes(mv[vstart:rec_end]))
            pos = rec_end
            key = key_loads(kb)
            if decorate:
                yield (
                    tag + kb if tag is not None else key_to_bytes(key),
                    (key, value),
                )
            else:
                yield key, value

    def __iter__(self) -> Iterator[KeyValue]:
        if self._mview is not None:
            return self._iter_view(decorate=False)
        return self._iter_stream()

    def _iter_stream(self) -> Iterator[KeyValue]:
        read = self.fileobj.read
        header_size = _LEN_STRUCT.size
        unpack = _LEN_STRUCT.unpack
        key_loads = self.key_s.loads
        value_loads = self.value_s.loads
        while True:
            header = read(header_size)
            if not header:
                return
            if len(header) != header_size:
                raise ValueError("truncated record header")
            klen, vlen = unpack(header)
            kb = read(klen)
            vb = read(vlen)
            if len(kb) != klen or len(vb) != vlen:
                raise ValueError("truncated record body")
            yield key_loads(kb), value_loads(vb)

    def iter_records(self) -> Iterator[Tuple[bytes, KeyValue]]:
        """Iterate decorated ``(keybytes, (key, value))`` records.

        When the key serializer's wire bytes coincide with the
        canonical key encoding (``canonical_key_tag``), the cached key
        bytes are rebuilt by concatenation — the encode-once pipeline's
        key bytes survive the round-trip through the file.  Otherwise
        each key is re-encoded once here (the minimum possible).

        Records are parsed out of large read chunks rather than with
        three ``read`` calls each, so per-record cost is a pair of
        slices; memory stays bounded by the chunk size (plus one
        in-flight record), preserving the streaming-merge property.
        In mmap mode no chunking happens at all: records are walked in
        place and values decode as zero-copy views when the serializer
        supports ``loads_view``.
        """
        if self._mview is not None:
            yield from self._iter_view(decorate=True)
            return
        from repro.util.hashing import key_to_bytes

        read = self.fileobj.read
        header_size = _LEN_STRUCT.size
        unpack_from = _LEN_STRUCT.unpack_from
        key_loads = self.key_s.loads
        value_loads = self.value_s.loads
        tag = getattr(self.key_s, "canonical_key_tag", None)
        native = _native_kernels()
        buf = b""
        pos = 0
        while True:
            chunk = read(_READ_CHUNK)
            if not chunk:
                if pos != len(buf):
                    raise ValueError("truncated record")
                return
            if pos or buf:
                tail = buf[pos:]
                # Peek at the pending record's header: a record larger
                # than the chunk is completed with ONE sized read and
                # ONE join, instead of re-growing the buffer chunk by
                # chunk (quadratic in the record size).
                parts = [tail, chunk]
                avail = len(tail) + len(chunk)
                if avail >= header_size:
                    if len(tail) >= header_size:
                        klen, vlen = unpack_from(tail, 0)
                    else:
                        klen, vlen = _LEN_STRUCT.unpack(
                            (tail + chunk[: header_size - len(tail)])
                        )
                    rec_len = header_size + klen + vlen
                    if rec_len > avail:
                        more = read(rec_len - avail)
                        if more:
                            parts.append(more)
                buf = b"".join(parts)
            else:
                buf = chunk
            pos = 0
            end = len(buf)
            if native is not None:
                # One C call finds every complete record's offsets in
                # the chunk; Python only slices and decodes.
                count, triples = native.scan(buf)
                if count:
                    offsets = iter(triples[: 3 * count])
                    for kstart, vstart, vend in zip(offsets, offsets, offsets):
                        kb = buf[kstart:vstart]
                        key = key_loads(kb)
                        yield (
                            tag + kb if tag is not None else key_to_bytes(key),
                            (key, value_loads(buf[vstart:vend])),
                        )
                    pos = triples[3 * count - 1]
                continue
            while True:
                body = pos + header_size
                if body > end:
                    break
                klen, vlen = unpack_from(buf, pos)
                vstart = body + klen
                rec_end = vstart + vlen
                if rec_end > end:
                    break
                kb = buf[body:vstart]
                vb = buf[vstart:rec_end]
                pos = rec_end
                key = key_loads(kb)
                yield (
                    tag + kb if tag is not None else key_to_bytes(key),
                    (key, value_loads(vb)),
                )


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
