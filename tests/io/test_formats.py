"""Record format round-trips and registry dispatch."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.io import formats
from repro.io.formats import (
    BinReader,
    BinWriter,
    HexReader,
    HexWriter,
    TextReader,
    TextWriter,
    default_read_pairs,
    reader_for,
    writer_for,
)
from repro.io.serializers import (
    IntSerializer,
    Serializer,
    StrSerializer,
    set_zero_copy_mode,
    zero_copy_mode,
)
from repro.native import kernels
from repro.util.hashing import key_to_bytes


def roundtrip_bin(pairs, **kw):
    buffer = io.BytesIO()
    writer = BinWriter(buffer, **kw)
    for pair in pairs:
        writer.writepair(pair)
    writer.finish()
    buffer.seek(0)
    return list(BinReader(buffer, **kw))


def roundtrip_hex(pairs):
    buffer = io.BytesIO()
    writer = HexWriter(buffer)
    for pair in pairs:
        writer.writepair(pair)
    writer.finish()
    buffer.seek(0)
    return list(HexReader(buffer))


class TestTextFormat:
    def test_writer_renders_tab_separated(self):
        buffer = io.BytesIO()
        TextWriter(buffer).writepair(("word", 3))
        assert buffer.getvalue() == b"word\t3\n"

    def test_reader_yields_line_number_keys(self):
        buffer = io.BytesIO(b"alpha\nbeta\n")
        assert list(TextReader(buffer)) == [(0, "alpha"), (1, "beta")]

    def test_reader_strips_crlf(self):
        buffer = io.BytesIO(b"alpha\r\n")
        assert list(TextReader(buffer)) == [(0, "alpha")]

    def test_reader_tolerates_invalid_utf8(self):
        buffer = io.BytesIO(b"\xff\xfe bad\n")
        ((_, line),) = list(TextReader(buffer))
        assert "bad" in line


class TestBinFormat:
    def test_roundtrip_arbitrary_objects(self):
        pairs = [("k", {"nested": [1, 2]}), ((1, 2), None)]
        assert roundtrip_bin(pairs) == pairs

    def test_roundtrip_with_typed_serializers(self):
        pairs = [("word", 1), ("other", 2)]
        assert roundtrip_bin(
            pairs, key_serializer=StrSerializer, value_serializer=IntSerializer
        ) == pairs

    def test_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            BinReader(io.BytesIO(b"garbage data"))

    def test_truncated_header_detected(self):
        buffer = io.BytesIO()
        writer = BinWriter(buffer)
        writer.writepair(("a", 1))
        data = buffer.getvalue()[:-3]  # drop part of the value
        reader = BinReader(io.BytesIO(data))
        with pytest.raises(ValueError, match="truncated"):
            list(reader)

    def test_empty_stream(self):
        buffer = io.BytesIO()
        BinWriter(buffer).finish()
        buffer.seek(0)
        assert list(BinReader(buffer)) == []


#: Raw-bytes values that also decode as views, so one file can be read
#: through every ``BinReader`` entry point, the mmap walk included.
RAW_VIEW = Serializer("raw-view", bytes, bytes, loads_view=bytes)
#: Every way to read a ``.mrsb`` file: ``iter``/``records`` over a
#: buffered file, the same over an mmap, and over a non-seekable stream.
ENTRY_POINTS = [
    "iter", "records", "mmap", "mmap_records", "stream", "stream_records",
]
#: Key width of the boundary tests: a frame is 8 + 6 + value bytes.
KEY_WIDTH = 6


class _NonSeekable(io.RawIOBase):
    """A pipe- or socket-like raw stream: no ``fileno``, no ``seek``."""

    def __init__(self, data):
        self._source = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._source.readinto(buffer)


@pytest.fixture(params=["auto", "off"])
def native_mode(request, monkeypatch):
    """Either kernel mode; the decoder must never ask for the kernels."""
    calls = []
    monkeypatch.setattr(kernels, "get", lambda: calls.append(1))
    kernels.set_mode(request.param)
    yield request.param
    kernels.set_mode("auto")
    assert calls == []


@pytest.fixture
def views_on():
    previous = zero_copy_mode()
    set_zero_copy_mode("on")
    yield
    set_zero_copy_mode(previous)


def _pairs_framed(sizes):
    """``str``/raw pairs whose frames are exactly ``sizes`` bytes."""
    header = 8 + KEY_WIDTH
    return [
        (f"{i:0{KEY_WIDTH}d}", bytes([i % 251]) * (size - header))
        for i, size in enumerate(sizes)
    ]


def _write_file(path, pairs):
    with open(path, "wb") as f:
        BinWriter(f, StrSerializer, RAW_VIEW).writepairs(pairs)
    return path.read_bytes()


def _read(path, entry):
    """Everything ``entry`` yields for the file at ``path``."""
    if entry.startswith("stream"):
        f = io.BufferedReader(_NonSeekable(path.read_bytes()))
    else:
        f = open(path, "rb")
    with f:
        reader = BinReader(
            f, StrSerializer, RAW_VIEW, use_mmap=entry.startswith("mmap")
        )
        assert (reader._mview is not None) == entry.startswith("mmap")
        try:
            return list(reader.iter_records() if entry.endswith("records") else reader)
        finally:
            reader.close()


CHUNK = formats._READ_CHUNK
WINDOW_SHAPES = {
    # 1024 frames fill the first read exactly; the next starts a window.
    "ends_on_chunk": [1024] * (CHUNK // 1024) + [100] * 3,
    # The frame after CHUNK - 3 bytes has its header split in two reads.
    "header_split": [1024] * (CHUNK // 1024 - 1) + [1021] + [100] * 3,
    # One frame spans more than three reads.
    "larger_than_chunk": [100] * 5 + [3 * CHUNK + 17] + [100] * 5,
}


class TestBinWalker:
    """The one ``.mrsb`` decoder, at every window boundary, through
    every entry point, in either kernel mode."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("shape", sorted(WINDOW_SHAPES))
    def test_window_boundaries(self, tmp_path, shape, entry, native_mode, views_on):
        pairs = _pairs_framed(WINDOW_SHAPES[shape])
        data = _write_file(tmp_path / "w.mrsb", pairs)
        assert len(data) == 5 + sum(WINDOW_SHAPES[shape])
        want = (
            [(key_to_bytes(k), (k, v)) for k, v in pairs]
            if entry.endswith("records") else pairs
        )
        assert _read(tmp_path / "w.mrsb", entry) == want

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("cut", ["header", "body"])
    def test_truncation_raises(self, tmp_path, cut, entry, native_mode, views_on):
        data = _write_file(tmp_path / "full.mrsb", _pairs_framed([40, 40, 40]))
        # Magic + two whole frames, then 3 bytes of the third's header,
        # or all of the third but its last byte.
        end = 5 + 80 + 3 if cut == "header" else len(data) - 1
        path = tmp_path / "cut.mrsb"
        path.write_bytes(data[:end])
        with pytest.raises(ValueError, match="truncated"):
            _read(path, entry)


class TestHexFormat:
    def test_roundtrip(self):
        pairs = [("key", [1, 2]), (9, "value")]
        assert roundtrip_hex(pairs) == pairs

    def test_blank_lines_skipped(self):
        buffer = io.BytesIO()
        writer = HexWriter(buffer)
        writer.writepair(("a", 1))
        buffer.write(b"\n\n")
        writer.writepair(("b", 2))
        buffer.seek(0)
        assert list(HexReader(buffer)) == [("a", 1), ("b", 2)]

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            list(HexReader(io.BytesIO(b"justonefield\n")))

    def test_output_is_grepable_ascii(self):
        buffer = io.BytesIO()
        HexWriter(buffer).writepair(("a", 1))
        line = buffer.getvalue()
        assert line.endswith(b"\n")
        assert all(32 <= c < 127 or c == 10 for c in line)


class TestRegistry:
    @pytest.mark.parametrize(
        "path,writer,reader",
        [
            ("x.txt", TextWriter, TextReader),
            ("x.mtxt", TextWriter, TextReader),
            ("dir/y.mrsb", BinWriter, BinReader),
            ("z.mrsx", HexWriter, HexReader),
        ],
    )
    def test_known_extensions(self, path, writer, reader):
        assert writer_for(path) is writer
        assert reader_for(path) is reader

    def test_unknown_extension_reads_as_text(self):
        assert reader_for("book.html") is TextReader
        assert reader_for("README") is TextReader

    def test_case_insensitive(self):
        assert reader_for("X.MRSB") is BinReader

    def test_default_read_pairs(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("one\ntwo\n")
        assert list(default_read_pairs(str(path))) == [(0, "one"), (1, "two")]


@given(
    st.lists(
        st.tuples(
            st.one_of(st.text(), st.integers(), st.binary()),
            st.one_of(st.none(), st.integers(), st.text(),
                      st.lists(st.integers(), max_size=3)),
        ),
        max_size=30,
    )
)
def test_bin_roundtrip_property(pairs):
    assert roundtrip_bin(pairs) == pairs


@given(st.lists(st.tuples(st.integers(), st.text()), max_size=20))
def test_hex_roundtrip_property(pairs):
    assert roundtrip_hex(pairs) == pairs
