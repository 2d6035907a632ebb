"""Reading and writing the .lcfc container, including malformed directories."""

import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcf.container import FORMAT_VERSION, MAGIC, read_container, write_container
from latentcf.errors import DimensionError, FormatError


def raw_container(raw_header, payload=b""):
    """A container whose header bytes are exactly raw_header."""
    preamble = MAGIC + struct.pack("<H", FORMAT_VERSION) + b"\x00\x00"
    return preamble + struct.pack("<Q", len(raw_header)) + raw_header + payload


def container_bytes(header, payload=b""):
    """A container whose header is exactly the given JSON value."""
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return raw_container(raw, payload)


def entry(name="a", shape=(2,), dtype="<f8", offset=0, nbytes=None):
    if nbytes is None:
        nbytes = int(np.prod(shape)) * (8 if dtype == "<f8" else 1)
    return {"name": name, "shape": list(shape), "dtype": dtype, "offset": offset,
            "nbytes": nbytes}


def header_with(*entries):
    return {"kind": "test", "meta": {}, "arrays": list(entries)}


def reference_read(blob):
    """Parse a container by slicing the whole file, as a check on read_container."""
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    start = 16 + header_len
    header = json.loads(blob[16:start].decode("utf-8"))
    arrays = {}
    for e in header["arrays"]:
        lo = start + e["offset"]
        raw = blob[lo : lo + e["nbytes"]]
        arrays[e["name"]] = np.frombuffer(raw, dtype=e["dtype"]).reshape(e["shape"])
    return header, arrays


def assert_detached(arrays):
    """Every array is writable, aligned, C-contiguous and owns its memory alone."""
    values = list(arrays.values())
    for arr in values:
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            assert not np.shares_memory(a, b)


def read_bytes(tmp_path, blob):
    path = tmp_path / "c.lcfc"
    path.write_bytes(blob)
    return read_container(path)


def sample_arrays():
    return {
        "weights": np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0,
        "flags": np.array([0, 1, 2, -1], dtype=np.int8),
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 3)),
    }


class TestRoundTrip:
    def test_arrays_and_meta_come_back_bit_exact(self, tmp_path):
        path = tmp_path / "c.lcfc"
        arrays = sample_arrays()
        write_container(path, "test", {"note": "x", "n": [1, 2]}, arrays)
        kind, meta, back = read_container(path, expected_kind="test")
        assert kind == "test" and meta == {"note": "x", "n": [1, 2]}
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype and back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()
        assert_detached(back)

    def test_matches_a_whole_file_reference_reader(self, tmp_path):
        path = tmp_path / "c.lcfc"
        write_container(path, "test", {}, sample_arrays())
        header, expected = reference_read(path.read_bytes())
        _, _, back = read_container(path)
        assert [e["name"] for e in header["arrays"]] == list(back)
        for name, arr in expected.items():
            assert back[name].tobytes() == arr.tobytes()

    def test_payload_off_an_eight_byte_boundary(self, tmp_path):
        path = tmp_path / "c.lcfc"
        arrays = sample_arrays()
        starts = set()
        for pad in range(8):
            write_container(path, "test", {"pad": "x" * pad}, arrays)
            starts.add((16 + struct.unpack_from("<Q", path.read_bytes(), 8)[0]) % 8)
            _, _, back = read_container(path)
            assert back["weights"].tobytes() == arrays["weights"].tobytes()
            assert_detached(back)
        assert starts == set(range(8))

    def test_arrays_out_of_offset_order_and_adjacent_empties(self, tmp_path):
        payload = np.array([1.0, 2.0]).tobytes() + np.array([3.0]).tobytes()
        header = header_with(
            entry("b", shape=(1,), offset=16),
            entry("a", shape=(2,), offset=0),
            entry("e", shape=(0,), offset=16),
        )
        _, _, back = read_bytes(tmp_path, container_bytes(header, payload))
        assert back["a"].tolist() == [1.0, 2.0]
        assert back["b"].tolist() == [3.0]
        assert back["e"].shape == (0,)

    def test_arrays_are_independent_of_each_other(self, tmp_path):
        path = tmp_path / "c.lcfc"
        write_container(path, "test", {}, sample_arrays())
        _, _, back = read_container(path)
        back["weights"][:] = -1.0
        _, _, again = read_container(path)
        assert again["weights"][0, 1] == 1.0 / 7.0
        assert back["flags"].tolist() == [0, 1, 2, -1]


def joined_container(kind, meta, arrays):
    """The container bytes as one joined blob of tobytes() copies, the way
    write_container built them before it streamed each array."""
    directory, chunks, offset = [], [], 0
    for name, arr in arrays.items():
        code = "<f8" if arr.dtype == np.float64 else "|i1"
        raw = np.ascontiguousarray(arr, dtype=np.dtype(code)).tobytes()
        directory.append({"name": name, "shape": list(arr.shape), "dtype": code,
                          "offset": offset, "nbytes": len(raw)})
        chunks.append(raw)
        offset += len(raw)
    header = json.dumps({"kind": kind, "meta": meta, "arrays": directory},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    return raw_container(header, b"".join(chunks))


class TestStreamedWrite:
    """write_container streams each array's buffer after the header; the
    file is the joined blob's bytes, and it returns their count."""

    def arrays(self):
        grid = np.arange(48, dtype=np.float64).reshape(6, 8) / 7.0
        return {
            "weights": grid,
            "flags": np.array([0, 1, 2, -1], dtype=np.int8),
            "empty": np.zeros((0, 3)),
            "columns": grid[:, 1::3],
            "transposed": grid.T,
            "step_flags": np.arange(10, dtype=np.int8)[::-2],
            "scalar": np.array(2.5),
        }

    def test_bytes_match_the_joined_blob(self, tmp_path):
        path = tmp_path / "c.lcfc"
        arrays = self.arrays()
        assert not arrays["columns"].flags.c_contiguous
        written = write_container(path, "test", {"n": 1}, arrays)
        expected = joined_container("test", {"n": 1}, arrays)
        assert path.read_bytes() == expected and written == len(expected)

    def test_a_longer_file_is_truncated(self, tmp_path):
        path = tmp_path / "c.lcfc"
        path.write_bytes(b"x" * 10_000)
        arrays = {"flags": np.array([3], dtype=np.int8)}
        written = write_container(path, "test", {}, arrays)
        assert path.read_bytes() == joined_container("test", {}, arrays)
        assert path.stat().st_size == written

    def test_contiguous_arrays_are_written_without_a_copy(self, tmp_path):
        arrays = {"weights": np.ones((1000, 500)), "flags": np.zeros(500_000, dtype=np.int8)}
        tracemalloc.start()
        try:
            written = write_container(tmp_path / "c.lcfc", "test", {}, arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written > 4_500_000 and peak < 100_000, peak


class TestDirectoryChecks:
    PAYLOAD = np.arange(4, dtype=np.float64).tobytes()

    def assert_rejected(self, tmp_path, header, payload=None):
        blob = container_bytes(header, self.PAYLOAD if payload is None else payload)
        with pytest.raises(FormatError):
            read_bytes(tmp_path, blob)

    def test_valid_directory_reads(self, tmp_path):
        header = header_with(entry("a", shape=(2,), offset=0), entry("b", shape=(2,), offset=16))
        _, _, back = read_bytes(tmp_path, container_bytes(header, self.PAYLOAD))
        assert back["b"].tolist() == [2.0, 3.0]

    def test_header_not_an_object(self, tmp_path):
        self.assert_rejected(tmp_path, ["kind", "meta", "arrays"])

    def test_header_nested_too_deeply(self, tmp_path):
        with pytest.raises(FormatError):
            read_bytes(tmp_path, raw_container(b"[" * 100_000 + b"]" * 100_000))

    def test_arrays_not_a_list(self, tmp_path):
        self.assert_rejected(tmp_path, {"kind": "test", "meta": {}, "arrays": {"a": 1}})

    def test_entry_not_an_object(self, tmp_path):
        self.assert_rejected(tmp_path, header_with("a"))

    @pytest.mark.parametrize("field", ["name", "shape", "dtype", "offset", "nbytes"])
    def test_entry_missing_field(self, tmp_path, field):
        e = entry()
        del e[field]
        self.assert_rejected(tmp_path, header_with(e))

    @pytest.mark.parametrize(
        "field,value",
        [("name", 3), ("shape", 2), ("shape", [2.0]), ("dtype", 8), ("offset", 0.0),
         ("offset", "0"), ("nbytes", 16.0), ("nbytes", True)],
    )
    def test_entry_field_of_wrong_type(self, tmp_path, field, value):
        e = entry()
        e[field] = value
        self.assert_rejected(tmp_path, header_with(e))

    def test_unknown_dtype(self, tmp_path):
        self.assert_rejected(tmp_path, header_with(entry(dtype="<f4", nbytes=8)))

    def test_negative_dimension(self, tmp_path):
        self.assert_rejected(tmp_path, header_with(entry(shape=(-2,), nbytes=16)))

    def test_negative_offset(self, tmp_path):
        # Offset -8 would point into the header itself.
        self.assert_rejected(tmp_path, header_with(entry(offset=-8)))

    def test_nbytes_disagrees_with_shape(self, tmp_path):
        self.assert_rejected(tmp_path, header_with(entry(shape=(2,), nbytes=24)))

    def test_array_past_end_of_file(self, tmp_path):
        self.assert_rejected(tmp_path, header_with(entry(shape=(2,), offset=24)))

    def test_overlapping_arrays(self, tmp_path):
        header = header_with(entry("a", shape=(3,), offset=0), entry("b", shape=(2,), offset=16))
        self.assert_rejected(tmp_path, header)

    def test_duplicate_names(self, tmp_path):
        header = header_with(entry("a", shape=(2,), offset=0), entry("a", shape=(2,), offset=16))
        self.assert_rejected(tmp_path, header)

    def test_too_many_dimensions(self, tmp_path):
        self.assert_rejected(tmp_path, header_with(entry(shape=(1,) * 65, nbytes=8)), b"\x00" * 8)


def written_bytes(arrays, meta):
    """The bytes write_container writes for arrays and meta."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.lcfc"
        write_container(path, "test", meta, arrays)
        return path.read_bytes()


@st.composite
def valid_containers(draw):
    """Bytes of a small valid container, with a header of varying length."""
    n = draw(st.integers(1, 3))
    arrays = {}
    for i in range(n):
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        dtype = draw(st.sampled_from([np.float64, np.int8]))
        arrays[f"a{i}"] = np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape)
    return written_bytes(arrays, {"pad": "x" * draw(st.integers(0, 15))})


@st.composite
def row_containers(draw):
    """Bytes of a small valid container whose arrays share a leading axis."""
    n = draw(st.integers(0, 4))
    arrays = {}
    for i in range(draw(st.integers(1, 3))):
        shape = (n, *draw(st.lists(st.integers(0, 3), max_size=2)))
        dtype = draw(st.sampled_from([np.float64, np.int8]))
        arrays[f"a{i}"] = (np.arange(int(np.prod(shape))) % 100).astype(dtype).reshape(shape)
    return written_bytes(arrays, {"pad": "x" * draw(st.integers(0, 15))})


@st.composite
def damaged_containers(draw, source=None):
    blob = draw(source if source is not None else valid_containers())
    at = draw(st.integers(0, len(blob) - 1))
    if draw(st.booleans()):
        return blob[:at]
    flipped = bytearray(blob)
    flipped[at] ^= draw(st.integers(1, 255))
    return bytes(flipped)


@settings(max_examples=200, deadline=None)
@given(damaged_containers())
def test_damaged_container_is_rejected_or_matches_its_header(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.lcfc"
        path.write_bytes(blob)
        try:
            _, _, arrays = read_container(path)
        except FormatError:
            return
    header, expected = reference_read(blob)
    assert [e["name"] for e in header["arrays"]] == list(arrays)
    for e in header["arrays"]:
        arr = arrays[e["name"]]
        assert arr.shape == tuple(e["shape"]) and arr.dtype == np.dtype(e["dtype"])
        assert arr.tobytes() == expected[e["name"]].tobytes()
    assert_detached(arrays)


def read_rows(blob, rows=None):
    """read_container on blob's bytes, over rows when given."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.lcfc"
        path.write_bytes(blob)
        return read_container(path, rows=rows)[2]


def shared_length(arrays):
    """The leading length all arrays share (0 for no arrays), or None when
    they share none."""
    lengths = {arr.shape[0] if arr.ndim else None for arr in arrays.values()} or {0}
    return lengths.pop() if len(lengths) == 1 else None


@settings(max_examples=100, deadline=None)
@given(row_containers())
def test_every_row_range_reads_the_full_read_sliced(blob):
    full = read_rows(blob)
    n = shared_length(full)
    for start in range(n + 1):
        for stop in range(start, n + 1):
            rows = read_rows(blob, (start, stop))
            assert list(rows) == list(full)
            for name, arr in full.items():
                part = rows[name]
                assert part.dtype == arr.dtype and part.shape == arr[start:stop].shape
                assert part.tobytes() == arr[start:stop].tobytes()
            assert_detached(rows)


@settings(max_examples=50, deadline=None)
@given(row_containers())
def test_a_row_range_outside_the_rows_is_an_index_error(blob):
    n = shared_length(read_rows(blob))
    for rows in ((-1, 0), (0, n + 1), (n, n + 1), (1, 0)):
        with pytest.raises(IndexError):
            read_rows(blob, rows)


def test_a_row_range_needs_a_shared_leading_axis(tmp_path):
    path = tmp_path / "c.lcfc"
    for arrays in ({"a": np.zeros((3, 2)), "b": np.zeros(2)},
                   {"a": np.zeros(2), "s": np.array(1.0)}):
        write_container(path, "test", {}, arrays)
        read_container(path)
        with pytest.raises(DimensionError, match="leading axis"):
            read_container(path, rows=(0, 1))


@settings(max_examples=200, deadline=None)
@given(damaged_containers(row_containers()), st.integers(0, 5), st.integers(0, 5))
def test_damaged_container_row_read_refuses_what_a_full_read_refuses(blob, start, stop):
    """A row read of a damaged file raises the full read's FormatError, or
    reads the full read sliced; on a file the full read accepts it refuses
    only arrays with no shared leading axis and a range outside it."""
    start, stop = min(start, stop), max(start, stop)
    try:
        full = read_rows(blob)
    except FormatError as exc:
        with pytest.raises(FormatError) as row_exc:
            read_rows(blob, (start, stop))
        assert str(row_exc.value) == str(exc)
        return
    n = shared_length(full)
    if n is None:
        with pytest.raises(DimensionError):
            read_rows(blob, (start, stop))
    elif stop > n:
        with pytest.raises(IndexError):
            read_rows(blob, (start, stop))
    else:
        rows = read_rows(blob, (start, stop))
        assert list(rows) == list(full)
        for name, arr in full.items():
            assert rows[name].shape == arr[start:stop].shape
            assert rows[name].tobytes() == arr[start:stop].tobytes()
        assert_detached(rows)
