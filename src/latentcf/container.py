"""Versioned binary container for datasets and model checkpoints.

Layout: 4-byte magic b"LCFC", little-endian uint16 format version, two
reserved zero bytes, little-endian uint64 header length, UTF-8 JSON header,
then the raw array payload. The header records a kind tag, caller metadata,
and an array directory (name, shape, dtype, offset into the payload, byte
count). Arrays are stored as contiguous little-endian bytes, so a write/read
cycle is bit-exact and files are byte-identical for identical inputs: keys are
sorted and nothing time- or host-dependent is ever written.

Reading checks the whole directory before it allocates anything: every entry
has a name, a known dtype, non-negative dimensions and offset, and a byte
count equal to its shape's size; the arrays lie inside the file, do not
overlap and have distinct names. Each array's bytes are then read once,
straight from the file into a fresh array, so the arrays returned are
writable, aligned, C-contiguous and share no memory with each other.

A read can take a row range on the leading axis that all of a container's
arrays share; it then reads only those rows' bytes. `explain --query-index`
and `rank --query-index` read the one dataset row they explain this way.

The package's text outputs (results JSONL, reports, CSV, manifests, PGM
images) are written here too, by `_rewrite_text`, which rewrites a file in
place rather than truncating it; containers still truncate (see
`write_container`).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import struct

import numpy as np

from .errors import DimensionError, FormatError, UnsupportedVersionError

MAGIC = b"LCFC"
FORMAT_VERSION = 1

# On-disk dtype codes. Everything numeric is float64; split/attribute flags
# ride as signed bytes.
_DTYPES = {"<f8": np.dtype("<f8"), "|i1": np.dtype("|i1")}

# Required fields of an array directory entry and their JSON types.
_ENTRY_FIELDS = (("name", str), ("shape", list), ("dtype", str), ("offset", int), ("nbytes", int))


def is_int(value):
    """Whether a decoded JSON value is an integer; booleans are not."""
    return type(value) is int


def is_number(value):
    return type(value) in (int, float)


def is_number_list(value):
    return isinstance(value, list) and all(map(is_number, value))


def require_field(record, key, what, ok, where):
    """record[key], or FormatError naming where and key unless the key is
    present and ok(record[key]) holds; what says what the value must be."""
    if key not in record:
        raise FormatError(f"{where} has no {key!r} field")
    if not ok(record[key]):
        raise FormatError(f"{where} field {key!r} must be {what}")
    return record[key]


@contextlib.contextmanager
def _json_errors(where):
    """Raise FormatError naming where for text in the block that is not
    UTF-8, does not parse as JSON or nests past the recursion limit."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise FormatError(f"{where}: not UTF-8: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: not JSON: {exc.msg}") from None
    except RecursionError:
        raise FormatError(f"{where}: not JSON: nested too deeply") from None


def read_json(path):
    """The JSON document in the UTF-8 file at path; a bad one is a
    FormatError naming path (_json_errors)."""
    with open(path, encoding="utf-8") as fh, _json_errors(path):
        return json.load(fh)


def _rewrite_text(path, text, encoding="utf-8"):
    """Write text to path in place, the way every text output is written.

    The whole text is encoded first. The path is opened without O_TRUNC
    (mode 0o666 before the umask, as open(path, "w") would create it), every
    byte is written over the old ones, and a regular file is then cut to the
    new length; a device such as /dev/null is not cut. On ext4 with
    auto_da_alloc, truncating a file that holds data to zero length makes
    its close force block allocation and writeback, a flush per write;
    overwriting and cutting the tail does not. A symlink is written through,
    and the file keeps its inode and mode, so a hard link sees the new text.
    A rewrite cut short before the final ftruncate can leave the old file's
    tail after the new text; the results-JSONL and manifest readers refuse
    a tail cut mid-record.
    """
    data = memoryview(text.encode(encoding))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _dtype_code(arr):
    if arr.dtype == np.float64:
        return "<f8"
    if arr.dtype == np.int8:
        return "|i1"
    raise FormatError(f"unsupported array dtype {arr.dtype}")


def write_container(path, kind, meta, arrays):
    """Write named arrays plus JSON metadata to path.

    arrays is an ordered mapping name -> ndarray (float64 or int8). meta
    must be JSON-serializable. The preamble and header are written first,
    then each array's buffer in turn, with no copy of an array that is
    already contiguous little-endian. Returns the number of bytes written.
    """
    directory = []
    buffers = []
    offset = 0
    for name, arr in arrays.items():
        code = _dtype_code(arr)
        buf = np.ascontiguousarray(arr, dtype=_DTYPES[code])
        directory.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": code,
                "offset": offset,
                "nbytes": buf.nbytes,
            }
        )
        buffers.append(buf)
        offset += buf.nbytes
    header = json.dumps(
        {"kind": kind, "meta": meta, "arrays": directory},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    # Magic, format version, two reserved zero bytes, header length.
    preamble = struct.pack("<4sH2xQ", MAGIC, FORMAT_VERSION, len(header))
    # Truncated, unlike the text outputs (_rewrite_text): format v1 has no
    # checksum, so an in-place rewrite cut short before its final ftruncate
    # could leave one checkpoint's header over a mix of two payloads, and
    # that file would load without error.
    with open(path, "wb") as fh:
        fh.write(preamble)
        fh.write(header)
        for buf in buffers:
            fh.write(buf.data)
    return len(preamble) + len(header) + offset


def read_container(path, expected_kind=None, rows=None):
    """Read a container back as (kind, meta, arrays dict).

    Truncated or malformed files raise FormatError naming the file (its base
    name) and the byte offset of the first problem; a newer format version
    raises UnsupportedVersionError. Every directory entry is checked before
    any array is allocated, and each array's bytes are read once, straight
    into its own buffer.

    rows=(start, stop) reads only those rows of the leading axis, which every
    array must share (DimensionError otherwise), with 0 <= start <= stop <= n
    for n rows (IndexError otherwise). The whole directory is still checked;
    only the bytes read shrink. `explain` and `rank --query-index` read the
    dataset row they explain this way.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            preamble = fh.read(16)
            if len(preamble) < 4 or preamble[:4] != MAGIC:
                raise FormatError("bad magic, not a container file", offset=0)
            if len(preamble) < 16:
                raise FormatError("truncated before header length", offset=len(preamble))
            version = struct.unpack_from("<H", preamble, 4)[0]
            if version != FORMAT_VERSION:
                raise UnsupportedVersionError(
                    f"format version {version} not supported (expected {FORMAT_VERSION})", offset=4
                )
            # Preamble layout: magic 0:4, version 4:6, reserved 6:8, header length 8:16.
            header_len = struct.unpack_from("<Q", preamble, 8)[0]
            payload_start = 16 + header_len
            if size < payload_start:
                raise FormatError("truncated inside header", offset=size)
            try:
                header = json.loads(fh.read(header_len).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise FormatError(f"unreadable header: {exc}", offset=16) from exc
            if not isinstance(header, dict):
                raise FormatError("header is not a JSON object", offset=16)
            for key in ("kind", "meta", "arrays"):
                if key not in header:
                    raise FormatError(f"header missing {key!r} field", offset=16)
            if expected_kind is not None and header["kind"] != expected_kind:
                raise FormatError(
                    f"container holds {header['kind']!r}, expected {expected_kind!r}", offset=16
                )
            entries = _check_directory(header["arrays"], payload_start, size)
            if rows is not None:
                entries = _row_range(entries, rows)
            arrays = {}
            for name, shape, dtype, offset, nbytes in entries:
                try:
                    arr = np.empty(shape, dtype)
                except ValueError as exc:
                    raise FormatError(f"array {name!r}: {exc}", offset=16) from exc
                fh.seek(payload_start + offset)
                if fh.readinto(arr) != nbytes:
                    raise FormatError(f"array {name!r} is truncated", offset=payload_start + offset)
                arrays[name] = arr
    except FormatError as exc:
        # Named by base name, so the same damage reads the same in any directory.
        exc.args = (f"{os.path.basename(path)}: {exc}",)
        raise
    return header["kind"], header["meta"], arrays


def _check_directory(directory, payload_start, size):
    """Validate the header's array directory for a file of size bytes.

    Returns (name, shape, dtype, offset, nbytes) per entry. Each entry must
    name a known dtype, a shape of non-negative dimensions whose byte size is
    nbytes, and a non-negative offset; arrays lie inside the payload, do not
    overlap and have distinct names.
    """
    if not isinstance(directory, list):
        raise FormatError("header 'arrays' field is not a list", offset=16)
    entries = []
    names = set()
    for entry in directory:
        if not isinstance(entry, dict):
            raise FormatError("array directory entry is not a JSON object", offset=16)
        for key, kind in _ENTRY_FIELDS:
            if key not in entry:
                raise FormatError(f"array directory entry missing {key!r}", offset=16)
            if type(entry[key]) is not kind:
                raise FormatError(
                    f"array directory field {key!r} is {type(entry[key]).__name__}, "
                    f"expected {kind.__name__}",
                    offset=16,
                )
        name, shape, code = entry["name"], entry["shape"], entry["dtype"]
        offset, nbytes = entry["offset"], entry["nbytes"]
        if code not in _DTYPES:
            raise FormatError(f"unknown dtype code {code!r}", offset=16)
        if any(type(d) is not int or d < 0 for d in shape):
            raise FormatError(f"array {name!r} has a bad shape {shape!r}", offset=16)
        if offset < 0:
            raise FormatError(f"array {name!r} has a negative offset", offset=16)
        if nbytes != math.prod(shape) * _DTYPES[code].itemsize:
            raise FormatError(
                f"array {name!r}: nbytes {nbytes} does not match shape {shape} of {code}",
                offset=16,
            )
        if payload_start + offset + nbytes > size:
            raise FormatError(f"array {name!r} extends past end of file", offset=size)
        if name in names:
            raise FormatError(f"array {name!r} listed twice", offset=16)
        names.add(name)
        entries.append((name, tuple(shape), _DTYPES[code], offset, nbytes))
    # Empty arrays occupy no bytes, so only non-empty ones can overlap.
    spans = sorted((e[3], e[3] + e[4], e[0]) for e in entries if e[4])
    for (_, prev_end, prev), (start, _, name) in zip(spans, spans[1:]):
        if start < prev_end:
            raise FormatError(f"arrays {prev!r} and {name!r} overlap", offset=16)
    return entries


def _row_range(entries, rows):
    """Checked directory entries cut to rows (start, stop) of their shared
    leading axis: each shape's first dimension shrinks to the range and each
    offset moves to the range's first byte."""
    start, stop = rows
    lengths = {name: shape[0] if shape else None for name, shape, *_ in entries}
    n = next(iter(lengths.values()), 0)
    if n is None or any(length != n for length in lengths.values()):
        raise DimensionError(f"arrays do not share a leading axis: {lengths}")
    if not 0 <= start <= stop <= n:
        raise IndexError(f"rows {start}:{stop} out of range for {n} rows")
    cut = []
    for name, shape, dtype, offset, _ in entries:
        row_bytes = math.prod(shape[1:]) * dtype.itemsize
        cut.append((name, (stop - start,) + shape[1:], dtype, offset + start * row_bytes,
                    (stop - start) * row_bytes))
    return cut
