"""Wire framing: typed length-prefixed frames with tagged fields inside.

A frame is `magic | type | payload length | payload`.  Payloads are flat
containers of tagged fields (4-byte ASCII tag + length + bytes).  Only that
container parses without the session state; duplicate tags are hard errors
rather than silent drift.  Small numeric payloads travel as little-endian
arrays with an explicit dtype/shape header.  Encrypted payloads (matrices,
ciphertext lists, the key blob) carry data only: the receiver decodes each
against the layout its session geometry names.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import ProtocolError

MAGIC = b"CF01"
_HEADER = struct.Struct("<4sBI")
MAX_FRAME = 1 << 28

# handshake / setup
HELLO = 1          # s->c: session geometry
ACCEPT = 2         # c->s: public keys, base-OT point
OT_BASE = 3        # s->c: base-OT response points
CLIENT_SETUP = 4   # c->s: OT seeds + extension matrix + encrypted input
# garbled stages
STAGE_OPEN = 5     # s->c: masked wires, tables, garbler labels, B2A pairs
STAGE_OT_REQ = 6   # c->s: derandomization bits
STAGE_OT_RESP = 7  # s->c: masked label pairs
STAGE_SHARE = 8    # c->s: re-encrypted output shares
# encrypted matrix products
MM_OPEN = 9        # s->c: masked factors
MM_REPLY = 10      # c->s: clear product + shifted factor terms
# result
LOGITS = 11        # s->c: per-class ciphertexts

FRAME_NAMES = {
    HELLO: "hello", ACCEPT: "accept", OT_BASE: "ot-base",
    CLIENT_SETUP: "client-setup", STAGE_OPEN: "stage-open",
    STAGE_OT_REQ: "stage-ot-req", STAGE_OT_RESP: "stage-ot-resp",
    STAGE_SHARE: "stage-share", MM_OPEN: "mm-open", MM_REPLY: "mm-reply",
    LOGITS: "logits",
}


def write_frame(conn, ftype: int, payload: bytes):
    if ftype not in FRAME_NAMES:
        raise ProtocolError(f"unknown frame type {ftype}")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds limit")
    conn.send(_HEADER.pack(MAGIC, ftype, len(payload)) + payload)


def read_frame(conn, expect: int | None = None) -> tuple[int, bytes]:
    head = conn.recv_exact(_HEADER.size)
    magic, ftype, length = _HEADER.unpack(head)
    if magic != MAGIC:
        raise ProtocolError("bad frame magic")
    if ftype not in FRAME_NAMES:
        raise ProtocolError(f"unknown frame type {ftype}")
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    payload = conn.recv_exact(length) if length else b""
    if expect is not None and ftype != expect:
        raise ProtocolError(
            f"expected {FRAME_NAMES[expect]} frame, got {FRAME_NAMES[ftype]}")
    return ftype, payload


# ----------------------------------------------------------------------------
# field container


def encode_fields(fields: dict[str, bytes]) -> bytes:
    parts = []
    for tag, blob in fields.items():
        raw = tag.encode("ascii")
        if len(raw) != 4:
            raise ProtocolError(f"field tag {tag!r} must be 4 characters")
        parts.append(raw + struct.pack("<I", len(blob)) + blob)
    return b"".join(parts)


def decode_fields(data: bytes) -> dict[str, bytes]:
    out: dict[str, bytes] = {}
    off = 0
    while off < len(data):
        if off + 8 > len(data):
            raise ProtocolError("truncated field header")
        tag = data[off:off + 4]
        (length,) = struct.unpack_from("<I", data, off + 4)
        off += 8
        if off + length > len(data):
            raise ProtocolError(f"truncated field {tag!r}")
        try:
            key = tag.decode("ascii")
        except UnicodeDecodeError:
            raise ProtocolError(f"non-ascii field tag {tag!r}") from None
        if key in out:
            raise ProtocolError(f"duplicate field {key!r}")
        out[key] = data[off:off + length]
        off += length
    return out


def need(fields: dict[str, bytes], *tags: str) -> list[bytes]:
    missing = [t for t in tags if t not in fields]
    if missing:
        raise ProtocolError(f"missing fields {missing}")
    return [fields[t] for t in tags]


# ----------------------------------------------------------------------------
# array / integer codecs

_DTYPES = {0: np.dtype("<u1"), 1: np.dtype("<u8")}
_DTYPE_CODES = {np.dtype(np.uint8): 0, np.dtype(np.uint64): 1}


def pack_array(arr: np.ndarray) -> bytes:
    a = np.ascontiguousarray(arr)
    code = _DTYPE_CODES.get(a.dtype)
    if code is None:
        raise ProtocolError(f"cannot encode dtype {a.dtype}")
    if a.ndim > 8:
        raise ProtocolError("array rank too large")
    head = struct.pack("<BB", code, a.ndim)
    head += struct.pack(f"<{a.ndim}I", *a.shape) if a.ndim else b""
    return head + a.astype(_DTYPES[code], copy=False).tobytes()


def unpack_array(blob: bytes) -> np.ndarray:
    if len(blob) < 2:
        raise ProtocolError("truncated array header")
    code, ndim = struct.unpack_from("<BB", blob, 0)
    if code not in _DTYPES or ndim > 8:
        raise ProtocolError("bad array header")
    off = 2 + 4 * ndim
    if len(blob) < off:
        raise ProtocolError("truncated array shape")
    shape = struct.unpack_from(f"<{ndim}I", blob, 2) if ndim else ()
    dt = _DTYPES[code]
    # Python ints: a shape whose product overflows int64 cannot wrap to a
    # count that matches the payload
    count = math.prod(shape)
    if len(blob) != off + count * dt.itemsize:
        raise ProtocolError("array payload length mismatch")
    arr = np.frombuffer(blob, dtype=dt, count=count, offset=off)
    return arr.reshape(shape).astype(dt.base.newbyteorder("="), copy=True)


def pack_u64(x: int) -> bytes:
    return struct.pack("<Q", x)


def unpack_u64(blob: bytes) -> int:
    if len(blob) != 8:
        raise ProtocolError("bad integer field length")
    return struct.unpack("<Q", blob)[0]


def pack_bigint(x: int) -> bytes:
    raw = x.to_bytes((x.bit_length() + 7) // 8 or 1, "little")
    return struct.pack("<I", len(raw)) + raw


def unpack_bigint(blob: bytes) -> int:
    if len(blob) < 4:
        raise ProtocolError("truncated big integer")
    (length,) = struct.unpack_from("<I", blob, 0)
    if len(blob) != 4 + length:
        raise ProtocolError("big integer length mismatch")
    return int.from_bytes(blob[4:], "little")
