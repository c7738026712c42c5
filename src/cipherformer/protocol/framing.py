"""Wire framing: typed frames whose sizes the receiver knows before reading.

A frame is `magic | type | payload length | payload`.  The payload is the
concatenation of parts whose byte sizes the receiver's own session plan
names (see the flight plan in `session`); nothing inside it describes
itself.  `read_frame` is given the type and the length it expects and
refuses anything else from the 9-byte header alone, before it reads one
payload byte, so a peer can make a party buffer no byte its plan does not
name.
"""

from __future__ import annotations

import struct

from ..errors import ProtocolError

MAGIC = b"CF01"
_HEADER = struct.Struct("<4sBI")

# handshake / setup
HELLO = 1          # s->c: session geometry
ACCEPT = 2         # c->s: the key blob's SHA-256 (32 B), base-OT point A
                   #       (33 B), then maybe a resume request: the
                   #       client's stream position (8 B) and a base-OT
                   #       outcome's name (16 B)
OT_BASE = 3        # s->c: the 128 base-OT points B (33 B each), or
                   #       nothing if the server resumes the named outcome
CLIENT_SETUP = 4   # c->s: the key blob + OT seeds (both after points B
                   #       only) + extension matrix + encrypted input
# garbled stages
STAGE_OPEN = 5     # s->c: the masked stage input
STAGE_OT_REQ = 6   # c->s: derandomization bits
STAGE_OT_RESP = 7  # s->c: the stage walk's tables, then its B2A corrections
STAGE_SHARE = 8    # c->s: the encrypted output share of each group
# encrypted matrix products
MM_OPEN = 9        # s->c: the masked factors
MM_REPLY = 10      # c->s: encrypted product + factor terms, two to a ct
# result
LOGITS = 11        # s->c: per-class ciphertexts, zero-sum padded

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
    conn.send(_HEADER.pack(MAGIC, ftype, len(payload)) + payload)


def read_frame(conn, expect: int, size: int | list[int]) -> bytes:
    """The payload of the next frame, which must be of type `expect` and
    exactly `size` bytes long, or one of the lengths `size` lists; the
    header alone decides both."""
    magic, ftype, length = _HEADER.unpack(conn.recv_exact(_HEADER.size))
    if magic != MAGIC:
        raise ProtocolError("bad frame magic")
    if ftype != expect:
        got = FRAME_NAMES.get(ftype, f"unknown ({ftype})")
        raise ProtocolError(f"expected {FRAME_NAMES[expect]} frame, got {got}")
    sizes = [size] if isinstance(size, int) else size
    if length not in sizes:
        raise ProtocolError(f"{FRAME_NAMES[expect]} frame of {length} bytes, "
                            f"the plan's has {' or '.join(map(str, sizes))}")
    return conn.recv_exact(length)
