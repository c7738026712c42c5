"""Session accounting: every frame, every byte, and the op-level events.

A round is one frame in either direction, so both parties end a session with
the same round count.  The garbled-circuit material moved during stages
(the derandomization bits of stage-ot-req, then the tables and the B2A
corrections of stage-ot-resp; no input label travels) is counted from those
frames apart from ciphertext traffic, so transfer comparisons between modes
measure what they claim to.  The transcript keeps sizes, not bytes: it
hashes nothing, and whoever needs a session's bytes reads them off the
connection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .framing import FRAME_NAMES, STAGE_OT_REQ, STAGE_OT_RESP


@dataclass(frozen=True)
class FrameInfo:
    seq: int
    direction: str  # "sent" | "received"
    ftype: int
    nbytes: int     # payload bytes

    @property
    def name(self) -> str:
        return FRAME_NAMES[self.ftype]


@dataclass
class Transcript:
    role: str
    frames: list[FrameInfo] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return len(self.frames)

    @property
    def bytes_sent(self) -> int:
        return sum(f.nbytes for f in self.frames if f.direction == "sent")

    @property
    def gc_online_bytes(self) -> int:
        """The garbled-circuit material of every stage, in both directions:
        the payloads of its stage-ot-req and stage-ot-resp frames."""
        return sum(f.nbytes for f in self.frames
                   if f.ftype in (STAGE_OT_REQ, STAGE_OT_RESP))

    def record(self, direction: str, ftype: int, payload: bytes):
        self.frames.append(FrameInfo(len(self.frames), direction, ftype,
                                     len(payload)))

    def add_event(self, **fields):
        self.events.append(dict(fields))
