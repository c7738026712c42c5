"""Two-party wire protocol: framing, transports, transcripts, sessions."""

from .framing import (ACCEPT, CLIENT_SETUP, FRAME_NAMES, HELLO, LOGITS,
                      MM_OPEN, MM_REPLY, OT_BASE, STAGE_OPEN, STAGE_OT_REQ,
                      STAGE_OT_RESP, STAGE_SHARE, read_frame, write_frame)
from .session import (ClientResult, Geometry, ServerResult, private_inference,
                      run_client, run_server, session_geometry)
from .transcript import FrameInfo, Transcript
from .transport import (QueueConn, SocketConn, memory_pair, run_pair,
                        tcp_accept, tcp_dial, tcp_listen)

__all__ = [
    "ACCEPT", "CLIENT_SETUP", "FRAME_NAMES", "HELLO", "LOGITS", "MM_OPEN",
    "MM_REPLY", "OT_BASE", "STAGE_OPEN", "STAGE_OT_REQ", "STAGE_OT_RESP",
    "STAGE_SHARE",
    "ClientResult", "FrameInfo", "Geometry", "QueueConn", "ServerResult",
    "SocketConn", "Transcript", "memory_pair", "private_inference",
    "read_frame", "run_client", "run_pair", "run_server", "session_geometry",
    "tcp_accept", "tcp_dial", "tcp_listen", "write_frame",
]
