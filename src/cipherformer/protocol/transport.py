"""Byte transports the framed protocol runs over.

Both transports expose the same two calls (`send`, `recv_exact`), so the
session code is transport-blind: an in-memory queue pair for tests and
single-process runs, and TCP sockets (`tcp_listen`, `tcp_accept`,
`tcp_dial`) for parties in separate processes.  `run_pair` drives the two
parties on threads and re-raises whichever side failed.
"""

from __future__ import annotations

import queue
import socket
import threading

from ..errors import ProtocolError

# a TCP read that gets no byte for this long fails, and so does a send the
# peer does not take in within it, so a stalled peer cannot hold a party
# open; the longest honest wait is the peer's compute between two frames
READ_DEADLINE_S = 120.0


class QueueConn:
    """One endpoint of an in-memory duplex byte stream."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._inbox = inbox
        self._outbox = outbox
        self._buf = bytearray()
        self._closed = False

    def send(self, data: bytes):
        if self._closed:
            raise ProtocolError("connection closed")
        self._outbox.put(bytes(data))

    def recv_exact(self, n: int) -> bytes:
        while len(self._buf) < n:
            chunk = self._inbox.get()
            if chunk is None:
                raise ProtocolError("peer closed the connection")
            self._buf.extend(chunk)
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def close(self):
        if not self._closed:
            self._closed = True
            self._outbox.put(None)


def memory_pair() -> tuple[QueueConn, QueueConn]:
    a2b: queue.Queue = queue.Queue()
    b2a: queue.Queue = queue.Queue()
    return QueueConn(b2a, a2b), QueueConn(a2b, b2a)


class SocketConn:
    """Socket wrapper with exact reads."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, data: bytes):
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ProtocolError(f"send failed: {exc}") from exc

    def recv_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except TimeoutError:
                raise ProtocolError(
                    f"no data from the peer within the "
                    f"{self._sock.gettimeout()} s read deadline") from None
            except OSError as exc:
                raise ProtocolError(f"recv failed: {exc}") from exc
            if not chunk:
                raise ProtocolError("peer closed the connection")
            buf.extend(chunk)
        return bytes(buf)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def tcp_listen(host: str, port: int) -> socket.socket:
    srv = socket.create_server((host, port))
    srv.listen(1)
    return srv


def tcp_accept(srv: socket.socket) -> SocketConn:
    sock, _addr = srv.accept()
    sock.settimeout(READ_DEADLINE_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return SocketConn(sock)


def tcp_dial(host: str, port: int, timeout: float = 10.0) -> SocketConn:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ProtocolError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.settimeout(READ_DEADLINE_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return SocketConn(sock)


def run_pair(server_fn, client_fn):
    """Run both parties over an in-memory pair; returns (server, client)
    results, re-raising the first failure from either thread.  A party
    records its failure before it closes its end, so the peer's follow-on
    `ProtocolError` (peer closed the connection) always comes second."""
    sconn, cconn = memory_pair()
    results: dict[str, object] = {}
    errors: list[BaseException] = []

    def wrap(name, fn, conn):
        try:
            results[name] = fn(conn)
        except BaseException as exc:  # noqa: BLE001 - ferried to the caller
            errors.append(exc)
            conn.close()

    ts = threading.Thread(target=wrap, args=("server", server_fn, sconn))
    tc = threading.Thread(target=wrap, args=("client", client_fn, cconn))
    ts.start()
    tc.start()
    ts.join()
    tc.join()
    if errors:
        raise errors[0]
    return results["server"], results["client"]
