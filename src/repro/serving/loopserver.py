"""The serving transport: one single-threaded ``selectors`` event loop.

:class:`LoopServer` serves the :mod:`repro.serving.protocol` envelopes of one
:class:`~repro.serving.server.ReproServer` from **one** thread, and every
``repro serve`` mode runs on it:

**stdio** (:meth:`LoopServer.add_stream`, ``repro serve [--stdio]``)
    Newline-delimited JSON: one reply line per non-blank request line, in
    order, so a pipelined client matches replies to requests by position.
    EOF on the input winds the loop down (final snapshot included).  Any
    stdin works: the loop waits in ``poll(2)``, which (unlike epoll)
    accepts regular files and ``/dev/null`` and reports them always
    ready.  A regular file is read only once that peer's replies have
    drained, so ``repro serve < requests.jsonl | slow-reader`` is paced by
    its reader.

**TCP** (:meth:`LoopServer.listen`, ``repro serve --tcp HOST:PORT``)
    The same lines over persistent sockets, many at once.

**HTTP** (``listen(..., http=True)``, ``repro serve --http HOST:PORT``)
    One request per connection, answered with ``HTTP/1.0`` and closed once
    the reply has drained.  ``POST`` (any path) with an envelope body
    returns 200 and the reply, error envelopes included.  A missing
    Content-Length is a 411, a malformed or negative one a 400, one past
    :data:`MAX_LINE_BYTES` a 413, and a body that is not UTF-8 JSON a 400.
    ``GET /`` and ``GET /stats`` (query strings tolerated) answer the
    ``stats`` op and ``GET /metrics`` renders the same counters as
    Prometheus text; other paths are 404 and other methods 501.  Every
    error body is an error envelope, and every request logs one stderr
    access line.  A connection that sends and accepts nothing for 60 s is
    dropped, so stalled peers cannot hold the server's fds for ever.

Sockets and pipes are non-blocking.  Replies buffer per peer and drain as
the peer accepts them, so a slow client never blocks the loop: it only grows
its own buffer, and a buffer past ``max_buffer`` gets the peer dropped with
one stderr line (back-pressure by eviction, not by stalling everyone else).
A peer that vanishes mid-reply costs the same single line.  An unexpected
error while answering one peer drops that peer (its traceback goes to
stderr) and the others are still served.  At the process's fd limit
(``EMFILE``/``ENFILE``) the loop stops watching the listener -- new peers
wait in the kernel's backlog -- and watches it again once a connection
closes, so a full fd table costs no CPU.

Request handling itself is synchronous -- a solve runs to completion
before the next envelope is parsed -- which is the right trade for this
workload: placement ops are CPU-bound, so interleaving them buys nothing,
while batched envelopes amortise the parse/reply cycle around them.
"""

from __future__ import annotations

import errno
import json
import os
import re
import selectors
import socket
import stat
import sys
import time
import traceback
from http import HTTPStatus
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.serving.metrics import render_prometheus
from repro.serving.protocol import error_envelope
from repro.serving.server import ReproServer

__all__ = ["LoopServer", "MAX_LINE_BYTES"]

#: Longest accepted request line or HTTP body (16 MiB): far above any real
#: envelope (a 400-node problem serialises to a few hundred KiB) and small
#: enough that a hostile stream cannot balloon the server.  A line still
#: unterminated past this drops the connection; a longer body is a 413.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: An HTTP request head still unterminated past this drops the connection.
_MAX_HEAD_BYTES = 65536

#: An HTTP connection that reads and writes nothing for this long is dropped.
_HTTP_IDLE_SECONDS = 60.0

_READ_CHUNK = 65536
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Connection:
    """One peer: separate read/write fds, an input and an output buffer."""

    __slots__ = (
        "rfd", "wfd", "sock", "name", "http", "inbuf", "outbuf", "eof",
        "paced", "active", "blocking",
    )

    def __init__(
        self,
        rfd: int,
        wfd: int,
        *,
        sock: Optional[socket.socket] = None,
        name: str = "stream",
        http: bool = False,
    ) -> None:
        self.rfd = rfd
        self.wfd = wfd
        self.sock = sock  # kept so close() releases the socket object
        self.name = name
        self.http = http  # one HTTP request, then close
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.eof = False  # nothing more will be read
        self.paced = False  # read only once the replies have drained
        self.active = time.monotonic()  # last read or write (HTTP idle deadline)
        #: blocking mode of each adopted stream fd, given back on close
        self.blocking: Dict[int, bool] = {}


class LoopServer:
    """Serve envelopes over streams, TCP and HTTP from one ``selectors`` loop.

    Parameters
    ----------
    server:
        The :class:`~repro.serving.server.ReproServer` answering envelopes.
    max_buffer:
        Per-connection cap on *buffered, undelivered* reply bytes.  A peer
        that falls further behind than this is dropped (one stderr line)
        instead of growing the buffer without bound.  Peers whose reads
        are paced by their replies (see :meth:`add_stream`) are exempt.

    Typical use::

        loop = LoopServer(server)
        host, port = loop.listen("127.0.0.1", 8485)   # http=True for HTTP
        loop.serve()            # until shutdown() or KeyboardInterrupt

    or, for stdin/stdout::

        loop.add_stream(sys.stdin.fileno(), sys.stdout.fileno())
        loop.serve()            # until EOF on stdin
    """

    def __init__(self, server: ReproServer, *, max_buffer: int = 8 * 1024 * 1024) -> None:
        if max_buffer <= 0:
            raise ValueError(f"max_buffer must be positive, got {max_buffer}")
        self.server = server
        self.max_buffer = max_buffer
        # poll, unlike epoll, accepts regular files and /dev/null (always
        # ready), so any stdin shares the loop with the sockets.
        self._selector = selectors.PollSelector()
        self._registered: Dict[int, int] = {}  # fd -> event mask
        self._connections: List[_Connection] = []
        self._listener: Optional[socket.socket] = None
        self._accept_paused = False  # listener unwatched until an fd frees up
        self._http = False
        self._running = False
        # Self-pipe so shutdown() from another thread wakes the select.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, "wake")

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def listen(
        self, host: str = "127.0.0.1", port: int = 0, *, http: bool = False
    ) -> Tuple[str, int]:
        """Bind a TCP listener; returns the bound ``(host, port)``.

        Accepted connections speak newline-delimited envelopes, or with
        ``http=True`` carry one HTTP request each.
        """
        if self._listener is not None:
            raise RuntimeError("LoopServer already has a listener")
        listener = socket.create_server((host, port))
        listener.setblocking(False)
        self._listener = listener
        self._http = http
        self._selector.register(listener, selectors.EVENT_READ, "accept")
        return listener.getsockname()[:2]

    def add_stream(self, rfd: int, wfd: int, *, name: str = "stdio") -> None:
        """Adopt a read/write fd pair (e.g. stdin/stdout) as one peer.

        Both fds are switched to non-blocking mode and given back in their
        original mode when the loop closes them, so a terminal or a
        descriptor shared with another process is left as it was found.
        A regular-file read end is always readable, so it is read one chunk
        at a time and only once the peer's replies have drained: a slow
        reader paces the loop instead of getting the peer dropped.
        """
        conn = _Connection(rfd, wfd, name=name)
        conn.paced = stat.S_ISREG(os.fstat(rfd).st_mode)
        # Record every mode before changing any: stdin and stdout of a
        # terminal share one open file description, hence one flag.
        conn.blocking = {fd: os.get_blocking(fd) for fd in (rfd, wfd)}
        for fd in conn.blocking:
            os.set_blocking(fd, False)
        self._connections.append(conn)
        self._update_interest(conn)

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def serve(self) -> int:
        """Run until :meth:`shutdown`, ``KeyboardInterrupt`` or -- with no
        listener -- until the last adopted stream hits EOF.  Snapshots the
        pool on the way out; returns 0."""
        self._running = True
        try:
            while self._running and (self._listener or self._connections):
                for key, _mask in self._selector.select(self._reap_idle()):
                    self._dispatch(key)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            self._running = False
            self._close_all()
            self.server.snapshot_all()
        return 0

    def shutdown(self) -> None:
        """Stop :meth:`serve` from any thread (idempotent)."""
        self._running = False
        try:
            self._wake_send.send(b"x")
        except OSError:  # pragma: no cover - already torn down
            pass

    def _reap_idle(self) -> Optional[float]:
        """Drop HTTP peers idle past the deadline; returns the seconds until
        the next deadline (``None`` when none is pending)."""
        if not self._http:
            return None
        now = time.monotonic()
        for conn in [c for c in self._connections if c.http]:
            if now - conn.active >= _HTTP_IDLE_SECONDS:
                self._drop(conn, f"idle for {_HTTP_IDLE_SECONDS:g} s")
        left = [c.active + _HTTP_IDLE_SECONDS - now for c in self._connections if c.http]
        return min(left, default=None)

    def _dispatch(self, key: selectors.SelectorKey) -> None:
        if key.data == "wake":
            try:
                self._wake_recv.recv(64)
            except BlockingIOError:  # pragma: no cover - spurious wake
                pass
            return
        if key.data == "accept":
            self._accept()
            return
        conn = key.data
        if conn not in self._connections:
            return  # closed earlier in this same select batch
        try:
            if key.fd == conn.rfd and not conn.eof:
                self._read(conn)
            if conn in self._connections and conn.outbuf and key.fd == conn.wfd:
                self._write(conn)
        except Exception:  # noqa: BLE001 - one peer's failure must not stop the rest
            traceback.print_exc()
            self._drop(conn, "internal error")

    def _accept(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, address = self._listener.accept()
            except OSError as error:
                if error.errno in (errno.EMFILE, errno.ENFILE):
                    # The peer stays in the backlog and the listener stays
                    # readable: watching it now would spin the loop.
                    self._selector.unregister(self._listener)
                    self._accept_paused = True
                return  # nothing pending, an aborted peer, or no fds left
            sock.setblocking(False)
            # Replies are whole JSON lines (a batch_result spans many TCP
            # segments); Nagle would hold each line's tail segment for the
            # peer's delayed ACK, adding ~40ms to every large reply.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            fd = sock.fileno()
            conn = _Connection(
                fd, fd, sock=sock, name=f"{address[0]}:{address[1]}", http=self._http
            )
            self._connections.append(conn)
            self._update_interest(conn)

    # ------------------------------------------------------------------ #
    # per-connection I/O
    # ------------------------------------------------------------------ #
    def _read(self, conn: _Connection) -> None:
        try:
            chunk = os.read(conn.rfd, _READ_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn, "connection lost")
            return
        if chunk:
            conn.active = time.monotonic()
            conn.inbuf += chunk
            if conn.http:
                self._consume_http(conn)
            else:
                self._consume_lines(conn)
        else:
            conn.eof = True
            if conn.inbuf and not conn.http:
                # A final line without its newline is still a request, as
                # it is to any line reader.
                conn.inbuf += b"\n"
                self._consume_lines(conn)
        if conn not in self._connections:
            return
        if conn.outbuf:
            # Try to ship replies immediately -- the peer is usually
            # waiting -- falling back to write-readiness when the fd is
            # full (_write arms EVENT_WRITE in that case).
            self._write(conn)
        elif conn.eof:
            self._close(conn)

    def _consume_lines(self, conn: _Connection) -> None:
        while True:
            newline = conn.inbuf.find(b"\n")
            if newline < 0:
                if len(conn.inbuf) > MAX_LINE_BYTES:
                    self._drop(
                        conn,
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                    )
                return
            line = bytes(conn.inbuf[:newline])
            del conn.inbuf[: newline + 1]
            if not line.strip():
                continue
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as error:
                reply = json.dumps(
                    error_envelope("bad_request", f"request line is not UTF-8: {error}"),
                    sort_keys=True,
                )
            else:
                reply = self.server.handle_line(text)
            conn.outbuf += reply.encode("utf-8") + b"\n"
            if len(conn.outbuf) > self.max_buffer and not conn.paced:
                self._drop(
                    conn,
                    f"slow client: {len(conn.outbuf)} undelivered bytes "
                    f"exceed the {self.max_buffer}-byte buffer cap",
                )
                return

    def _consume_http(self, conn: _Connection) -> None:
        """Answer the connection's one request once its head and body are in."""
        end = _HEAD_END.search(conn.inbuf, 0, _MAX_HEAD_BYTES)
        if end is None:
            if len(conn.inbuf) >= _MAX_HEAD_BYTES:
                self._drop(conn, f"request head exceeds {_MAX_HEAD_BYTES} bytes")
            return
        lines = conn.inbuf[: end.start()].decode("latin-1").splitlines()
        request_line = lines[0] if lines else ""
        answer = self._answer_http(conn, request_line, lines[1:], end.end())
        if answer is None:
            return  # the body is still arriving
        status, payload = answer
        if isinstance(payload, str):
            content_type, body = _METRICS_TYPE, payload.encode("utf-8")
        else:
            content_type = "application/json"
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        conn.outbuf += (
            f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
        # One request per connection: ignore anything after it and close
        # once the reply has drained.
        conn.eof = True
        conn.inbuf.clear()
        # ascii() escapes the control characters a client may send.
        print(f'{conn.name} - "{ascii(request_line)[1:-1]}" {status}', file=sys.stderr)

    def _answer_http(
        self, conn: _Connection, request_line: str, header_lines: List[str], body_start: int
    ) -> Optional[Tuple[int, Union[Dict[str, Any], str]]]:
        """Status and payload of one request; ``None`` until its body is in."""
        parts = request_line.split()
        if len(parts) != 3:
            return 400, error_envelope(
                "bad_request", f"malformed request line {request_line!r}"
            )
        method, target, _version = parts
        if method == "GET":
            route = target.partition("?")[0].rstrip("/")
            if route in ("", "/stats"):
                return 200, self.server.handle({"op": "stats"})
            if route == "/metrics":
                return 200, render_prometheus(self.server.pool.stats())
            return 404, error_envelope("bad_request", f"unknown path {target!r}")
        if method != "POST":
            return 501, error_envelope("bad_request", f"unsupported method {method!r}")
        headers: Dict[str, str] = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers.setdefault(name.strip().lower(), value.strip())
        raw = headers.get("content-length")
        if raw is None:
            return 411, error_envelope("bad_request", "Content-Length header required")
        try:
            length = int(raw)
        except ValueError:
            return 400, error_envelope("bad_request", f"malformed Content-Length {raw!r}")
        if length < 0:
            return 400, error_envelope("bad_request", f"negative Content-Length {length}")
        if length > MAX_LINE_BYTES:
            return 413, error_envelope(
                "bad_request",
                f"body of {length} bytes exceeds the {MAX_LINE_BYTES}-byte cap",
            )
        if len(conn.inbuf) - body_start < length:
            return None
        body = bytes(conn.inbuf[body_start : body_start + length])
        try:
            envelope = json.loads(body.decode("utf-8"))
        except UnicodeDecodeError as error:
            return 400, error_envelope("bad_request", f"body is not UTF-8: {error}")
        except (RecursionError, ValueError) as error:  # nesting too deep, or not JSON
            return 400, error_envelope("bad_request", f"request body is not JSON: {error}")
        return 200, self.server.handle(envelope)

    def _write(self, conn: _Connection) -> None:
        try:
            sent = os.write(conn.wfd, conn.outbuf)
        except BlockingIOError:
            self._update_interest(conn)  # wait for write readiness
            return
        except OSError:
            self._drop(conn, "client disconnected mid-reply")
            return
        del conn.outbuf[:sent]
        conn.active = time.monotonic()
        if not conn.outbuf and conn.eof:
            self._close(conn)
        else:
            self._update_interest(conn)

    # ------------------------------------------------------------------ #
    # selector bookkeeping
    # ------------------------------------------------------------------ #
    def _update_interest(self, conn: _Connection) -> None:
        """(Re)register ``conn``'s fds for exactly the events it needs."""
        read_mask = 0 if conn.eof or (conn.paced and conn.outbuf) else selectors.EVENT_READ
        write_mask = selectors.EVENT_WRITE if conn.outbuf else 0
        if conn.rfd == conn.wfd:
            self._set_mask(conn.rfd, read_mask | write_mask, conn)
        else:
            self._set_mask(conn.rfd, read_mask, conn)
            self._set_mask(conn.wfd, write_mask, conn)

    def _set_mask(self, fd: int, mask: int, conn: _Connection) -> None:
        current = self._registered.get(fd)
        if mask == 0:
            if current is not None:
                self._selector.unregister(fd)
                del self._registered[fd]
            return
        if current is None:
            self._selector.register(fd, mask, conn)
        elif current != mask:
            self._selector.modify(fd, mask, conn)
        self._registered[fd] = mask

    def _drop(self, conn: _Connection, reason: str) -> None:
        print(f"loopserver: dropping {conn.name}: {reason}", file=sys.stderr)
        self._close(conn)

    def _close(self, conn: _Connection) -> None:
        for fd in {conn.rfd, conn.wfd}:
            if self._registered.pop(fd, None) is not None:
                self._selector.unregister(fd)
        if conn in self._connections:
            self._connections.remove(conn)
        if self._accept_paused:
            # This close frees an fd: accept the waiting peers again.
            self._accept_paused = False
            self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        if conn.sock is not None:
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
            return
        for fd, blocking in conn.blocking.items():
            try:
                os.set_blocking(fd, blocking)
                os.close(fd)
            except OSError:
                pass

    def _close_all(self) -> None:
        for conn in list(self._connections):
            self._close(conn)
        self._selector.close()  # forgets the listener and wake registrations
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._wake_recv.close()
        self._wake_send.close()
