"""The explorer ↔ node wire protocol: framing, codecs, and versioning.

Every frame is a 4-byte big-endian unsigned length followed by exactly
that many payload bytes.  Two payload encodings coexist on one stream:

* **JSON (protocol v1, and all control frames in v2)** — UTF-8 JSON
  encoding one message object with a string ``type`` field.  JSON keeps
  the control plane language-agnostic and auditable on the wire.
* **Binary (protocol v2, data plane only)** — a struct-packed batched
  encoding introduced because the JSON data plane cost ~977 bytes and
  1.67 frames *per test* (see ``docs/PERFORMANCE.md``).  A binary
  payload is recognized by its first byte, :data:`BINARY_MAGIC`
  (``0xAF``); a JSON object always starts with ``{`` so the two cannot
  be confused.  One ``work`` frame carries N packed requests; one
  ``report_batch`` frame carries N packed reports *plus* the node's
  free-slot count, so the v1 per-test ``report`` frames and the
  trailing ``ready`` frame collapse into a single frame per chunk.

Neither encoding is ever pickle: a garbage frame from a hostile or
corrupted peer is a :class:`WireError`, never remote code execution and
never a crashed manager.

The protocol is **negotiated**: the first frame on a connection is the
node's JSON ``hello`` carrying the highest version it speaks
(``version``) and the lowest it accepts (``min_version``, default: the
same).  The manager answers ``welcome`` with the agreed version —
``min(manager_max, node_max)`` — or ``error`` and a close when the
ranges do not overlap.  A v1 JSON node therefore still pairs with a v2
manager and completes a whole campaign over the v1 data plane.

Message types (direction, purpose):

================  ==============  ==============================================
``hello``         node → manager  register: version range, node name, capacity
``welcome``       manager → node  registration accepted (carries agreed version)
``error``         manager → node  registration refused; connection closes
``ready``         node → manager  pull: node has ``slots`` free executors
``work``          manager → node  a chunk of :class:`TestRequest` payloads
``idle``          manager → node  no work right now; re-``ready`` after a beat
``report``        node → manager  v1: one completed :class:`TestReport`
``report_batch``  node → manager  v2: N packed reports + free-slot count
``heartbeat``     node → manager  liveness + load accounting
``drain``         node → manager  v3: graceful leave — stop feeding me, retire
                                  me once my in-flight backlog empties
``steal``         manager → node  v3: revoke ``ids`` reassigned to another node
``digests``       manager → node  v3: fleet result-cache digests (dedup sync)
``shutdown``      manager → node  campaign over: drain in-flight work and exit
``bye``           node → manager  graceful disconnect
================  ==============  ==============================================

:class:`TestRequest` and :class:`TestReport` are dataclasses of
built-in types.  Both encodings canonicalize the same way (tuple ↔
sequence, frozenset ↔ sorted sequence — the convention
:mod:`repro.core.checkpoint` uses), so a fault scenario or an injection
stack round-trips either wire bit-exactly and the two data planes are
digest-compatible.

Binary payload layout (all integers are LEB128 varints; signed values
zigzag-encoded; floats are big-endian IEEE-754 doubles)::

    payload   := 0xAF kind body
              |  0xAE inflated_size zlib(0xAF kind body)
                 (frames past 256 raw bytes travel deflated when that
                  is actually smaller; ``inflated_size`` bounds the
                  receiver's decompression, so a zip bomb dies on the
                  envelope check)
    kind      := 0x01 (work) | 0x02 (report_batch)
    work      := count request*
    request   := id subspace:str naxes (name:str value)* trace parent
    reports   := slots count report*
    report    := id manager:str flags [crash_kind:str] exit_code
                 ncov str* [nstack value*] steps nmeas (str number)*
                 cost:f64 nviol value* nspans value* [digest:str]
                 [nprov prov*]
    prov      := seq function:str call_number kind:str rflags
                 [resource:str]   (rflags bit0 = injected,
                                   bit1 = resource present)
    value     := tag payload   (None/bool/int/float/str/tuple/
                                frozenset/str-keyed dict)
    number    := 0x01 svarint  (integral values — most sensor
                                measurements are counters)
              |  0x00 f64

Strings are **interned per frame**: the first occurrence is sent
inline and assigned the next table index, later occurrences are a
1–2 byte back-reference.  Coverage sets repeat the same block names
across a batch's reports, which is where the bulk of the v1 byte cost
went.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib

from repro.cluster.messages import TestReport, TestRequest
from repro.core.cache import _canonical, _decanonical
from repro.errors import ClusterError

__all__ = [
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_BATCH_ITEMS",
    "BINARY_MAGIC",
    "DEFLATE_MAGIC",
    "WireError",
    "negotiate_version",
    "encode_frame",
    "encode_work_frame",
    "encode_report_frame",
    "decode_binary_frame",
    "send_frame",
    "recv_frame",
    "request_to_wire",
    "request_from_wire",
    "report_to_wire",
    "report_from_wire",
    "parse_endpoint",
]

#: the highest protocol version this build speaks; bump on any
#: incompatible change to framing or schemas.  v2 introduced the binary
#: data plane; v3 keeps it and adds the elastic-fleet JSON control
#: frames (``drain``, ``steal``, ``digests``) — still gated on the
#: negotiated version because a v2 peer, although it would *ignore* an
#: unknown well-framed type, must never be relied on to act on one.
PROTOCOL_VERSION = 3

#: the lowest version this build still interoperates with (the v1 JSON
#: data plane is kept alive for mixed fleets during a rolling upgrade).
MIN_PROTOCOL_VERSION = 1

#: upper bound on one frame's payload.  A report batch for the largest
#: simulated run is a few hundred kilobytes; anything near this bound
#: is a corrupted or malicious length prefix, not a real message.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: upper bound on requests/reports in one binary frame — a hostile
#: count must not convince the decoder to loop forever.
MAX_BATCH_ITEMS = 4096

#: first payload byte of a binary frame.  JSON payloads always start
#: with ``{`` (0x7B), so one byte disambiguates the encodings.
BINARY_MAGIC = 0xAF

#: first payload byte of a deflated binary frame: ``0xAE`` + uvarint
#: inflated-size + zlib stream of a :data:`BINARY_MAGIC` payload.
DEFLATE_MAGIC = 0xAE

#: deflate payloads above this size; below it the zlib header costs
#: more than the repetition it removes.
_DEFLATE_THRESHOLD = 256

_LENGTH = struct.Struct(">I")
_F64 = struct.Struct(">d")

_KIND_WORK = 0x01
_KIND_REPORT_BATCH = 0x02

#: value tags for the binary encoding.
_T_NONE, _T_FALSE, _T_TRUE, _T_INT, _T_FLOAT = 0, 1, 2, 3, 4
_T_STR, _T_TUPLE, _T_FROZENSET, _T_DICT = 5, 6, 7, 8

#: nesting bound for encoded values — scenario values are shallow;
#: anything deeper is hostile or a bug, and unbounded recursion on
#: decode would be a remote crash vector.
_MAX_VALUE_DEPTH = 32

#: varint byte bound: 64 payload bytes ≈ 448 bits of integer, far past
#: any legitimate request id, count, or scenario value.
_MAX_VARINT_BYTES = 64


class WireError(ClusterError):
    """A frame was truncated, oversized, or not a valid protocol payload."""


def negotiate_version(hello: dict) -> int | None:
    """The protocol version to speak with this peer, or None to refuse.

    The peer advertises the highest version it speaks (``version``) and
    optionally the lowest it accepts (``min_version``, defaulting to
    ``version``).  The agreed version is the highest both sides speak;
    the handshake fails only when the ranges do not overlap.
    """
    top = hello.get("version")
    if not isinstance(top, int) or isinstance(top, bool):
        return None
    low = hello.get("min_version", top)
    if not isinstance(low, int) or isinstance(low, bool) or low > top:
        return None
    agreed = min(PROTOCOL_VERSION, top)
    if agreed < low or agreed < MIN_PROTOCOL_VERSION:
        return None
    return agreed


def _framed(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return _LENGTH.pack(len(payload)) + payload


def _framed_binary(payload: bytes) -> bytes:
    """Frame a binary payload, deflating it when that actually pays.

    Coverage block names and axis values repeat heavily inside a batch;
    past :data:`_DEFLATE_THRESHOLD` bytes zlib roughly halves the frame
    on top of interning.  The envelope records the inflated size so the
    receiver can bound decompression before trusting the stream.
    """
    if len(payload) > _DEFLATE_THRESHOLD:
        size = bytearray()
        n = len(payload)
        while n > 0x7F:
            size.append((n & 0x7F) | 0x80)
            n >>= 7
        size.append(n)
        deflated = (
            bytes([DEFLATE_MAGIC]) + bytes(size)
            + zlib.compress(payload, 6)
        )
        if len(deflated) < len(payload):
            return _framed(deflated)
    return _framed(payload)


def _inflate(payload: bytes) -> bytes:
    """Undo the :data:`DEFLATE_MAGIC` envelope, bombs rejected."""
    r = _Reader(payload)
    if r.byte() != DEFLATE_MAGIC:
        raise WireError("not a deflated payload")
    size = r.uvarint()
    if size == 0 or size > MAX_FRAME_BYTES:
        raise WireError(f"deflated frame claims {size} inflated bytes")
    stream = zlib.decompressobj()
    try:
        # max_length = size + 1: one byte of slack so an overlong
        # stream is detected as a mismatch instead of truncated silently.
        inflated = stream.decompress(payload[r.pos:], size + 1)
    except zlib.error as exc:
        raise WireError(f"corrupt deflate stream: {exc}") from None
    if len(inflated) != size or not stream.eof or stream.unused_data \
            or stream.unconsumed_tail:
        raise WireError("deflated frame does not match its declared size")
    return inflated


def encode_frame(message: dict) -> bytes:
    """One JSON message as bytes: 4-byte big-endian length + UTF-8 JSON."""
    return _framed(json.dumps(message, separators=(",", ":")).encode("utf-8"))


def send_frame(sock: socket.socket, message: dict) -> int:
    """Write one framed JSON message; returns the bytes put on the wire."""
    data = encode_frame(message)
    sock.sendall(data)
    return len(data)


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes, or None on clean EOF at a frame
    boundary; EOF *inside* a frame is a :class:`WireError`."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if len(chunks) == 0:
                return None
            raise WireError(
                f"connection closed mid-frame "
                f"({count - remaining}/{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, counter: "object | None" = None
) -> dict | None:
    """Read one framed message; None on clean EOF.

    ``counter``, when given, is called with the frame's total wire size
    (header + payload) — how the manager accounts inbound bytes without
    a second pass over the stream.

    A payload starting with :data:`BINARY_MAGIC` is decoded by the v2
    binary codec (``work`` frames yield :class:`TestRequest` objects in
    ``requests``; ``report_batch`` frames yield :class:`TestReport`
    objects in ``reports`` plus ``slots``); anything else is parsed as
    JSON.  Raises :class:`WireError` on a truncated frame, an oversized
    or zero length prefix, undecodable bytes, or a payload that is not
    a typed message — the caller must treat the connection as poisoned
    (framing state is unrecoverable once the byte stream
    desynchronizes).
    """
    header = _recv_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    # A partial header is mid-frame EOF too, handled in _recv_exactly.
    (length,) = _LENGTH.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise WireError(f"invalid frame length {length}")
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise WireError("connection closed between length prefix and payload")
    if counter is not None:
        counter(_LENGTH.size + length)
    if payload[0] in (BINARY_MAGIC, DEFLATE_MAGIC):
        return decode_binary_frame(payload)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise WireError(f"frame is not a typed message object: {message!r}")
    return message


# -- binary codec (protocol v2) -------------------------------------------------


class _Writer:
    """Accumulates one binary payload with per-frame string interning."""

    __slots__ = ("buf", "_strings")

    def __init__(self) -> None:
        self.buf = bytearray()
        self._strings: dict[str, int] = {}

    def uvarint(self, n: int) -> None:
        buf = self.buf
        while n > 0x7F:
            buf.append((n & 0x7F) | 0x80)
            n >>= 7
        buf.append(n)

    def svarint(self, n: int) -> None:
        # Unbounded zigzag: non-negative n → 2n, negative n → -2n - 1.
        self.uvarint(-2 * n - 1 if n < 0 else 2 * n)

    def f64(self, v: float) -> None:
        self.buf += _F64.pack(v)

    def number(self, v: float) -> None:
        """A float that is usually a small integer (sensor measurements
        are almost all counters): 1 + zigzag varint when the value is
        integral, 0 + raw IEEE-754 otherwise.  Lossless both ways."""
        if v.is_integer() and abs(v) < 2.0 ** 53:
            self.buf.append(1)
            self.svarint(int(v))
        else:
            self.buf.append(0)
            self.f64(v)

    def string(self, s: str) -> None:
        """Interned string: index+1 back-reference, or 0 + inline bytes."""
        index = self._strings.get(s)
        if index is not None:
            self.uvarint(index + 1)
            return
        self.uvarint(0)
        raw = s.encode("utf-8")
        self.uvarint(len(raw))
        self.buf += raw
        self._strings[s] = len(self._strings)

    def value(self, v: object, depth: int = 0) -> None:
        """One tagged value; mirrors the JSON codec's canonicalization
        (lists encode as tuples, sets as frozensets)."""
        if depth > _MAX_VALUE_DEPTH:
            raise WireError(f"value nests deeper than {_MAX_VALUE_DEPTH}")
        buf = self.buf
        if v is None:
            buf.append(_T_NONE)
        elif v is True:
            buf.append(_T_TRUE)
        elif v is False:
            buf.append(_T_FALSE)
        elif isinstance(v, int):
            buf.append(_T_INT)
            self.svarint(v)
        elif isinstance(v, float):
            buf.append(_T_FLOAT)
            self.f64(v)
        elif isinstance(v, str):
            buf.append(_T_STR)
            self.string(v)
        elif isinstance(v, (tuple, list)):
            buf.append(_T_TUPLE)
            self.uvarint(len(v))
            for item in v:
                self.value(item, depth + 1)
        elif isinstance(v, (frozenset, set)):
            buf.append(_T_FROZENSET)
            items = sorted(v, key=repr)  # deterministic bytes
            self.uvarint(len(items))
            for item in items:
                self.value(item, depth + 1)
        elif isinstance(v, dict):
            buf.append(_T_DICT)
            self.uvarint(len(v))
            for key in sorted(v):  # deterministic bytes
                if not isinstance(key, str):
                    raise WireError(
                        f"wire dicts need string keys, got {key!r}"
                    )
                self.string(key)
                self.value(v[key], depth + 1)
        else:
            raise WireError(
                f"cannot encode a {type(v).__name__} on wire v2: {v!r}"
            )


class _Reader:
    """Bounds-checked decoder over one binary payload."""

    __slots__ = ("data", "pos", "_strings")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self._strings: list[str] = []

    def _need(self, count: int) -> None:
        if self.pos + count > len(self.data):
            raise WireError(
                f"binary frame truncated at byte {self.pos} "
                f"(wanted {count} more of {len(self.data)})"
            )

    def byte(self) -> int:
        self._need(1)
        b = self.data[self.pos]
        self.pos += 1
        return b

    def uvarint(self) -> int:
        result = 0
        shift = 0
        for _ in range(_MAX_VARINT_BYTES):
            b = self.byte()
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                return result
            shift += 7
        raise WireError(f"varint longer than {_MAX_VARINT_BYTES} bytes")

    def svarint(self) -> int:
        u = self.uvarint()
        return -((u + 1) >> 1) if u & 1 else u >> 1

    def f64(self) -> float:
        self._need(8)
        (v,) = _F64.unpack_from(self.data, self.pos)
        self.pos += 8
        return v

    def number(self) -> float:
        form = self.byte()
        if form == 1:
            return float(self.svarint())
        if form == 0:
            return self.f64()
        raise WireError(f"unknown number form {form}")

    def count(self, what: str) -> int:
        """A collection length; bounded by the bytes actually present
        (every element costs at least one byte), so a hostile count
        fails here instead of sizing a giant allocation."""
        n = self.uvarint()
        if n > len(self.data) - self.pos:
            raise WireError(f"{what} count {n} exceeds the frame")
        return n

    def string(self) -> str:
        index = self.uvarint()
        if index == 0:
            length = self.count("string byte")
            raw = self.data[self.pos:self.pos + length]
            self.pos += length
            try:
                s = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireError(f"undecodable interned string: {exc}") from None
            self._strings.append(s)
            return s
        if index > len(self._strings):
            raise WireError(f"string back-reference {index} out of range")
        return self._strings[index - 1]

    def value(self, depth: int = 0) -> object:
        if depth > _MAX_VALUE_DEPTH:
            raise WireError(f"value nests deeper than {_MAX_VALUE_DEPTH}")
        tag = self.byte()
        if tag == _T_NONE:
            return None
        if tag == _T_FALSE:
            return False
        if tag == _T_TRUE:
            return True
        if tag == _T_INT:
            return self.svarint()
        if tag == _T_FLOAT:
            return self.f64()
        if tag == _T_STR:
            return self.string()
        if tag == _T_TUPLE:
            return tuple(
                self.value(depth + 1) for _ in range(self.count("tuple"))
            )
        if tag == _T_FROZENSET:
            return frozenset(
                self.value(depth + 1) for _ in range(self.count("frozenset"))
            )
        if tag == _T_DICT:
            return {
                self.string(): self.value(depth + 1)
                for _ in range(self.count("dict"))
            }
        raise WireError(f"unknown value tag {tag}")

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise WireError(
                f"{len(self.data) - self.pos} trailing bytes after payload"
            )


def _batch_count(writer: _Writer, items: int, what: str) -> None:
    if items > MAX_BATCH_ITEMS:
        raise WireError(
            f"refusing to pack {items} {what} in one frame "
            f"(limit {MAX_BATCH_ITEMS})"
        )
    writer.uvarint(items)


def encode_work_frame(requests: "list[TestRequest]") -> bytes:
    """N requests as one framed v2 binary ``work`` payload."""
    w = _Writer()
    w.buf.append(BINARY_MAGIC)
    w.buf.append(_KIND_WORK)
    _batch_count(w, len(requests), "requests")
    for request in requests:
        w.svarint(request.request_id)
        w.string(request.subspace)
        w.uvarint(len(request.scenario))
        for name, value in request.scenario.items():
            w.string(name)
            w.value(value)
        w.value(request.trace_id)
        w.value(request.parent_span)
    return _framed_binary(bytes(w.buf))


# report flag bits.
_F_FAILED, _F_INJECTED = 0x01, 0x02
_F_CRASH_KIND, _F_STACK, _F_DIGEST = 0x04, 0x08, 0x10
#: report carries a call-level provenance log (absent on non-replay
#: runs, so ordinary campaign frames stay byte-identical).
_F_PROVENANCE = 0x20


def encode_report_frame(
    reports: "list[TestReport]", slots: int = 0
) -> bytes:
    """N reports + the node's free-slot count as one framed v2 payload.

    ``slots`` piggybacks the backpressure credit that v1 sent as a
    separate ``ready`` frame — one frame per chunk instead of N+1.
    ``coverage`` is sorted so identical reports encode to identical
    bytes.
    """
    if slots < 0:
        raise WireError(f"slots must be non-negative, got {slots}")
    w = _Writer()
    w.buf.append(BINARY_MAGIC)
    w.buf.append(_KIND_REPORT_BATCH)
    w.uvarint(slots)
    _batch_count(w, len(reports), "reports")
    for report in reports:
        w.svarint(report.request_id)
        w.string(report.manager)
        flags = (
            (_F_FAILED if report.failed else 0)
            | (_F_INJECTED if report.injected else 0)
            | (_F_CRASH_KIND if report.crash_kind is not None else 0)
            | (_F_STACK if report.injection_stack is not None else 0)
            | (_F_DIGEST if report.stack_digest is not None else 0)
            | (_F_PROVENANCE if report.provenance else 0)
        )
        w.buf.append(flags)
        if report.crash_kind is not None:
            w.string(str(report.crash_kind))
        w.svarint(report.exit_code)
        blocks = sorted(report.coverage)
        w.uvarint(len(blocks))
        for block in blocks:
            w.string(block)
        if report.injection_stack is not None:
            w.uvarint(len(report.injection_stack))
            for entry in report.injection_stack:
                w.value(entry)
        w.svarint(report.steps)
        w.uvarint(len(report.measurements))
        for key in sorted(report.measurements):
            w.string(str(key))
            w.number(float(report.measurements[key]))
        w.f64(float(report.cost))
        w.uvarint(len(report.invariant_violations))
        for violation in report.invariant_violations:
            w.value(violation)
        w.uvarint(len(report.spans))
        for span in report.spans:
            w.value(dict(span))
        if report.stack_digest is not None:
            w.string(report.stack_digest)
        if report.provenance:
            # (seq, function, call_number, kind, resource, injected)
            # rows; function/kind/resource names repeat heavily, so the
            # per-frame string interning does the compression.
            w.uvarint(len(report.provenance))
            for row in report.provenance:
                seq, function, call_number, kind, resource, injected = row
                w.uvarint(int(seq))
                w.string(str(function))
                w.uvarint(int(call_number))
                w.string(str(kind))
                rflags = (1 if injected else 0) | (
                    2 if resource is not None else 0
                )
                w.buf.append(rflags)
                if resource is not None:
                    w.string(str(resource))
    return _framed_binary(bytes(w.buf))


def _read_request(r: _Reader) -> TestRequest:
    request_id = r.svarint()
    subspace = r.string()
    scenario: dict[str, object] = {}
    for _ in range(r.count("scenario axis")):
        # Explicit ordering: the subscript-assignment form would
        # evaluate the value before the key.
        name = r.string()
        scenario[name] = r.value()
    trace_id = r.value()
    parent_span = r.value()
    if trace_id is not None and not isinstance(trace_id, str):
        raise WireError(f"trace id must be a string, got {trace_id!r}")
    if parent_span is not None and not isinstance(parent_span, str):
        raise WireError(f"parent span must be a string, got {parent_span!r}")
    return TestRequest(
        request_id=request_id,
        subspace=subspace,
        scenario=scenario,
        trace_id=trace_id,
        parent_span=parent_span,
    )


def _read_report(r: _Reader) -> TestReport:
    request_id = r.svarint()
    manager = r.string()
    flags = r.byte()
    crash_kind = r.string() if flags & _F_CRASH_KIND else None
    exit_code = r.svarint()
    coverage = frozenset(r.string() for _ in range(r.count("coverage block")))
    injection_stack = (
        tuple(r.value() for _ in range(r.count("stack entry")))
        if flags & _F_STACK else None
    )
    steps = r.svarint()
    measurements = {
        r.string(): r.number() for _ in range(r.count("measurement"))
    }
    cost = r.f64()
    invariant_violations = tuple(
        r.value() for _ in range(r.count("violation"))
    )
    spans = tuple(r.value() for _ in range(r.count("span")))
    if not all(isinstance(span, dict) for span in spans):
        raise WireError("report spans must decode to dicts")
    stack_digest = r.string() if flags & _F_DIGEST else None
    provenance: tuple = ()
    if flags & _F_PROVENANCE:
        rows = []
        for _ in range(r.count("provenance record")):
            seq = r.uvarint()
            function = r.string()
            call_number = r.uvarint()
            kind = r.string()
            rflags = r.byte()
            resource = r.string() if rflags & 2 else None
            rows.append(
                (seq, function, call_number, kind, resource,
                 bool(rflags & 1))
            )
        provenance = tuple(rows)
    return TestReport(
        request_id=request_id,
        manager=manager,
        failed=bool(flags & _F_FAILED),
        crash_kind=crash_kind,
        exit_code=exit_code,
        coverage=coverage,
        injection_stack=injection_stack,
        injected=bool(flags & _F_INJECTED),
        steps=steps,
        measurements=measurements,
        cost=cost,
        invariant_violations=invariant_violations,
        spans=spans,
        stack_digest=stack_digest,
        provenance=provenance,
    )


def decode_binary_frame(payload: bytes) -> dict:
    """One v2 binary payload as a typed message dict.

    ``work`` payloads decode to ``{"type": "work", "requests":
    [TestRequest, ...]}``; ``report_batch`` payloads to ``{"type":
    "report_batch", "reports": [TestReport, ...], "slots": int}``.
    Every malformation — bad magic, unknown kind or tag, truncation,
    hostile counts, dangling string references, trailing bytes — is a
    :class:`WireError`; the decoder never raises anything else and
    never executes peer-controlled code.
    """
    try:
        if payload[:1] == bytes([DEFLATE_MAGIC]):
            payload = _inflate(payload)
        r = _Reader(payload)
        if r.byte() != BINARY_MAGIC:
            raise WireError("binary payload without magic byte")
        kind = r.byte()
        if kind == _KIND_WORK:
            n = r.count("request")
            if n > MAX_BATCH_ITEMS:
                raise WireError(f"work batch of {n} exceeds {MAX_BATCH_ITEMS}")
            message: dict = {
                "type": "work",
                "requests": [_read_request(r) for _ in range(n)],
            }
        elif kind == _KIND_REPORT_BATCH:
            slots = r.uvarint()
            n = r.count("report")
            if n > MAX_BATCH_ITEMS:
                raise WireError(
                    f"report batch of {n} exceeds {MAX_BATCH_ITEMS}"
                )
            message = {
                "type": "report_batch",
                "slots": slots,
                "reports": [_read_report(r) for _ in range(n)],
            }
        else:
            raise WireError(f"unknown binary frame kind {kind}")
        r.finish()
        return message
    except WireError:
        raise
    except Exception as exc:
        # Defense in depth: any decoder bug surfaces as a poisoned
        # frame, not a crashed manager thread.
        raise WireError(f"malformed binary frame: {exc!r}") from None


# -- value canonicalization -----------------------------------------------------


# -- JSON message codecs (protocol v1 data plane) -------------------------------


def request_to_wire(request: TestRequest) -> dict:
    """A :class:`TestRequest` as a JSON-safe payload dict."""
    return {
        "request_id": request.request_id,
        "subspace": request.subspace,
        "scenario": [
            [name, _canonical(value)]
            for name, value in request.scenario.items()
        ],
        "trace_id": request.trace_id,
        "parent_span": request.parent_span,
    }


def request_from_wire(payload: dict) -> TestRequest:
    try:
        return TestRequest(
            request_id=int(payload["request_id"]),
            subspace=str(payload["subspace"]),
            scenario={
                str(name): _decanonical(value)
                for name, value in payload["scenario"]
            },
            trace_id=payload.get("trace_id"),
            parent_span=payload.get("parent_span"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed test request: {exc!r}") from None


def report_to_wire(report: TestReport) -> dict:
    """A :class:`TestReport` as a JSON-safe payload dict.

    ``coverage`` is sorted so identical reports encode to identical
    bytes; ``spans`` are already plain dicts (see
    :func:`repro.obs.trace.worker_spans`), so worker-side trace spans
    cross the wire unchanged.
    """
    payload = {
        "request_id": report.request_id,
        "manager": report.manager,
        "failed": report.failed,
        "crash_kind": report.crash_kind,
        "exit_code": report.exit_code,
        "coverage": sorted(report.coverage),
        "injection_stack": (
            list(report.injection_stack)
            if report.injection_stack is not None else None
        ),
        "injected": report.injected,
        "steps": report.steps,
        "measurements": dict(report.measurements),
        "cost": report.cost,
        "invariant_violations": list(report.invariant_violations),
        "spans": [dict(span) for span in report.spans],
        "stack_digest": report.stack_digest,
    }
    if report.provenance:
        # Only present on replay-path reports, so ordinary campaign
        # frames are byte-identical with or without the field.
        payload["provenance"] = [list(row) for row in report.provenance]
    return payload


def report_from_wire(payload: dict) -> TestReport:
    try:
        return TestReport(
            request_id=int(payload["request_id"]),
            manager=str(payload["manager"]),
            failed=bool(payload["failed"]),
            crash_kind=payload["crash_kind"],
            exit_code=int(payload["exit_code"]),
            coverage=frozenset(payload["coverage"]),
            injection_stack=(
                tuple(payload["injection_stack"])
                if payload["injection_stack"] is not None else None
            ),
            injected=bool(payload["injected"]),
            steps=int(payload["steps"]),
            measurements={
                str(k): float(v) for k, v in payload["measurements"].items()
            },
            cost=float(payload["cost"]),
            invariant_violations=tuple(payload["invariant_violations"]),
            spans=tuple(payload.get("spans", ())),
            stack_digest=payload.get("stack_digest"),
            provenance=tuple(
                tuple(row) for row in payload.get("provenance", ())
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed test report: {exc!r}") from None


def parse_endpoint(text: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``, validating the port range."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ClusterError(
            f"endpoint must look like HOST:PORT, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ClusterError(f"invalid port in endpoint {text!r}") from None
    if not 0 <= port <= 65535:
        raise ClusterError(f"port out of range in endpoint {text!r}")
    return host, port
