"""Bidirectional XDR stream (RFC 1014 wire format).

One :class:`XdrStream` object serves both bundling and unbundling.  A
stream is created with an operation, ``XdrOp.ENCODE`` or
``XdrOp.DECODE``; every filter method then either writes its argument
or reads a replacement for it.  This mirrors the paper's
``RPC_XDR_stream->xget_op() == XDR_DECODE`` test in Figure 3.2 — user
bundlers may branch on :meth:`XdrStream.op` when the two directions
differ (typically only for allocation).

Wire format (RFC 1014):

- all quantities big-endian,
- every item occupies a multiple of 4 bytes (opaque/string data is
  zero-padded),
- booleans and enums are 4-byte integers,
- variable-length data is preceded by a 4-byte unsigned length.

Hot-path design (see docs/PERFORMANCE.md):

- every fixed-size format is a module-level precompiled
  :class:`struct.Struct`, so no per-call format parsing;
- DECODE streams read through a :class:`memoryview` — primitives
  unpack straight out of the received buffer (``unpack_from``), and
  variable-length items copy at most once, at the API boundary
  (:meth:`xopaque_view` skips even that copy);
- ENCODE streams draw their ``bytearray`` from a small free list;
  callers on the hot path :meth:`release` the stream when done.  The
  release clears the buffer, which frees its storage, so the list
  saves the object, not the growth (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import enum
import struct
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import XdrError

T = TypeVar("T")

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1
_UINT32_MAX = 2**32 - 1
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_UINT64_MAX = 2**64 - 1
_INT16_MIN = -(2**15)
_INT16_MAX = 2**15 - 1

# A guard against hostile or corrupt length prefixes: no single
# variable-length item may claim more than this many bytes/elements.
DEFAULT_MAX_LENGTH = 64 * 1024 * 1024

# Precompiled fixed-size codecs: one C-level Struct per wire form.
_S_INT = struct.Struct(">i")
_S_UINT = struct.Struct(">I")
_S_HYPER = struct.Struct(">q")
_S_UHYPER = struct.Struct(">Q")
_S_FLOAT = struct.Struct(">f")
_S_DOUBLE = struct.Struct(">d")

#: Zero padding for a payload of n bytes is ``_PAD[n & 3]``.
_PAD = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")

#: Free list of encode buffers; bounded so a burst of huge messages
#: cannot pin memory forever.
_BUFFER_POOL: list[bytearray] = []
_BUFFER_POOL_MAX = 32
_BUFFER_KEEP_BYTES = 1 << 20  # don't pool buffers that grew past 1 MiB

#: ``allowed=`` tuples seen by :meth:`XdrStream.xenum`, hoisted to
#: frozensets once instead of being rebuilt on every call.
_ALLOWED_CACHE: dict[tuple, frozenset] = {}
_ALLOWED_CACHE_MAX = 1024


def _allowed_set(allowed: Iterable[int] | None) -> frozenset | None:
    if allowed is None:
        return None
    if type(allowed) is frozenset:
        return allowed
    if type(allowed) is tuple:
        cached = _ALLOWED_CACHE.get(allowed)
        if cached is None:
            if len(_ALLOWED_CACHE) >= _ALLOWED_CACHE_MAX:
                _ALLOWED_CACHE.clear()
            cached = _ALLOWED_CACHE[allowed] = frozenset(allowed)
        return cached
    return frozenset(allowed)


class XdrOp(enum.Enum):
    """Direction of an XDR stream, after Sun XDR's ``xdr_op``."""

    ENCODE = "encode"
    DECODE = "decode"


def _pad(n: int) -> int:
    """Number of zero bytes needed to pad ``n`` bytes to a 4-byte boundary."""
    return (4 - (n & 3)) & 3


def _as_byte_view(data) -> memoryview:
    """A flat read-only byte view over ``data`` without copying."""
    if isinstance(data, memoryview):
        if data.format != "B" or data.ndim != 1:
            data = data.cast("B")
        return data
    if isinstance(data, (bytes, bytearray)):
        return memoryview(data)
    return memoryview(bytes(data))


class XdrStream:
    """A bidirectional XDR encoder/decoder.

    Create an encoding stream with :meth:`encoder`, fill it through the
    filter methods, and extract the wire bytes with :meth:`getvalue`.
    Create a decoding stream with :meth:`decoder` over received bytes
    and run the *same* filter calls to get the values back.

    Filter methods follow the bidirectional convention: ``value_out =
    stream.xint(value_in)``.  On ENCODE, ``value_in`` is written and
    returned; on DECODE, ``value_in`` is ignored (conventionally
    ``None``) and the decoded value is returned.

    A DECODE stream does not copy its input: it reads through a
    ``memoryview``, so the buffer handed to :meth:`decoder` must stay
    alive (and unmutated) for the stream's lifetime.  Received frames
    satisfy this trivially — they are immutable ``bytes``.
    """

    #: The generated codecs of :mod:`repro.bundlers.compiled` read and
    #: advance these slots directly, as the filter methods do.
    __slots__ = ("_op", "_max_length", "_buffer", "_view", "_pos")

    def __init__(self, op: XdrOp, data: bytes = b"", *, max_length: int = DEFAULT_MAX_LENGTH):
        if not isinstance(op, XdrOp):
            raise XdrError(f"op must be an XdrOp, not {op!r}")
        self._op = op
        self._max_length = max_length
        if op is XdrOp.ENCODE:
            self._buffer = _BUFFER_POOL.pop() if _BUFFER_POOL else bytearray()
            self._view = memoryview(b"")
        else:
            self._buffer = None
            self._view = _as_byte_view(data)
        self._pos = 0

    # -- construction helpers ------------------------------------------------

    @classmethod
    def encoder(cls) -> "XdrStream":
        """Create a stream that bundles values into wire bytes.

        Hot paths should :meth:`release` the stream after
        :meth:`getvalue` so its buffer returns to the pool.
        """
        return cls(XdrOp.ENCODE)

    @classmethod
    def decoder(cls, data, *, max_length: int = DEFAULT_MAX_LENGTH) -> "XdrStream":
        """Create a stream that unbundles values from ``data``.

        ``data`` may be ``bytes``, ``bytearray`` or ``memoryview``; it
        is *not* copied.
        """
        return cls(XdrOp.DECODE, data, max_length=max_length)

    # -- introspection --------------------------------------------------------

    @property
    def op(self) -> XdrOp:
        """The stream direction; the analogue of ``xget_op()``."""
        return self._op

    @property
    def encoding(self) -> bool:
        return self._op is XdrOp.ENCODE

    @property
    def decoding(self) -> bool:
        return self._op is XdrOp.DECODE

    def getvalue(self) -> bytes:
        """Return the bytes bundled so far (ENCODE streams only)."""
        if self._op is not XdrOp.ENCODE:
            raise XdrError("getvalue() is only valid on an ENCODE stream")
        if self._buffer is None:
            raise XdrError("stream has been released")
        return bytes(self._buffer)

    def release(self) -> None:
        """Return an ENCODE stream's buffer to the pool (idempotent).

        After release the stream is dead: :meth:`getvalue` raises.
        Only worth calling on hot paths; an unreleased buffer is
        simply garbage-collected.
        """
        buf = self._buffer
        if buf is None or self._op is not XdrOp.ENCODE:
            return
        self._buffer = None
        if len(_BUFFER_POOL) < _BUFFER_POOL_MAX and len(buf) <= _BUFFER_KEEP_BYTES:
            buf.clear()
            _BUFFER_POOL.append(buf)

    def remaining(self) -> int:
        """Bytes left to consume (DECODE streams only)."""
        if self._op is not XdrOp.DECODE:
            raise XdrError("remaining() is only valid on a DECODE stream")
        return len(self._view) - self._pos

    def expect_exhausted(self) -> None:
        """Raise :class:`XdrError` if a DECODE stream has trailing bytes."""
        if self._op is XdrOp.DECODE and self.remaining() != 0:
            raise XdrError(f"{self.remaining()} trailing bytes after decode")

    # -- raw primitives -------------------------------------------------------

    def _write(self, data) -> None:
        self._buffer += data

    def _read(self, n: int) -> memoryview:
        """Consume ``n`` bytes; returns a view aliasing the input buffer."""
        if n < 0:
            raise XdrError(f"negative read length {n}")
        end = self._pos + n
        if end > len(self._view):
            raise XdrError(
                f"XDR underflow: need {n} bytes at offset {self._pos}, "
                f"have {len(self._view) - self._pos}"
            )
        data = self._view[self._pos:end]
        self._pos = end
        return data

    def _unpack(self, s: struct.Struct):
        end = self._pos + s.size
        if end > len(self._view):
            raise XdrError(
                f"XDR underflow: need {s.size} bytes at offset {self._pos}, "
                f"have {len(self._view) - self._pos}"
            )
        (value,) = s.unpack_from(self._view, self._pos)
        self._pos = end
        return value

    # -- integer filters -------------------------------------------------------

    def xint(self, value: int | None = None) -> int:
        """Signed 32-bit integer."""
        if self._op is XdrOp.ENCODE:
            value = self._check_int(value, _INT32_MIN, _INT32_MAX, "int32")
            self._buffer += _S_INT.pack(value)
            return value
        return self._unpack(_S_INT)

    def xuint(self, value: int | None = None) -> int:
        """Unsigned 32-bit integer."""
        if self._op is XdrOp.ENCODE:
            value = self._check_int(value, 0, _UINT32_MAX, "uint32")
            self._buffer += _S_UINT.pack(value)
            return value
        return self._unpack(_S_UINT)

    def xhyper(self, value: int | None = None) -> int:
        """Signed 64-bit integer."""
        if self._op is XdrOp.ENCODE:
            value = self._check_int(value, _INT64_MIN, _INT64_MAX, "int64")
            self._buffer += _S_HYPER.pack(value)
            return value
        return self._unpack(_S_HYPER)

    def xuhyper(self, value: int | None = None) -> int:
        """Unsigned 64-bit integer."""
        if self._op is XdrOp.ENCODE:
            value = self._check_int(value, 0, _UINT64_MAX, "uint64")
            self._buffer += _S_UHYPER.pack(value)
            return value
        return self._unpack(_S_UHYPER)

    def xshort(self, value: int | None = None) -> int:
        """16-bit integer, carried as an int32 per XDR convention.

        The paper's ``Point`` members are C ``short``s bundled with
        ``xint``-style filters; this filter adds the range check.  The
        check is symmetric: both directions enforce the same int16
        bounds, so any wire value this filter produced it also accepts.
        """
        if self._op is XdrOp.ENCODE:
            value = self._check_int(value, _INT16_MIN, _INT16_MAX, "short")
            self._buffer += _S_INT.pack(value)
            return value
        decoded = self._unpack(_S_INT)
        if not _INT16_MIN <= decoded <= _INT16_MAX:
            raise XdrError(f"short out of range: {decoded}")
        return decoded

    def xbool(self, value: bool | None = None) -> bool:
        """Boolean, carried as an int32 of value 0 or 1."""
        if self._op is XdrOp.ENCODE:
            if not isinstance(value, bool):
                raise XdrError(f"expected bool, got {type(value).__name__}")
            self._buffer += _S_INT.pack(1 if value else 0)
            return value
        decoded = self._unpack(_S_INT)
        if decoded not in (0, 1):
            raise XdrError(f"invalid XDR boolean {decoded}")
        return bool(decoded)

    def xenum(self, value: int | None = None, *, allowed: Iterable[int] | None = None) -> int:
        """Enumeration: an int32 restricted to ``allowed`` values."""
        allowed_set = _allowed_set(allowed)
        if self._op is XdrOp.ENCODE:
            value = self._check_int(value, _INT32_MIN, _INT32_MAX, "enum")
            if allowed_set is not None and value not in allowed_set:
                raise XdrError(f"enum value {value} not in {sorted(allowed_set)}")
            self._buffer += _S_INT.pack(value)
            return value
        decoded = self._unpack(_S_INT)
        if allowed_set is not None and decoded not in allowed_set:
            raise XdrError(f"enum value {decoded} not in {sorted(allowed_set)}")
        return decoded

    # -- floating point ---------------------------------------------------------

    def xfloat(self, value: float | None = None) -> float:
        """IEEE single-precision float."""
        if self._op is XdrOp.ENCODE:
            value = self._check_float(value)
            try:
                self._buffer += _S_FLOAT.pack(value)
            except (struct.error, OverflowError) as exc:
                raise XdrError(f"cannot pack {value!r} as single float: {exc}") from exc
            return value
        return self._unpack(_S_FLOAT)

    def xdouble(self, value: float | None = None) -> float:
        """IEEE double-precision float."""
        if self._op is XdrOp.ENCODE:
            value = self._check_float(value)
            self._buffer += _S_DOUBLE.pack(value)
            return value
        return self._unpack(_S_DOUBLE)

    # -- opaque data and strings -------------------------------------------------

    def _encode_opaque_body(self, value) -> int:
        """Append opaque payload + padding; returns the payload length."""
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise XdrError(f"expected bytes, got {type(value).__name__}")
        if isinstance(value, memoryview) and (value.format != "B" or value.ndim != 1):
            value = value.cast("B")
        n = len(value)
        self._buffer += value
        self._buffer += _PAD[n & 3]
        return n

    def _read_opaque_body(self, size: int) -> memoryview:
        """Consume payload + padding; returns a view of the payload."""
        data = self._read(size)
        pad = size & 3
        if pad and self._read(4 - pad) != _PAD[pad]:
            raise XdrError("nonzero XDR padding")
        return data

    def xopaque_fixed(self, value: bytes | None = None, *, size: int = 0) -> bytes:
        """Fixed-length opaque data of exactly ``size`` bytes.

        On ENCODE, ``bytes``/``bytearray``/``memoryview`` are written
        directly — no intermediate copy — and the caller's value is
        returned unchanged.
        """
        if size < 0:
            raise XdrError(f"negative opaque size {size}")
        if self._op is XdrOp.ENCODE:
            marker = len(self._buffer)
            n = self._encode_opaque_body(value)
            if n != size:
                del self._buffer[marker:]
                raise XdrError(f"fixed opaque needs {size} bytes, got {n}")
            return value
        return bytes(self._read_opaque_body(size))

    def xopaque(self, value: bytes | None = None) -> bytes:
        """Variable-length opaque data (length-prefixed).

        Decoding copies once, at this API boundary; use
        :meth:`xopaque_view` to skip even that copy.
        """
        if self._op is XdrOp.ENCODE:
            self._encode_opaque(value)
            return value
        return bytes(self._read_opaque())

    def xopaque_view(self, value: bytes | None = None):
        """Zero-copy variant of :meth:`xopaque`.

        On DECODE returns a ``memoryview`` aliasing the stream's input
        buffer — valid only as long as that buffer is.  On ENCODE it is
        identical to :meth:`xopaque`.
        """
        if self._op is XdrOp.ENCODE:
            self._encode_opaque(value)
            return value
        return self._read_opaque()

    def _encode_opaque(self, value) -> None:
        # Length prefix first; the length check needs len(value), which
        # _encode_opaque_body validates, so do a cheap pre-check here.
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise XdrError(f"expected bytes, got {type(value).__name__}")
        n = len(value)
        if n > self._max_length:
            raise XdrError(f"opaque of {n} bytes exceeds max {self._max_length}")
        self.xuint(n)
        self._encode_opaque_body(value)

    def _read_opaque(self) -> memoryview:
        length = self._unpack(_S_UINT)
        if length > self._max_length:
            raise XdrError(f"opaque length {length} exceeds max {self._max_length}")
        return self._read_opaque_body(length)

    def xstring(self, value: str | None = None) -> str:
        """UTF-8 string carried as variable-length opaque data."""
        if self._op is XdrOp.ENCODE:
            if not isinstance(value, str):
                raise XdrError(f"expected str, got {type(value).__name__}")
            self._encode_opaque(value.encode("utf-8"))
            return value
        raw = self._read_opaque()
        try:
            # str() decodes a memoryview directly: no bytes() copy.
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise XdrError(f"invalid UTF-8 in XDR string: {exc}") from exc

    # -- composites ------------------------------------------------------------

    def xarray(
        self,
        filter_fn: Callable[["XdrStream", T | None], T],
        value: Sequence[T] | None = None,
    ) -> list[T]:
        """Variable-length array; each element goes through ``filter_fn``.

        ``filter_fn`` is called as ``filter_fn(stream, element)`` and
        must itself be bidirectional.  This is the composite the
        paper's ``pt_array_bundler`` builds by hand.
        """
        if self._op is XdrOp.ENCODE:
            if value is None:
                raise XdrError("cannot encode None as an array")
            self.xuint(len(value))
            for element in value:
                filter_fn(self, element)
            return list(value)
        length = self._unpack(_S_UINT)
        if length > self._max_length:
            raise XdrError(f"array length {length} exceeds max {self._max_length}")
        return [filter_fn(self, None) for _ in range(length)]

    def xarray_fixed(
        self,
        filter_fn: Callable[["XdrStream", T | None], T],
        value: Sequence[T] | None = None,
        *,
        size: int = 0,
    ) -> list[T]:
        """Fixed-length array of exactly ``size`` elements."""
        if size < 0:
            raise XdrError(f"negative array size {size}")
        if self._op is XdrOp.ENCODE:
            if value is None or len(value) != size:
                got = "None" if value is None else str(len(value))
                raise XdrError(f"fixed array needs {size} elements, got {got}")
            for element in value:
                filter_fn(self, element)
            return list(value)
        return [filter_fn(self, None) for _ in range(size)]

    def xoptional(
        self,
        filter_fn: Callable[["XdrStream", T | None], T],
        value: T | None = None,
    ) -> T | None:
        """XDR optional-data ("pointer"): a boolean then, if true, the value.

        This is the wire form of a nullable pointer — the building
        block for the default pointer bundler of §3.5 and for the
        recursive structures of §3.1.
        """
        if self._op is XdrOp.ENCODE:
            present = value is not None
            self.xbool(present)
            if present:
                filter_fn(self, value)
            return value
        if self.xbool():
            return filter_fn(self, None)
        return None

    def xvoid(self, value: None = None) -> None:
        """Void: nothing on the wire.  Exists so every signature has a filter."""
        return None

    # -- validation helpers ------------------------------------------------------

    @staticmethod
    def _check_int(value, lo: int, hi: int, kind: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise XdrError(f"expected {kind}, got {type(value).__name__}")
        if not lo <= value <= hi:
            raise XdrError(f"{kind} out of range: {value}")
        return value

    @staticmethod
    def _check_float(value) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise XdrError(f"expected float, got {type(value).__name__}")
        value = float(value)
        return value
