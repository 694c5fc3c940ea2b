"""Adaptive binary arithmetic coding, and the native kernel behind it.

Integer range coder with 32-bit interval registers and pending-bit carry
resolution (Witten/Neal/Cleary style renormalization). A coder works on one
CountTables, one table of c0 | c1 << 16 entries: a native uint32 view with
one entry per context that holds both of the context's counts, c0 in the low
half and c1 in the high half, in a zeroed private anonymous mapping whose
pages become resident only as their contexts are coded. Every stream uses
one. A binary decision is coded under an int context, so p(0) = c0 / (c0 +
c1) of its entry adapts as symbols are observed. One first-use rule serves
every stream: a zero entry codes as FIRST_USE, counts of 1 and 1, so a
context's first estimate is 1/2, and after its first decision neither count
is zero. Encoder and decoder apply the identical count update after each
symbol, which keeps both tables bit-for-bit in sync. Counts stay at or below
RESCALE_LIMIT - 1, so each half of an entry holds its count exactly.

Termination: finish() emits a single disambiguating bit (plus any pending
carry bits) and zero-pads the last byte. The decoder treats reads past the
payload as zeros, which is exactly what the padding would have been, so every
encoded symbol resolves without storing the symbol count in the stream.

Each coder owns its bits, buffered unpacked, one byte per bit, MSB first:
the encoder writes into a bytearray that grows by doubling and that
np.packbits packs once in finish(), and the decoder indexes the
np.unpackbits expansion of its payload followed by 64 zero bits. A read past
those zero bits, possible only on corrupt input, raises TruncatedStreamError.

The coding loops run natively: _kernel.c holds the coder and one loop per
stream that both sides share (code_mask, code_surfaces and code_shell),
plus the encoder's three passes over a shell's rows (project_rows,
group_rows and leftover_rows), and load_kernel compiles it with gcc on
first use into a per-user cache and loads it through ctypes. run() drives
each coding loop, calling it again with more room whenever it stops for
some. Where the kernel fails to load, the same loops run in Python
(depthmap.py and sections.py), coding through RangeEncoder.encode_many and
RangeDecoder.decode, and numpy does the row passes. Both paths give the
same bits.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import tempfile
import zlib
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BitstreamError, TruncatedStreamError

_STATE_BITS = 32
_FULL = 1 << _STATE_BITS
_HALF = _FULL >> 1
_QUARTER = _FULL >> 2
_THREE_QUARTER = _HALF + _QUARTER

# Counts are halved (rounding up) once their sum would exceed this, keeping
# the estimator responsive on nonstationary data. Must stay far below the
# minimum interval width (2^30) so every symbol keeps a nonempty subinterval.
RESCALE_LIMIT = 1 << 16
# The entry a zero entry codes as: counts c0 = 1 and c1 = 1.
FIRST_USE = 0x10001

_SOURCE = Path(__file__).with_name("_kernel.c")
_BUILD = ("gcc", "-O2", "-shared", "-fPIC")
_P = ctypes.c_void_p
_I = ctypes.c_int64
_SIGNATURES = {
    "code_mask": (_P, _P, _P, _I, _I, _I),
    "code_surfaces": (_P, _P, _P, _P, _P, _I, _I, _I, _I),
    "code_shell": (_P, _P),
    "project_rows": (_P, _I, _I, _I, _I, _P, _P, _P),
    "group_rows": (_P, _I, _I, _I, _I, _P, _P, _P),
    "leftover_rows": (_P, _I, _P, _I, _P, _P),
}
# The room in bits that each call into a kernel loop starts with when
# encoding; run() doubles it whenever a loop stops for more.
_BITS_ROOM = 1 << 16
# Kernel statuses: a loop that ran out of room, the errors of corrupt input,
# and maps or buffers that break their layout (BAD_LAYOUT).
NEED_ROOM = 1
BAD_LAYOUT = -5
_ERRORS = {
    -1: (TruncatedStreamError, "bit stream exhausted"),
    -2: (BitstreamError, "runaway residual prefix"),
    -3: (BitstreamError, "decoded low surface out of range"),
    -4: (BitstreamError, "decoded thickness out of range"),
    BAD_LAYOUT: (ValueError, "maps or buffers do not match their layout"),
}


def _private_dir(path: Path) -> None:
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise OSError(f"{path} is writable by other users")


def _build(path: Path) -> None:
    """Compile _kernel.c to a temporary file beside path, then move it into place."""
    # Imported here: only a build needs it, and every process pays for its imports.
    import subprocess

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*_BUILD, "-o", tmp, str(_SOURCE)], check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"build failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load_kernel() -> tuple[ctypes.CDLL | None, str]:
    """The native kernel and the file it was loaded from, or None and why not.

    Builds _kernel.c on first use into ~/.cache/bvlcodec/<key>/, else into a
    per-user directory under the system's temporary directory; <key> is the
    CRC-32 and the Adler-32 of the source and the build command. Tried once
    per process.
    """
    try:
        text = _SOURCE.read_bytes() + " ".join(_BUILD).encode()
        key = f"{zlib.crc32(text):08x}{zlib.adler32(text):08x}"
        bases = [Path.home() / ".cache" / "bvlcodec", Path(tempfile.gettempdir()) / f"bvlcodec-{os.getuid()}"]
    except (OSError, RuntimeError, AttributeError) as exc:
        return None, f"no kernel source or cache directory: {exc}"
    reasons = []
    for base in bases:
        path = base / key / "_kernel.so"
        try:
            _private_dir(base)
            _private_dir(path.parent)
            if not path.exists():
                _build(path)
            lib = ctypes.CDLL(str(path))
            for name, args in _SIGNATURES.items():
                getattr(lib, name).argtypes = args
                getattr(lib, name).restype = _I
        except (OSError, AttributeError) as exc:
            reasons.append(f"{base}: {exc}")
            continue
        return lib, str(path)
    return None, "; ".join(reasons)


def native() -> ctypes.CDLL | None:
    """The loaded kernel, or None when the Python loops run."""
    return load_kernel()[0]


def check_status(status: int) -> None:
    """Raise the error that a negative kernel status stands for."""
    if status < 0:
        error, message = _ERRORS[status]
        raise error(message)


def address(buffer) -> int:
    """Address of the first item of a non-empty writable buffer; valid until it is resized."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buffer))


class _Coder(ctypes.Structure):
    """A coder as the kernel sees it (Coder in _kernel.c)."""

    _fields_ = [
        ("low", _I), ("high", _I), ("extra", _I), ("pos", _I),
        ("bits", _P), ("size", _I), ("counts", _P), ("contexts", _I),
    ]


@dataclass(frozen=True, eq=False)
class CountTables:
    """A stream's count table: one uint32 entry c0 | c1 << 16 per context.

    An entry is zero until its context is first coded, and never zero
    after. Anything but a writable, 1-D, contiguous 'I' memoryview of
    4-byte items raises TypeError, since the kernel indexes it as uint32
    up to len(counts).
    """

    counts: memoryview

    def __post_init__(self) -> None:
        v = self.counts
        if not (isinstance(v, memoryview) and v.format == "I" and v.itemsize == 4 and v.ndim == 1
                and v.c_contiguous and not v.readonly):
            raise TypeError("a count table must be a writable, contiguous uint32 memoryview")

    def __len__(self) -> int:
        """The number of contexts coded so far."""
        return int(np.count_nonzero(np.frombuffer(self.counts, dtype=np.uint32)))


def count_tables(n: int) -> CountTables:
    """A zeroed table of n contexts, as a private anonymous mapping.

    Its pages read as zero without being resident; a page becomes resident
    once a context in it is coded.
    """
    return CountTables(memoryview(mmap.mmap(-1, 4 * n, flags=mmap.MAP_PRIVATE)).cast("I"))


def _coder_state(tables: CountTables, *registers) -> _Coder:
    """The kernel's struct of a coder on tables, from its registers low, high, extra, pos, bits and size."""
    if not isinstance(tables, CountTables):
        raise TypeError("a coder needs CountTables")
    return _Coder(*registers, address(tables.counts), len(tables.counts))


def run(loop, coder, *args, grow=None) -> None:
    """Call a kernel loop on the coder's state and args until it is done.

    Each time the loop stops for room (NEED_ROOM), the room for bits doubles;
    grow, when given, is called before every call to make room in the loop's
    own buffers. A negative status raises its error.
    """
    room = _BITS_ROOM
    status = NEED_ROOM
    while status == NEED_ROOM:
        if grow is not None:
            grow()
        with coder.native_state(room) as state:
            status = loop(ctypes.byref(state), *args)
        room *= 2
    check_status(status)


@dataclass(frozen=True)
class CodedStream:
    """Finished payload: raw bytes plus the exact number of written bits."""

    data: bytes
    bit_length: int


class RangeEncoder:
    """One-shot arithmetic encoder over CountTables.

    The tables are updated in place, so the coders of successive streams may
    share them, as the section streams of a cloud's shells do. Call finish()
    exactly once at the end.
    """

    __slots__ = ("tables", "_state", "_bits")

    def __init__(self, tables: CountTables) -> None:
        # The coder's state is the kernel's struct (extra counts the pending
        # bits); _bits[:pos] are the bits written so far, and the kernel may
        # write up to size bytes. size 0 marks the address stale.
        self._state = _coder_state(tables, 0, _FULL - 1, 0, 0, None, 0)
        self.tables = tables
        self._bits = bytearray()

    def _room(self, room: int) -> _Coder:
        """The state, with room for `room` bits beyond the pending ones."""
        state = self._state
        need = state.pos + state.extra + 64 + room
        if need > state.size:
            bits = self._bits
            del bits[state.pos :]
            bits += bytes(max(need, 2 * len(bits)) - len(bits))
            state.bits = address(bits)
            state.size = len(bits)
        return state

    def _written(self) -> bytearray:
        """The bits written so far, as the buffer itself; marks the kernel's view of it stale."""
        del self._bits[self._state.pos :]
        self._state.size = 0
        return self._bits

    @contextmanager
    def native_state(self, room: int):
        """The coder as the kernel's struct, with room for `room` bits beyond the pending ones.

        The kernel updates the state in place.
        """
        yield self._room(room)

    def encode_many(self, contexts: Iterable[int], bits: Iterable[int]) -> None:
        """Code each bit under its context, in order; the counts adapt as they go.

        The Python loops code through this; the kernel's loops call their
        own coder. The two sequences must have the same length (ValueError
        otherwise, after the pairs before the mismatch are coded). A nonzero
        bit codes a 1.
        """
        state = self._state
        low = state.low
        high = state.high
        pending = state.extra
        out = self._written()
        append = out.append
        counts = self.tables.counts
        try:
            for ctx, bit in zip(contexts, bits, strict=True):
                entry = counts[ctx] or FIRST_USE
                c0, c1 = entry & 0xFFFF, entry >> 16
                total = c0 + c1
                split = low + c0 * (high - low + 1) // total
                if bit:
                    low = split
                    c1 += 1
                else:
                    high = split - 1
                    c0 += 1
                while True:
                    if high < _HALF:
                        append(0)
                        if pending:
                            out += b"\x01" * pending
                            pending = 0
                    elif low >= _HALF:
                        append(1)
                        if pending:
                            out += bytes(pending)
                            pending = 0
                        low -= _HALF
                        high -= _HALF
                    elif low >= _QUARTER and high < _THREE_QUARTER:
                        pending += 1
                        low -= _QUARTER
                        high -= _QUARTER
                    else:
                        break
                    low <<= 1
                    high = (high << 1) | 1
                if total >= RESCALE_LIMIT:
                    c0 = (c0 + 1) >> 1
                    c1 = (c1 + 1) >> 1
                counts[ctx] = c0 | c1 << 16
        finally:
            # On a length mismatch the pairs before it stay coded.
            state.low = low
            state.high = high
            state.extra = pending
            state.pos = len(out)

    def finish(self) -> CodedStream:
        # One more bit, followed by its pending inversions, pins a value
        # inside the final interval; the byte padding after it is zeros,
        # matching what the decoder reads past the end of the payload.
        state = self._state
        bits = self._written()
        bit = 0 if state.low < _QUARTER else 1
        bits.append(bit)
        bits += bytes([bit ^ 1]) * (state.extra + 1)
        state.extra = 0
        state.pos = len(bits)
        packed = np.packbits(np.frombuffer(bits, dtype=np.uint8)).tobytes()
        return CodedStream(packed, len(bits))


class RangeDecoder:
    """Mirror of RangeEncoder; count updates replay the encoder's exactly."""

    __slots__ = ("tables", "_state", "_bits", "_pos", "_low", "_high", "_code")

    def __init__(self, data: bytes | CodedStream, tables: CountTables) -> None:
        if isinstance(data, CodedStream):
            data = data.data
        packed = np.frombuffer(data, dtype=np.uint8)
        self._bits = bytearray(8 * packed.size + 64)
        np.frombuffer(self._bits, dtype=np.uint8)[: 8 * packed.size] = np.unpackbits(packed)
        self._pos = _STATE_BITS
        self._low = 0
        self._high = _FULL - 1
        code = 0
        for bit in self._bits[:_STATE_BITS]:
            code = (code << 1) | bit
        self._code = code
        # The registers live in the attributes above; native_state copies them in and out.
        self._state = _coder_state(tables, 0, 0, 0, 0, address(self._bits), len(self._bits))
        self.tables = tables

    @contextmanager
    def native_state(self, room: int = 0):
        """The coder as the kernel's struct; `room` sizes an encoder's bits and is unused here.

        The kernel's changes to the state come back when the block ends.
        """
        state = self._state
        state.low, state.high, state.extra, state.pos = self._low, self._high, self._code, self._pos
        try:
            yield state
        finally:
            self._low, self._high, self._code, self._pos = state.low, state.high, state.extra, state.pos

    def decode(self, ctx: int) -> int:
        """Decode one decision in Python; the kernel's loops decode whole streams."""
        counts = self.tables.counts
        entry = counts[ctx] or FIRST_USE
        c0, c1 = entry & 0xFFFF, entry >> 16
        total = c0 + c1
        low = self._low
        high = self._high
        code = self._code
        split = low + c0 * (high - low + 1) // total
        if code >= split:
            bit = 1
            low = split
        else:
            bit = 0
            high = split - 1
        bits = self._bits
        pos = self._pos
        try:
            while True:
                if high < _HALF:
                    pass
                elif low >= _HALF:
                    low -= _HALF
                    high -= _HALF
                    code -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTER:
                    low -= _QUARTER
                    high -= _QUARTER
                    code -= _QUARTER
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
                code = (code << 1) | bits[pos]
                pos += 1
        except IndexError:
            raise TruncatedStreamError("bit stream exhausted") from None
        self._pos = pos
        self._low = low
        self._high = high
        self._code = code
        if bit:
            c1 += 1
        else:
            c0 += 1
        if total + 1 > RESCALE_LIMIT:
            c0 = (c0 + 1) >> 1
            c1 = (c1 + 1) >> 1
        counts[ctx] = c0 | c1 << 16
        return bit
