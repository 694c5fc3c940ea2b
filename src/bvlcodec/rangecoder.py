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

Termination: finish() has the kernel's finish_bits write a single
disambiguating bit (plus any pending carry bits); the last byte is zero
padded. The decoder treats reads past the payload as zeros, which is exactly
what the padding would have been, so every encoded symbol resolves without
storing the symbol count in the stream.

Each coder owns its bits, packed MSB first as the container stores them,
with the kernel's pos and size counting bits: the encoder sets them in a
zeroed bytearray that grows by doubling, whose whole bytes finish() returns,
and the decoder reads a copy of its payload followed by 8 zero bytes, 64
zero bits. A read past those zero bits, possible only on corrupt input,
raises TruncatedStreamError.

The coding loops run natively: _kernel.c holds the coder and one loop per
stream that both sides share (code_mask, code_surfaces and code_shell),
plus the encoder's two passes over a shell's sorted rows (project_rows, and
column_starts, which lets code_shell read them in place) and the pass that
puts every VoxelCloud's rows in order (normalize_rows), and load_kernel compiles it with gcc on
first use into a per-user cache and loads it through ctypes. run() drives
each coding loop, calling it again with more room whenever it stops for
some. The kernel is the codec's only path, and building a VoxelCloud needs
it too: where it fails to load, native() raises OSError with the reason.
The coder is written once, in the kernel: RangeEncoder.encode_many codes
given (context, bit) pairs and RangeDecoder.decode one decision, both
through its code_bits loop, for the tests and the self-test.
tests/oracles.py::reference_encode is its plain-Python reference.
"""

from __future__ import annotations

import array
import ctypes
import functools
import mmap
import os
import tempfile
import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BitstreamError, TruncatedStreamError

_STATE_BITS = 32
_FULL = 1 << _STATE_BITS

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
    "column_starts": (_P, _I, _I, _I, _I, _P, _P, _P, _P),
    "normalize_rows": (_P, _I, _I, _I, _P),
    "code_bits": (_P, _P, _P, _P, _I, _I),
    "finish_bits": (_P,),
}
# The room in bits that each call into a kernel loop starts with when
# encoding; run() doubles it whenever a loop stops for more.
_BITS_ROOM = 1 << 16
# Kernel statuses: a loop that ran out of room, the errors of corrupt input,
# maps or buffers that break their layout (BAD_LAYOUT), and a context that
# code_bits finds outside the coder's tables (-7). normalize_rows answers
# TOO_WIDE for rows it leaves to numpy.
NEED_ROOM = 1
BAD_LAYOUT = -5
TOO_WIDE = -6
_ERRORS = {
    -1: (TruncatedStreamError, "bit stream exhausted"),
    -2: (BitstreamError, "runaway residual prefix"),
    -3: (BitstreamError, "decoded low surface out of range"),
    -4: (BitstreamError, "decoded thickness out of range"),
    BAD_LAYOUT: (ValueError, "maps or buffers do not match their layout"),
    -7: (ValueError, "a context lies outside the coder's tables"),
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


def native() -> ctypes.CDLL:
    """The loaded kernel; OSError, with load_kernel's reason, when it cannot load."""
    lib, where = load_kernel()
    if lib is None:
        raise OSError(f"no native kernel ({where}); bvlcodec builds its kernel with gcc on first use")
    return lib


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
        status = loop(ctypes.byref(coder.native_state(room)), *args)
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
        # bits); the first pos bits of _bits are the bits written so far, the
        # rest are zero, and the kernel may write up to size bits.
        self._state = _coder_state(tables, 0, _FULL - 1, 0, 0, None, 0)
        self.tables = tables
        self._bits = bytearray()

    def native_state(self, room: int) -> _Coder:
        """The coder as the kernel's struct, with room for `room` bits beyond the pending ones.

        The kernel updates the state in place.
        """
        state = self._state
        need = (state.pos + state.extra + 64 + room + 7) // 8
        if 8 * need > state.size:
            bits = self._bits
            bits += bytes(max(need, 2 * len(bits)) - len(bits))
            state.bits = address(bits)
            state.size = 8 * len(bits)
        return state

    def encode_many(self, contexts: Iterable[int], bits: Iterable[int]) -> None:
        """Code each bit under its context, in order, on the kernel's coder; the counts adapt as they go.

        A nonzero bit codes a 1. The two sequences must have the same length,
        and each context must lie in the tables: ValueError otherwise, after
        the pairs before the mismatch or the context are coded. A context
        that int64 cannot hold raises OverflowError before any pair is coded.
        """
        contexts = array.array("q", contexts)
        bits = array.array("B", map(bool, bits))
        n = min(len(contexts), len(bits))
        if n:
            done = array.array("q", [0])
            run(native().code_bits, self, *(a.buffer_info()[0] for a in (done, contexts, bits)), n, 1)
        if len(contexts) != len(bits):
            raise ValueError("contexts and bits differ in length")

    def finish(self) -> CodedStream:
        """The stream, ended by the kernel's finish_bits and zero padded to whole bytes."""
        run(native().finish_bits, self)
        pos = self._state.pos
        return CodedStream(bytes(self._bits[: (pos + 7) // 8]), pos)


class RangeDecoder:
    """Mirror of RangeEncoder; count updates replay the encoder's exactly."""

    __slots__ = ("tables", "_state", "_bits", "_context", "_bit", "_done", "_decode_one")

    def __init__(self, data: bytes | CodedStream, tables: CountTables) -> None:
        if isinstance(data, CodedStream):
            data = data.data
        self._bits = bits = bytearray(data)
        bits += bytes(8)
        # The code value starts as the first 32 bits, read past the payload as zeros.
        code = int.from_bytes(bits[:4], "big")
        self._state = _coder_state(tables, 0, _FULL - 1, code, _STATE_BITS, address(bits), 8 * len(bits))
        self.tables = tables
        # decode() codes one decision through these one-item arrays, so that
        # a call allocates nothing; a context past int64 raises OverflowError.
        # Its arguments are ctypes objects made once, passed to a pointer to
        # code_bits without argtypes, so no call converts them again.
        self._context = array.array("q", [0])
        self._bit = array.array("B", [0])
        self._done = array.array("q", [0])
        loop = native()["code_bits"]
        loop.restype = _I
        self._decode_one = functools.partial(
            loop, ctypes.byref(self._state),
            *(_P(a.buffer_info()[0]) for a in (self._done, self._context, self._bit)), _I(1), _I(0))

    def native_state(self, room: int) -> _Coder:
        """The coder as the kernel's struct; `room` sizes an encoder's bits and is unused here.

        The kernel updates the state in place.
        """
        return self._state

    def decode(self, ctx: int) -> int:
        """Decode one decision under ctx on the kernel's coder; ValueError for a context outside the tables."""
        self._context[0] = ctx
        self._done[0] = 0
        check_status(self._decode_one())
        return self._bit[0]
