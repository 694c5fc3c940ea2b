"""Adaptive binary arithmetic coding and bit-level stream I/O.

Integer range coder with 32-bit interval registers and pending-bit carry
resolution (Witten/Neal/Cleary style renormalization). Every binary decision
is coded against a BinaryModel holding Laplace-smoothed occurrence counts, so
p(0) = c0 / (c0 + c1) adapts as symbols are observed. Encoder and decoder
apply the identical model update after each symbol, which keeps both model
states bit-for-bit in sync.

Termination: finish() emits a single disambiguating bit (plus any pending
carry bits) and zero-pads the last byte. The decoder treats reads past the
payload as zeros, which is exactly what the padding would have been, so every
encoded symbol resolves without storing the symbol count in the stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TruncatedStreamError

_STATE_BITS = 32
_FULL = 1 << _STATE_BITS
_HALF = _FULL >> 1
_QUARTER = _FULL >> 2
_THREE_QUARTER = _HALF + _QUARTER

# Counts are halved (rounding up) once their sum would exceed this, keeping
# the estimator responsive on nonstationary data. Must stay far below the
# minimum interval width (2^30) so every symbol keeps a nonempty subinterval.
RESCALE_LIMIT = 1 << 16


class BinaryModel:
    """Adaptive counts for one binary context, Laplace-initialized to (1, 1)."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: int = 1, c1: int = 1) -> None:
        if c0 < 1 or c1 < 1:
            raise ValueError("model counts must be at least 1")
        self.c0 = c0
        self.c1 = c1

    def __repr__(self) -> str:
        return f"BinaryModel(c0={self.c0}, c1={self.c1})"


@dataclass(frozen=True)
class CodedStream:
    """Finished payload: raw bytes plus the exact number of written bits."""

    data: bytes
    bit_length: int


class BitWriter:
    """MSB-first bit packer; the final partial byte is zero padded."""

    __slots__ = ("_buf", "_acc", "_n", "bit_count")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0
        self._n = 0
        self.bit_count = 0

    def write_bit(self, bit: int) -> None:
        self._acc = (self._acc << 1) | bit
        self._n += 1
        self.bit_count += 1
        if self._n == 8:
            self._buf.append(self._acc)
            self._acc = 0
            self._n = 0

    def write_uint(self, value: int, width: int) -> None:
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def finish(self) -> bytes:
        if self._n:
            self._buf.append(self._acc << (8 - self._n))
            self._acc = 0
            self._n = 0
        return bytes(self._buf)


class BitReader:
    """MSB-first bit reader; reads past the payload yield zeros.

    A hard limit slightly past the payload turns runaway reads (possible only
    on corrupt input) into TruncatedStreamError instead of silent garbage.
    """

    __slots__ = ("_data", "_pos", "_size", "_limit")

    def __init__(self, data: bytes, overrun: int = 64) -> None:
        self._data = data
        self._pos = 0
        self._size = 8 * len(data)
        self._limit = self._size + overrun

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._size:
            if pos >= self._limit:
                raise TruncatedStreamError("bit stream exhausted")
            self._pos = pos + 1
            return 0
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_uint(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value


class RangeEncoder:
    """One-shot arithmetic encoder; call finish() exactly once at the end."""

    __slots__ = ("_low", "_high", "_pending", "_writer")

    def __init__(self) -> None:
        self._low = 0
        self._high = _FULL - 1
        self._pending = 0
        self._writer = BitWriter()

    def _emit(self, bit: int) -> None:
        writer = self._writer
        writer.write_bit(bit)
        inv = bit ^ 1
        for _ in range(self._pending):
            writer.write_bit(inv)
        self._pending = 0

    def encode(self, model: BinaryModel, bit: int) -> None:
        c0 = model.c0
        c1 = model.c1
        total = c0 + c1
        low = self._low
        high = self._high
        split = low + c0 * (high - low + 1) // total
        if bit:
            low = split
        else:
            high = split - 1
        while True:
            if high < _HALF:
                self._emit(0)
            elif low >= _HALF:
                self._emit(1)
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTER:
                self._pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
        self._low = low
        self._high = high
        if bit:
            c1 += 1
        else:
            c0 += 1
        if total + 1 > RESCALE_LIMIT:
            c0 = (c0 + 1) >> 1
            c1 = (c1 + 1) >> 1
        model.c0 = c0
        model.c1 = c1

    def finish(self) -> CodedStream:
        # One more bit pins a value inside the final interval; its pending
        # inversions and the byte padding are all zeros, matching what the
        # decoder reads past the end of the payload.
        self._pending += 1
        self._emit(0 if self._low < _QUARTER else 1)
        data = self._writer.finish()
        return CodedStream(data, self._writer.bit_count)


class RangeDecoder:
    """Mirror of RangeEncoder; model updates replay the encoder's exactly."""

    __slots__ = ("_reader", "_low", "_high", "_code")

    def __init__(self, data: bytes | CodedStream) -> None:
        if isinstance(data, CodedStream):
            data = data.data
        self._reader = BitReader(data)
        self._low = 0
        self._high = _FULL - 1
        code = 0
        read = self._reader.read_bit
        for _ in range(_STATE_BITS):
            code = (code << 1) | read()
        self._code = code

    def decode(self, model: BinaryModel) -> int:
        c0 = model.c0
        c1 = model.c1
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
        read = self._reader.read_bit
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
            code = (code << 1) | read()
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
        model.c0 = c0
        model.c1 = c1
        return bit
