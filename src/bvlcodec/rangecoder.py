"""Adaptive binary arithmetic coding.

Integer range coder with 32-bit interval registers and pending-bit carry
resolution (Witten/Neal/Cleary style renormalization). A coder owns two
count tables, c0 and c1: plain lists of ints, one entry per context, each
Laplace-initialized to 1. A binary decision is coded under an int context,
so p(0) = c0[context] / (c0[context] + c1[context]) adapts as symbols are
observed. Encoder and decoder apply the identical count update after each
symbol, which keeps both tables bit-for-bit in sync.

Termination: finish() emits a single disambiguating bit (plus any pending
carry bits) and zero-pads the last byte. The decoder treats reads past the
payload as zeros, which is exactly what the padding would have been, so every
encoded symbol resolves without storing the symbol count in the stream.

The encoder codes sequences: encode_many takes a whole run of contexts and
their bits and keeps the coder state in locals across it. The decoder codes
one decision at a time, because the caller needs each bit to choose the next
context.

Each coder owns its bits, buffered unpacked, one byte per bit, MSB first:
the encoder appends to a bytearray that np.packbits packs once in finish(),
and the decoder indexes the np.unpackbits expansion of its payload followed
by 64 zero bits, so no bit costs a function call. A read past those zero
bits, possible only on corrupt input, raises TruncatedStreamError.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class CodedStream:
    """Finished payload: raw bytes plus the exact number of written bits."""

    data: bytes
    bit_length: int


class RangeEncoder:
    """One-shot arithmetic encoder over the count tables c0 and c1.

    The tables are updated in place, so a caller may grow them (one count of
    1 in each per new context) between calls. Call finish() exactly once at
    the end.
    """

    __slots__ = ("c0", "c1", "_low", "_high", "_pending", "_bits")

    def __init__(self, c0: list[int], c1: list[int]) -> None:
        self.c0 = c0
        self.c1 = c1
        self._low = 0
        self._high = _FULL - 1
        self._pending = 0
        self._bits = bytearray()

    def encode_many(self, contexts: Iterable[int], bits: Iterable[int]) -> None:
        """Code each bit under its context, in order; the counts adapt as they go.

        The two iterables must have the same length (ValueError otherwise). The
        coder state stays in locals for the whole sequence, so a long
        sequence costs one call, not one per decision.
        """
        low = self._low
        high = self._high
        pending = self._pending
        out = self._bits
        append = out.append
        c0s = self.c0
        c1s = self.c1
        try:
            for ctx, bit in zip(contexts, bits, strict=True):
                c0 = c0s[ctx]
                c1 = c1s[ctx]
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
                c0s[ctx] = c0
                c1s[ctx] = c1
        finally:
            # On a length mismatch the pairs before it stay coded.
            self._low = low
            self._high = high
            self._pending = pending

    def finish(self) -> CodedStream:
        # One more bit, followed by its pending inversions, pins a value
        # inside the final interval; the byte padding after it is zeros,
        # matching what the decoder reads past the end of the payload.
        bit = 0 if self._low < _QUARTER else 1
        self._bits.append(bit)
        self._bits += bytes([bit ^ 1]) * (self._pending + 1)
        self._pending = 0
        packed = np.packbits(np.frombuffer(self._bits, dtype=np.uint8)).tobytes()
        return CodedStream(packed, len(self._bits))


class RangeDecoder:
    """Mirror of RangeEncoder; count updates replay the encoder's exactly."""

    __slots__ = ("c0", "c1", "_bits", "_pos", "_low", "_high", "_code")

    def __init__(self, data: bytes | CodedStream, c0: list[int], c1: list[int]) -> None:
        self.c0 = c0
        self.c1 = c1
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

    def decode(self, ctx: int) -> int:
        c0s = self.c0
        c1s = self.c1
        c0 = c0s[ctx]
        c1 = c1s[ctx]
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
        c0s[ctx] = c0
        c1s[ctx] = c1
        return bit
