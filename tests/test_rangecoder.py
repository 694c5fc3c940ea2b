"""Round-trip and rate tests for the adaptive arithmetic coder."""

import ctypes
from types import SimpleNamespace

import numpy as np
import pytest

from bvlcodec import rangecoder
from bvlcodec.errors import TruncatedStreamError
from bvlcodec.rangecoder import FIRST_USE, RESCALE_LIMIT, CountTables, RangeDecoder, RangeEncoder, count_tables

from oracles import binary_entropy, reference_encode, table_bytes


def _round_trip(bits, picks, n_contexts):
    enc = RangeEncoder(count_tables(n_contexts))
    enc.encode_many(picks, bits)
    stream = enc.finish()
    dec = RangeDecoder(stream, count_tables(n_contexts))
    decoded = [dec.decode(pick) for pick in picks]
    assert table_bytes(enc.tables) == table_bytes(dec.tables)
    return decoded, stream


def test_round_trip_interleaved_models():
    rng = np.random.default_rng(42)
    n = 100_000
    bits = (rng.random(n) < rng.random(n) * 0.9 + 0.05).astype(int).tolist()
    picks = rng.integers(0, 64, size=n).tolist()
    decoded, _ = _round_trip(bits, picks, 64)
    assert decoded == bits


@pytest.mark.parametrize("p", [0.0, 1.0, 0.003, 0.5])
def test_round_trip_extreme_sources(p):
    rng = np.random.default_rng(int(p * 1000) + 1)
    bits = (rng.random(20_000) < p).astype(int).tolist()
    decoded, _ = _round_trip(bits, [0] * len(bits), 1)
    assert decoded == bits


def test_round_trip_empty_and_single():
    for bits in ([], [0], [1]):
        decoded, stream = _round_trip(bits, [0] * len(bits), 1)
        assert decoded == bits
        assert stream.bit_length >= 1
        assert len(stream.data) >= 1


@pytest.mark.parametrize("p,tol", [(0.5, 0.03), (0.1, 0.03)])
def test_rate_tracks_entropy(p, tol):
    rng = np.random.default_rng(2024)
    n = 200_000
    bits = (rng.random(n) < p).astype(int).tolist()
    enc = RangeEncoder(count_tables(1))
    enc.encode_many([0] * n, bits)
    rate = enc.finish().bit_length / n
    target = binary_entropy(p)
    assert abs(rate - target) <= tol * max(target, 0.05)


def test_model_counts_stay_bounded():
    n = 300_000
    skewed = (np.random.default_rng(9).random(n) < 0.02).astype(int).tolist()
    for bits in (skewed, [1] * n, [0] * n):
        enc = RangeEncoder(count_tables(1))
        for bit in bits:
            enc.encode_many((0,), (bit,))
            # Both halves of the entry, c0 low and c1 high. A count that
            # spilled out of its half would leave c0 at zero.
            entry = enc.tables.counts[0]
            c0, c1 = entry & 0xFFFF, entry >> 16
            assert c0 >= 1 and c1 >= 1
            assert c0 + c1 <= RESCALE_LIMIT
        enc.finish()


def test_model_states_sync_after_every_symbol():
    rng = np.random.default_rng(31)
    bits = (rng.random(4000) < 0.3).astype(int).tolist()
    enc = RangeEncoder(count_tables(1))
    enc.encode_many([0] * len(bits), bits)
    stream = enc.finish()
    replay = RangeEncoder(count_tables(1))
    dec = RangeDecoder(stream, count_tables(1))
    for bit in bits:
        replay.encode_many((0,), (bit,))
        assert dec.decode(0) == bit
        assert table_bytes(dec.tables) == table_bytes(replay.tables)


def test_truncated_stream_raises():
    rng = np.random.default_rng(3)
    bits = (rng.random(5000) < 0.5).astype(int).tolist()
    enc = RangeEncoder(count_tables(1))
    enc.encode_many([0] * len(bits), bits)
    stream = enc.finish()
    dec = RangeDecoder(stream.data[: len(stream.data) // 4], count_tables(1))
    with pytest.raises(TruncatedStreamError):
        for _ in bits:
            dec.decode(0)


def test_coded_stream_pads_to_whole_bytes():
    rng = np.random.default_rng(11)
    for n in (0, 1, 7, 100, 1001):
        enc = RangeEncoder(count_tables(1))
        enc.encode_many([0] * n, (rng.random(n) < 0.3).astype(int).tolist())
        stream = enc.finish()
        assert len(stream.data) == (stream.bit_length + 7) // 8
        tail = 8 * len(stream.data) - stream.bit_length
        assert stream.data[-1] & ((1 << tail) - 1) == 0


@pytest.mark.parametrize("size", [0, 1, 5])
def test_range_decoder_reads_64_zero_bits_past_the_payload(size):
    # On an all-zero stream, a fresh context, whose zero counts code as 1
    # and 1, decodes 0 and consumes exactly one bit, so the decode count measures the bits
    # available.
    available = 8 * size + 64 - 32
    dec = RangeDecoder(bytes(size), count_tables(available + 1))
    assert [dec.decode(k) for k in range(available)] == [0] * available
    with pytest.raises(TruncatedStreamError):
        dec.decode(available)


def test_empty_payload_decodes():
    dec = RangeDecoder(b"", count_tables(1))
    assert [dec.decode(0) for _ in range(10)] == [0] * 10


def test_split_sequence_codes_like_one_call():
    rng = np.random.default_rng(17)
    n = 20_000
    bits = (rng.random(n) < 0.25).astype(int).tolist()
    picks = rng.integers(0, 8, size=n).tolist()
    whole = RangeEncoder(count_tables(8))
    whole.encode_many(picks, bits)
    split = RangeEncoder(count_tables(8))
    cuts = [0, 0, 1, 1, 777, 777, 5000, 19_999, n, n]
    for a, b in zip(cuts, cuts[1:]):
        split.encode_many(iter(picks[a:b]), iter(bits[a:b]))
    assert split.finish() == whole.finish()
    assert table_bytes(split.tables) == table_bytes(whole.tables)


@pytest.mark.parametrize("n_contexts,n_bits", [(3, 2), (2, 3), (0, 1), (1, 0)])
def test_encode_many_rejects_a_length_mismatch(n_contexts, n_bits):
    enc = RangeEncoder(count_tables(1))
    with pytest.raises(ValueError):
        enc.encode_many([0] * n_contexts, [1] * n_bits)
    # The pairs before the mismatch stay coded.
    ref = RangeEncoder(count_tables(1))
    prefix = min(n_contexts, n_bits)
    ref.encode_many([0] * prefix, [1] * prefix)
    assert table_bytes(enc.tables) == table_bytes(ref.tables)
    assert enc.finish() == ref.finish()


def test_count_tables_count_each_coded_context_once():
    tables = count_tables(8)
    assert len(tables) == 0
    enc = RangeEncoder(tables)
    enc.encode_many([3, 3, 5, 3, 5], [1, 0, 1, 1, 0])
    assert len(tables) == 2
    dec_tables = count_tables(8)
    dec = RangeDecoder(enc.finish(), dec_tables)
    assert [dec.decode(ctx) for ctx in (3, 3, 5, 3, 5)] == [1, 0, 1, 1, 0]
    assert len(dec_tables) == 2


def _tables_of_ones(n):
    return CountTables(memoryview(np.full(n, FIRST_USE, dtype=np.uint32)))


def test_zeroed_tables_code_like_tables_of_ones():
    # A zero entry codes as FIRST_USE, counts of 1 and 1, so a zeroed table
    # gives every context the first estimate that a Laplace-initialised one does.
    rng = np.random.default_rng(23)
    n = 50_000
    picks = rng.integers(0, 64, size=n).tolist()
    bits = (rng.random(n) < 0.2).astype(int).tolist()
    zeroed = RangeEncoder(count_tables(96))
    ones = RangeEncoder(_tables_of_ones(96))
    zeroed.encode_many(picks, bits)
    ones.encode_many(picks, bits)
    stream = zeroed.finish()
    assert stream == ones.finish()
    dec = RangeDecoder(stream, count_tables(96))
    assert [dec.decode(pick) for pick in picks] == bits
    coded = np.zeros(96, dtype=bool)
    coded[picks] = True
    reference = np.frombuffer(ones.tables.counts, dtype=np.uint32)
    assert (reference[~coded] == FIRST_USE).all()
    for table in (zeroed.tables, dec.tables):
        counts = np.frombuffer(table.counts, dtype=np.uint32)
        assert np.array_equal(counts[coded], reference[coded])
        assert not counts[~coded].any() and counts[coded].all()


def test_entry_holds_c0_low_and_c1_high():
    # Zero codes as 1 and 1; 0, 0, 1 then count 1 + 2 zeros and 1 + 1 ones.
    enc = RangeEncoder(count_tables(2))
    enc.encode_many([0, 0, 0], [0, 0, 1])
    assert enc.tables.counts.tolist() == [3 | 2 << 16, 0]
    dec = RangeDecoder(enc.finish(), count_tables(2))
    assert [dec.decode(0) for _ in range(3)] == [0, 0, 1]
    assert dec.tables.counts.tolist() == [3 | 2 << 16, 0]


@pytest.mark.parametrize("counts", [
    memoryview(bytes(8)).cast("I"),
    memoryview(bytearray(8)).cast("H"),
    memoryview(bytearray(8)).cast("i"),
    memoryview(bytearray(8)),
    memoryview(bytearray(16)).cast("I")[::2],
    np.zeros(4, np.uint32),
], ids=["read-only", "uint16", "int32", "bytes", "strided", "not-views"])
def test_count_tables_refuse_views_the_kernel_could_overrun(counts):
    with pytest.raises(TypeError):
        CountTables(counts)
    # Each case fails on its view, not on the number of arguments.
    CountTables(memoryview(bytearray(8)).cast("I"))


def test_coders_refuse_anything_but_count_tables():
    counts = count_tables(4).counts
    with pytest.raises(TypeError):
        RangeEncoder(counts)
    with pytest.raises(TypeError):
        RangeDecoder(bytes(4), counts)


@pytest.mark.parametrize("bad", [-1, 4], ids=["negative", "table-length"])
def test_a_context_outside_the_tables_raises_after_the_pairs_before_it(bad):
    # Four contexts: -1 and 4 (the table's length) lie outside on either end.
    enc = RangeEncoder(count_tables(4))
    with pytest.raises(ValueError, match="outside the coder's tables"):
        enc.encode_many([1, 2, bad, 3], [1, 0, 1, 1])
    ref = RangeEncoder(count_tables(4))
    ref.encode_many([1, 2], [1, 0])
    assert table_bytes(enc.tables) == table_bytes(ref.tables)
    stream = enc.finish()
    assert stream == ref.finish()
    dec = RangeDecoder(stream, count_tables(4))
    assert [dec.decode(1), dec.decode(2)] == [1, 0]
    with pytest.raises(ValueError, match="outside the coder's tables"):
        dec.decode(bad)
    assert table_bytes(dec.tables) == table_bytes(ref.tables)


def test_a_context_past_int64_codes_nothing_on_either_side():
    # 2^64 + 1 would wrap to context 1 in 64 bits.
    enc = RangeEncoder(count_tables(4))
    with pytest.raises(OverflowError):
        enc.encode_many([1, 2**64 + 1], [1, 1])
    dec = RangeDecoder(enc.finish(), count_tables(4))
    with pytest.raises(OverflowError):
        dec.decode(2**64 + 1)
    assert not any(enc.tables.counts) and not any(dec.tables.counts)


def _reference_sequences():
    rng = np.random.default_rng(47)
    n = 70_000
    # More zeros than RESCALE_LIMIT under one context, so its counts halve.
    yield "rescaled", [0] * n, [0] * n
    # p = 0.5 under one context: long runs of pending bits.
    yield "pending", [0] * n, (rng.random(n) < 0.5).astype(int).tolist()
    yield "interleaved", rng.integers(0, 64, size=n).tolist(), (rng.random(n) < rng.random(n)).astype(int).tolist()


@pytest.mark.parametrize("contexts,bits", [pytest.param(c, b, id=name) for name, c, b in _reference_sequences()])
def test_kernel_coder_matches_the_reference_coder_when_it_stops_for_room(contexts, bits, monkeypatch):
    # With room for one bit at first, the kernel's calls stop for room and
    # resume mid-sequence; finish_bits then ends the stream the reference ends.
    kernel = rangecoder.native()
    stops = []
    finishes = []

    def code_bits(state, done, *args):
        status = kernel.code_bits(state, done, *args)
        if status == rangecoder.NEED_ROOM:
            stops.append(ctypes.c_int64.from_address(done).value)
        return status

    def finish_bits(state):
        finishes.append(kernel.finish_bits(state))
        return finishes[-1]

    monkeypatch.setattr(rangecoder, "_BITS_ROOM", 1)
    monkeypatch.setattr(rangecoder, "native", lambda: SimpleNamespace(code_bits=code_bits, finish_bits=finish_bits))
    enc = RangeEncoder(count_tables(64))
    enc.encode_many(contexts, bits)
    stream = enc.finish()
    ref_tables = count_tables(64)
    assert stream == reference_encode(contexts, bits, ref_tables)
    assert table_bytes(enc.tables) == table_bytes(ref_tables)
    assert stops and all(0 < k < len(bits) for k in stops)
    assert finishes == [0]
    monkeypatch.undo()
    dec = RangeDecoder(stream, count_tables(64))
    assert [dec.decode(ctx) for ctx in contexts] == bits
    assert table_bytes(dec.tables) == table_bytes(ref_tables)


@pytest.mark.parametrize("low,bit", [(0, 0), (1 << 30, 1)], ids=["low-below-a-quarter", "low-at-a-quarter"])
def test_finish_bits_writes_nothing_until_the_termination_fits(low, bit):
    # Bits 101 written and 5 pending: the termination is one bit and 6
    # inversions, so room for 3 + 5 + 1 bits is one short.
    bits = bytearray(b"\xa0\x00")
    state = rangecoder._coder_state(count_tables(1), low, (1 << 32) - 1, 5, 3, rangecoder.address(bits), 9)
    finish_bits = rangecoder.native().finish_bits
    assert finish_bits(ctypes.byref(state)) == rangecoder.NEED_ROOM
    assert (bits, state.low, state.pos, state.extra) == (b"\xa0\x00", low, 3, 5)
    state.size = 10
    assert finish_bits(ctypes.byref(state)) == 0
    ended = "101" + str(bit) + str(1 - bit) * 6 + "000000"
    assert (bits, state.pos, state.extra) == (int(ended, 2).to_bytes(2, "big"), 10, 0)
