"""IntPairs: array-backed storage, list semantics, packed wire form."""

import base64
import zlib

from hypothesis import example, given
from hypothesis import strategies as st

from repro.results.pairs import IntPairs

INT64 = st.integers(-(2**63), 2**63 - 1)
PAIR_LISTS = st.lists(st.tuples(INT64, INT64), max_size=300)


def test_reads_like_a_list_of_tuples():
    pairs = IntPairs([(0, 1), (2, 3)])
    assert len(pairs) == 2
    assert list(pairs) == [(0, 1), (2, 3)]
    assert pairs[1] == (2, 3)
    assert list(pairs.firsts()) == [0, 2]
    assert list(pairs.seconds()) == [1, 3]
    assert IntPairs([(0, 1), (2, 3)]) == pairs


def test_from_arrays_round_trip():
    source = IntPairs([(5, 6), (7, 8)])
    rebuilt = IntPairs.from_arrays(source.firsts(), source.seconds())
    assert rebuilt == source
    assert rebuilt.tolist() == [(5, 6), (7, 8)]


@given(PAIR_LISTS)
@example([])
@example([(0, 300_000)])
@example([(-1, -(2**63)), (2**63 - 1, 0), (0, 2**63 - 1)])
@example([(t, 300_000 + t % 7) for t in range(0, 50_000_000, 1_000)])
def test_packed_round_trip(pairs):
    original = IntPairs(pairs)
    text = original.to_packed()
    assert text.isascii()
    assert IntPairs.from_packed(text) == original
    assert IntPairs.from_packed(text).tolist() == pairs


def test_packed_layout_is_delta_coded_little_endian_firsts_then_seconds():
    text = IntPairs([(10, 2), (13, 4)]).to_packed()
    raw = zlib.decompress(base64.b64decode(text))
    # words 10, 13, 2, 4 -> deltas 10, 3, -11, 2
    assert raw == b"".join(
        n.to_bytes(8, "little", signed=True) for n in (10, 3, -11, 2)
    )
