"""A compact, typed sequence of ``(int, int)`` pairs.

Day-long replays accumulate hundreds of thousands of frequency
transitions and busy intervals; as Python lists of tuples of boxed ints
those traces cost ~130 bytes per pair and dominate a run's resident
memory.  :class:`IntPairs` stores the same data as two parallel
``array('q')`` buffers — 16 bytes per pair — while still *reading* like a
list of tuples: iteration yields ``(a, b)`` tuples, indexing and slicing
work, equality is element-wise.

The device-side accumulators (``CpuCore`` busy trace, ``CpuFreqPolicy``
transition trace) append into raw arrays during the run and hand the
result over as ``IntPairs`` without ever boxing a pair; the
:class:`~repro.results.RunRecord` holds them in this form for its whole
lifetime.

On the wire (fleet IPC and the result cache) a sequence is one ASCII
string, :meth:`IntPairs.to_packed`: base64 of a zlib stream over
little-endian int64 words — the first column followed by the second,
delta-coded (each word minus its predecessor, wrapping modulo 2**64).
Timestamps rise in small steps and frequencies repeat, so the deltas
compress ~3.5x better than the raw words, and the numpy ``diff`` /
``cumsum`` pair is faster than the larger zlib stream it saves.
Decoding ends in a ``frombytes`` — no per-pair Python work in either
direction.
"""

from __future__ import annotations

import base64
import zlib
from array import array
from typing import Iterable, Iterator

import numpy as np

_TYPECODE = "q"  # signed 64-bit: microsecond timestamps and kHz both fit
_WIRE_WORD = np.dtype("<i8")  # the wire is little-endian whatever the host
_ZLIB_LEVEL = 1  # higher levels cost time and shrink the deltas little


class IntPairs:
    """An immutable-by-convention sequence of integer pairs."""

    __slots__ = ("_a", "_b")

    def __init__(self, pairs: "Iterable[tuple[int, int]] | IntPairs" = ()) -> None:
        if isinstance(pairs, IntPairs):
            self._a = array(_TYPECODE, pairs._a)
            self._b = array(_TYPECODE, pairs._b)
            return
        a = array(_TYPECODE)
        b = array(_TYPECODE)
        for first, second in pairs:
            a.append(first)
            b.append(second)
        self._a = a
        self._b = b

    @classmethod
    def from_arrays(cls, a: array, b: array) -> "IntPairs":
        """Adopt two parallel ``array('q')`` buffers (no copy)."""
        if len(a) != len(b):
            raise ValueError(
                f"parallel arrays disagree in length: {len(a)} != {len(b)}"
            )
        pairs = cls.__new__(cls)
        pairs._a = a
        pairs._b = b
        return pairs

    # --- wire form --------------------------------------------------------------

    def to_packed(self) -> str:
        """The wire form: base64(zlib(LE int64 deltas of first + second))."""
        words = np.concatenate(
            (np.frombuffer(self._a, np.int64), np.frombuffer(self._b, np.int64))
        )
        deltas = np.diff(words, prepend=np.int64(0)).astype(_WIRE_WORD)
        packed = zlib.compress(deltas.tobytes(), _ZLIB_LEVEL)
        return base64.b64encode(packed).decode("ascii")

    @classmethod
    def from_packed(cls, text: str) -> "IntPairs":
        """Decode :meth:`to_packed` output.

        Raises ``ValueError`` (``binascii.Error`` is one) on bad base64,
        ``zlib.error`` on a truncated or corrupt stream, and
        ``ValueError`` when the words do not split into two equal
        columns — the result cache treats all of them as a miss.
        """
        raw = zlib.decompress(base64.b64decode(text, validate=True))
        if len(raw) % (2 * _WIRE_WORD.itemsize):
            raise ValueError(
                f"packed pairs hold {len(raw)} bytes, not a whole number "
                "of int64 pairs"
            )
        words = np.cumsum(np.frombuffer(raw, _WIRE_WORD), dtype=np.int64)
        half = len(words) // 2
        a = array(_TYPECODE)
        a.frombytes(words[:half].tobytes())
        b = array(_TYPECODE)
        b.frombytes(words[half:].tobytes())
        return cls.from_arrays(a, b)

    # --- sequence protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._a)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._a, self._b)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self._a[index], self._b[index]))
        return (self._a[index], self._b[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPairs):
            return self._a == other._a and self._b == other._b
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                pair == mine for pair, mine in zip(other, self)
            )
        return NotImplemented

    def __repr__(self) -> str:
        preview = ", ".join(repr(pair) for pair in self[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"IntPairs([{preview}{suffix}], len={len(self)})"

    # --- views ------------------------------------------------------------------

    def firsts(self) -> array:
        """The first elements as a live ``array('q')`` (do not mutate)."""
        return self._a

    def seconds(self) -> array:
        return self._b

    def tolist(self) -> list[tuple[int, int]]:
        return list(self)
