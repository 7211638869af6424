"""CSV text of float cells: ``'%.17g' % v`` byte for byte, NaN as an empty cell.

``CellFormatter`` writes that text for a block of rows with numpy, not
one cell at a time. For a finite v with 1e-4 <= |v| < 1e17, '%.17g' is
fixed notation: the 17 digits of N = round-half-even(|v| * 10**(16 - k)),
k = floor(log10|v|), with the point after digit k, trailing fraction
zeros and a bare point dropped. k is exact (see ``CellFormatter._scale``)
and so is N: Dekker's TwoProduct gives hi + lo == |v| * 10**s (s = 16 -
k <= 20, where 10**s is a double); hi >= 1e16 > 2**53 is an even integer,
so hi + rint(lo) rounds half to even. Zeros, inf and |v| outside the
window take ``'%.17g' % v`` itself.

A cell is 10 words of 4 bytes, NUL where nothing is written, and its
text is its non-NUL bytes. Bytes 0-2 take the separator before the cell
(a newline before column 0), the sign and the 0 of a value below 1;
bytes 3-19 hold N's digits as the integer part, bytes 20-39 '000' and N's
digits again as the fraction. A mask row picked by (k, trailing zeros of
N) cuts each copy to its part, and an OR row picked by (k, whether a
fraction digit is left, sign, column 0) writes the separator, sign and
point. A cell formatted one at a time has its separator at byte 3 and
its text from byte 4.

The arithmetic runs in doubles, with int64 only to index the tables: a
numpy loop that nothing else in a run calls, such as int64 division, adds
its code pages to the process's resident memory. For the same reason the
tables are built from Python bytes, and this module is apart from
``harness``: with no bytecode cache, compiling a module holds resident
memory in proportion to its size, and modules compiled one after the
other reuse it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .core import BLOCK_ROWS

__all__ = ["KERNEL_ROWS", "CellFormatter"]

KERNEL_ROWS = 8 * BLOCK_ROWS
_CELL_BYTES = 40
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's split of a double
# The least double >= 10**k for k = -4..16: 10**k itself for k >= 0.
_POW10 = np.array([float(f"1e{k}") for k in range(-4, 17)])
_MASK_NONE = 21 * 17  # the mask rows of an empty cell
_MASK_TEXT = _MASK_NONE + 1  # and of a cell formatted one at a time
_OR_ALONE = 21 * 8  # the OR rows of both, for column 0 and the others


class _Tables(NamedTuple):
    """The formatter's lookup tables, from ``_kernel_tables``."""

    pow10: np.ndarray  # 10**s for s = 0..20, exact doubles
    pow10_hi: np.ndarray  # and their Veltkamp halves
    pow10_lo: np.ndarray
    digits: np.ndarray  # the ASCII words of 0000..9999
    group_tz: np.ndarray  # the trailing zeros of each (4 for 0000)
    mask: np.ndarray  # cell mask rows
    orb: np.ndarray  # cell OR rows


@functools.cache
def _kernel_tables() -> _Tables:
    """The formatter's tables, built on first use from Python numbers and
    bytes."""
    pow10 = [float(10**s) for s in range(21)]  # exact
    halves = [_veltkamp(p) for p in pow10]

    digits = bytearray(4 * 10000)
    for j, run in enumerate((1000, 100, 10, 1)):
        digits[j::4] = b"".join(bytes([48 + d]) * run for d in range(10)) * (1000 // run)
    tz = bytearray(10000)
    for zeros, unit in enumerate((10, 100, 1000, 10000), 1):
        tz[::unit] = bytes([zeros]) * (10000 // unit)

    masks, ors = [], []
    for s in range(21):
        k = 16 - s
        base = bytearray(_CELL_BYTES)
        for b in range(3, 4 + k):  # integer digits 0..k
            base[b] = 255
        for b in range(24 + k, _CELL_BYTES):  # fraction digits k + 1..16
            base[b] = 255
        if k < 0:
            base[2] = 255
        masks += [base[: _CELL_BYTES - zeros] + bytes(zeros) for zeros in range(17)]
        first = 3 if k >= 0 else 2
        for i in range(8):
            point, neg, col0 = i >> 2, i >> 1 & 1, i & 1
            row = bytearray(_CELL_BYTES)
            if point:
                row[4 + k if k >= 0 else 3] = ord(".")
            if neg:
                row[first - 1] = ord("-")
            row[first - 1 - neg] = ord("\n" if col0 else ",")
            ors.append(row)
    text = bytearray(_CELL_BYTES)
    text[4:28] = b"\xff" * 24
    masks += [bytes(_CELL_BYTES), text]  # _MASK_NONE, _MASK_TEXT
    for sep in b",\n":  # _OR_ALONE, _OR_ALONE + 1
        row = bytearray(_CELL_BYTES)
        row[3] = sep
        ors.append(row)
    mask, orb = b"".join(masks), b"".join(ors)

    as_array = lambda data, dtype: np.frombuffer(bytes(data), dtype)
    return _Tables(
        np.array(pow10),
        np.array([hi for hi, _ in halves]),
        np.array([lo for _, lo in halves]),
        as_array(digits, np.uint32),
        as_array(tz, np.uint8).astype(float),
        as_array(mask, np.uint32).reshape(-1, _CELL_BYTES // 4),
        as_array(orb, np.uint32).reshape(-1, _CELL_BYTES // 4),
    )


def _veltkamp(x):
    """(hi, lo), hi + lo == x, each half with at most 26 significant bits."""
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


class CellFormatter:
    """Formats blocks of up to ``rows`` rows of ``cols`` floats as CSV text,
    in one workspace that every block reuses."""

    def __init__(self, rows: int, cols: int):
        n = rows * cols
        self.cols = cols
        self.values = np.empty((rows, cols))
        self._cells = np.empty((n, _CELL_BYTES // 4), np.uint32)
        piece = min(rows, BLOCK_ROWS) * cols
        self._rows = np.empty((piece, _CELL_BYTES // 4), np.uint32)  # one piece's table rows
        self._keep = np.empty(piece * _CELL_BYTES, bool)
        self._f = np.empty((6, n))
        self._flags = np.empty((3, n), bool)
        self._word = np.empty(n, np.uint32)
        self._tables = _kernel_tables()

    def pieces(self, m: int) -> list[str]:
        """The text of ``values[:m]``, one piece per ``BLOCK_ROWS`` rows, each
        row ending in a newline."""
        if m == 0:
            return []
        v = self.values[:m].ravel()
        self._scale(v)
        self._write_digits(v.size)
        mask_at, or_at = self._table_rows(v, m)
        return self._cut(v.size, mask_at, or_at)

    def _scale(self, v):
        """Leave in the workspace s = 16 - k, and hi + r == N exactly for
        every cell formatted here (kern); 1.0 stands in for the others.
        k + 5 counts the ``_POW10`` entries <= |v|. N < 10**17, as no double
        lies within 5e-18 (relative) below 10**(k + 1)."""
        n = v.size
        a, hi, lo, r, s = self._f[:5, :n]
        index = self._f[5, :n].view(np.int64)
        kern, other = self._flags[:2, :n]
        np.abs(v, out=a)
        np.less(a, 1e17, out=kern)
        np.greater_equal(a, 1e-4, out=other)
        kern &= other
        np.logical_not(kern, out=other)
        np.copyto(a, 1.0, where=other)
        np.subtract(21.0, np.searchsorted(_POW10, a, side="right"), out=s)
        index[...] = s
        # hi + lo == a * 10**s exactly: Dekker's TwoProduct, r and a scratch.
        np.multiply(a, self._tables.pow10.take(index, mode="clip"), out=hi)
        np.multiply(a, _SPLITTER, out=r)
        np.subtract(r, a, out=lo)
        np.subtract(r, lo, out=r)  # a's high half
        np.subtract(a, r, out=a)  # a's low half
        p_hi = self._tables.pow10_hi.take(index, mode="clip")
        p_lo = self._tables.pow10_lo.take(index, mode="clip")
        np.multiply(r, p_hi, out=lo)
        lo -= hi
        r *= p_lo
        lo += r
        np.multiply(a, p_hi, out=r)
        lo += r
        a *= p_lo
        lo += a
        np.rint(lo, out=r)

    def _write_digits(self, n):
        """Write N's digit words into both copies of each cell; leave N's
        trailing zeros in tz."""
        x8, g, l8, tz = self._f[:4, :n]
        hi, r = self._f[1, :n], self._f[3, :n]  # read before g and tz are written
        index = self._f[5, :n].view(np.int64)
        other = self._flags[1, :n]
        cells, word = self._cells[:n], self._word[:n]
        digits, group_tz = self._tables.digits, self._tables.group_tz

        # N = x8 * 1e8 + l8 in doubles, exactly: x8 * 1e8 has at most 49
        # significant bits and hi - x8 * 1e8 is exact (Sterbenz). The floor
        # of the rounded quotient, or r < 0, can leave l8 one 1e8 short; it
        # never reaches 1e8, as hi is the double nearest hi + lo and
        # (x8 + 1) * 1e8 is a double.
        np.divide(hi, 1e8, out=x8)
        np.floor(x8, out=x8)
        np.multiply(x8, 1e8, out=l8)
        np.subtract(hi, l8, out=l8)
        l8 += r
        np.less(l8, 0.0, out=other)
        np.subtract(x8, 1.0, out=x8, where=other)
        np.add(l8, 1e8, out=l8, where=other)

        def put(j, group, scratch=None):
            """Word j of each copy from ``group``; tz counts from group 1 on."""
            index[...] = group
            np.take(digits, index, out=word, mode="clip")
            cells[:, j] = word
            cells[:, j + 5] = word
            if j == 1:
                np.take(group_tz, index, out=tz, mode="clip")
            elif j > 1:
                np.equal(group, 0.0, out=other)
                np.multiply(tz, other, out=tz)
                np.take(group_tz, index, out=scratch, mode="clip")
                np.add(tz, scratch, out=tz)

        # N is d0 g1 g2 g3 g4: d0 from x8, the groups from x8's and l8's
        # last 8 digits, 4 at a time. Every quotient here is exact.
        np.divide(x8, 1e8, out=g)
        np.floor(g, out=g)
        put(0, g)
        np.multiply(g, 1e8, out=g)
        x8 -= g
        np.divide(x8, 1e4, out=g)
        np.floor(g, out=g)
        put(1, g)
        np.multiply(g, 1e4, out=g)
        x8 -= g
        put(2, x8, scratch=g)
        np.divide(l8, 1e4, out=g)
        np.floor(g, out=g)
        put(3, g, scratch=x8)
        np.multiply(g, 1e4, out=g)
        l8 -= g
        put(4, l8, scratch=g)

    def _table_rows(self, v, m):
        """The mask row s * 17 + tz and the OR row ((s * 2 + point) * 2 +
        neg) * 2 + col0 of each cell, a point being written when a fraction
        digit is left; cells not formatted here get the empty rows, or the
        text rows with their text written into words 1-6."""
        n = v.size
        mask_row, or_row, _, tz, s = self._f[:5, :n]
        kern, other, neg = self._flags[:, :n]
        np.multiply(s, 17.0, out=mask_row)
        mask_row += tz
        np.less(tz, s, out=other)
        np.multiply(s, 2.0, out=or_row)
        or_row += other
        or_row *= 2.0
        np.less(v, 0.0, out=neg)
        or_row += neg
        or_row *= 2.0
        np.logical_not(kern, out=other)
        np.copyto(mask_row, _MASK_NONE, where=other)
        np.copyto(or_row, _OR_ALONE, where=other)
        or_row.reshape(m, self.cols)[:, 0] += 1.0  # column 0
        np.equal(v, v, out=neg)
        other &= neg
        alone = np.flatnonzero(other)
        if alone.size:
            padded = "".join(["%-24.17g" % c for c in v[alone].tolist()]).encode()
            words = np.frombuffer(padded.replace(b" ", b"\0"), np.uint32)
            self._cells[alone, 1:7] = words.reshape(-1, 6)
            mask_row[alone] = _MASK_TEXT
        mask_at, or_at = self._f[2, :n].view(np.int64), self._f[5, :n].view(np.int64)
        mask_at[...], or_at[...] = mask_row, or_row
        return mask_at, or_at

    def _cut(self, n, mask_at, or_at):
        """Cut each cell to its text, one piece of ``BLOCK_ROWS`` rows at a
        time, and return the pieces' text."""
        mask, orb = self._tables.mask, self._tables.orb
        pieces = []
        step = len(self._rows)
        for start in range(0, n, step):
            part = self._cells[start : min(start + step, n)]
            rows = self._rows[: len(part)]
            np.take(mask, mask_at[start : start + step], axis=0, out=rows, mode="clip")
            part &= rows
            np.take(orb, or_at[start : start + step], axis=0, out=rows, mode="clip")
            part |= rows
            data = part.view(np.uint8).ravel()
            keep = self._keep[: data.size]
            np.not_equal(data, 0, out=keep)
            # A piece's text starts with the newline of its first row.
            pieces.append(str(data[keep][1:].data, "ascii") + "\n")
        return pieces
