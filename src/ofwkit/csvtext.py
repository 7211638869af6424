"""CSV text of float cells: ``'%.17g' % v`` byte for byte, NaN as an empty cell.

``csv_pieces`` writes every CSV table, a run's and a sweep's alike, with
``_format_block``: it writes that text for a block of rows with numpy,
not one cell at a time. For a finite v with 1e-4 <= |v| < 1e17, '%.17g' is
fixed notation: the 17 digits of N = round-half-even(|v| * 10**(16 - k)),
k = floor(log10|v|), with the point after digit k, trailing fraction
zeros and a bare point dropped. k is exact (see ``_format_block``)
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
from typing import Iterator, Sequence

import numpy as np

from .core import BLOCK_ROWS

__all__ = ["csv_pieces"]

KERNEL_ROWS = 8 * BLOCK_ROWS
_CELL_BYTES = 40
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's split of a double
# The least double >= 10**k for k = -4..16: 10**k itself for k >= 0.
_POW10 = np.array([float(f"1e{k}") for k in range(-4, 17)])
_MASK_NONE = 21 * 17  # the mask rows of an empty cell
_MASK_TEXT = _MASK_NONE + 1  # and of a cell formatted one at a time
_OR_ALONE = 21 * 8  # the OR rows of both, for column 0 and the others


@functools.cache
def _kernel_tables() -> tuple:
    """The kernel's tables, built on first use from Python numbers and
    bytes: 10**s for s = 0..20, exact doubles, and their Veltkamp halves;
    the ASCII words of 0000..9999 and the trailing zeros of each (4 for
    0000); the cell mask rows and the cell OR rows."""
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
    return (
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


def _format_block(values: np.ndarray) -> list[str]:
    """The text of a (rows, cols) block of floats, one piece per
    ``BLOCK_ROWS`` rows, each row ending in a newline."""
    pow10, pow10_hi, pow10_lo, digits, group_tz, mask, orb = _kernel_tables()
    cols = values.shape[1]
    v = values.ravel()

    # s = 16 - k, and hi + rint(lo) == N exactly, for every cell formatted
    # here (kern); 1.0 stands in for the others. k + 5 counts the
    # ``_POW10`` entries <= |v|. N < 10**17, as no double lies within
    # 5e-18 (relative) below 10**(k + 1).
    a = np.abs(v)
    kern = (a < 1e17) & (a >= 1e-4)
    a[~kern] = 1.0
    s = 21.0 - np.searchsorted(_POW10, a, side="right")
    index = s.astype(np.int64)
    # hi + lo == a * 10**s exactly: Dekker's TwoProduct.
    hi = a * pow10.take(index, mode="clip")
    a_hi, a_lo = _veltkamp(a)
    p_hi, p_lo = pow10_hi.take(index, mode="clip"), pow10_lo.take(index, mode="clip")
    lo = a_hi * p_hi - hi + a_hi * p_lo + a_lo * p_hi + a_lo * p_lo
    del a, a_hi, a_lo, p_hi, p_lo, index

    # N = x8 * 1e8 + l8 in doubles, exactly: x8 * 1e8 has at most 49
    # significant bits and hi - x8 * 1e8 is exact (Sterbenz). The floor of
    # the rounded quotient, or rint(lo) < 0, can leave l8 one 1e8 short; it
    # never reaches 1e8, as hi is the double nearest hi + lo and
    # (x8 + 1) * 1e8 is a double.
    x8 = np.floor(hi / 1e8)
    l8 = hi - x8 * 1e8 + np.rint(lo)
    del hi, lo
    borrow = l8 < 0.0
    x8 -= borrow
    l8 += borrow * 1e8
    # N is d0 g1 g2 g3 g4: d0 from x8, the groups from x8's and l8's last
    # 8 digits, 4 at a time. Every quotient here is exact.
    d0 = np.floor(x8 / 1e8)
    x8 -= d0 * 1e8
    g1 = np.floor(x8 / 1e4)
    g3 = np.floor(l8 / 1e4)
    groups = [d0, g1, x8 - g1 * 1e4, g3, l8 - g3 * 1e4]
    del x8, l8, d0, g1, g3
    # Each cell holds N's digit words twice: as its integer part and as
    # its fraction. tz counts N's trailing zeros from group 1 on.
    words = []
    for j, group in enumerate(groups):
        at = group.astype(np.int64)
        words.append(digits.take(at, mode="clip"))
        if j == 1:
            tz = group_tz.take(at, mode="clip")
        elif j > 1:
            tz = tz * (group == 0.0) + group_tz.take(at, mode="clip")
    del groups, at
    cells = np.stack(words + words, axis=1)
    del words

    # The mask row s * 17 + tz and the OR row ((s * 2 + point) * 2 + neg)
    # * 2 + col0 of each cell, a point being written when a fraction digit
    # is left; cells not formatted here get the empty rows, or the text
    # rows with their text written into words 1-6.
    mask_row = s * 17.0 + tz
    or_row = ((s * 2.0 + (tz < s)) * 2.0 + (v < 0.0)) * 2.0
    del s, tz
    other = ~kern
    mask_row[other] = _MASK_NONE
    or_row[other] = _OR_ALONE
    or_row.reshape(-1, cols)[:, 0] += 1.0  # column 0
    alone = np.flatnonzero(other & (v == v))
    if alone.size:
        padded = "".join(["%-24.17g" % c for c in v[alone].tolist()]).encode()
        cells[alone, 1:7] = np.frombuffer(padded.replace(b" ", b"\0"), np.uint32).reshape(-1, 6)
        mask_row[alone] = _MASK_TEXT
    mask_at, or_at = mask_row.astype(np.int64), or_row.astype(np.int64)
    del mask_row, or_row

    # Cut each cell to its text, one piece of ``BLOCK_ROWS`` rows at a time.
    pieces = []
    step = BLOCK_ROWS * cols
    for start in range(0, v.size, step):
        part = cells[start : start + step]
        part &= mask.take(mask_at[start : start + step], axis=0, mode="clip")
        part |= orb.take(or_at[start : start + step], axis=0, mode="clip")
        data = part.view(np.uint8).ravel()
        # A piece's text starts with the newline of its first row.
        pieces.append(str(data[data != 0][1:].data, "ascii") + "\n")
    return pieces


def csv_pieces(header: str, columns: Sequence) -> Iterator[str]:
    """The CSV text of equal-length ``columns`` under ``header``: its line,
    then one piece per ``BLOCK_ROWS`` rows, formatted ``KERNEL_ROWS`` rows
    at a time. Round numbers below 1e17 read as '%d'."""
    yield header + "\n"
    m = len(columns[0])
    block = np.empty((min(m, KERNEL_ROWS), len(columns)))
    for start in range(0, m, KERNEL_ROWS):
        stop = min(start + KERNEL_ROWS, m)
        for j, column in enumerate(columns):
            block[: stop - start, j] = column[start:stop]
        yield from _format_block(block[: stop - start])
