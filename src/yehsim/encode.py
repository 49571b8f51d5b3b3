"""The bytes of simulate's value paths: each value's %.17g text, encoded in
numpy, and the paths.csv lines and bundle.json rows built from it, one
bytes object per file and block, with no Python object per value.

For 1e-4 <= |x| < 2**51, where %.17g prints a fixed-point form, the 17
significant digits are computed as an exact integer: with x = m * 2**e and
q = 16 - floor(log10|x|), the 128-bit product m * 5**q (streams._mulhilo,
the helper Philox uses) shifted right by -(e + q) bits and rounded half to
even.  Their ASCII goes into the fixed slots of a cell: the sign, the "0."
and leading zeros of a number below 1, then the digits, with one slot for
the point among them.  A slot the text does not use, such as a zero after
the last nonzero digit, holds NUL, which no text contains, so the text is
the cell without its NULs.  An exact zero is "0" or "-0" by the same route.
Every other value (|x| < 1e-4, |x| >= 2**51, the exponent form) goes
through Python's "%.17g", so the bytes are Python's either way.

A block's CSV lines and JSON rows are laid out alike, as one uint8 matrix
of NUL-padded fields side by side (the path index, the grid point's ",t,"
text, the value's cell, the separators), and each file's bytes are that
matrix without its NULs.  Values are encoded about 2**13 at a time, so the
temporaries do not grow with the path count.

Only simulate imports this module (cli.cmd_simulate), so the other commands
neither compile nor hold it.
"""

from __future__ import annotations

import numpy as np

from .streams import _mulhilo

#: A cell's slots: the sign, "0." and up to three zeros of a number in
#: [1e-4, 1), then the 17 digits, with a slot for the point among them.
_SIGN, _UNIT, _ZEROS, _DIGIT = 0, 1, 3, 6
_CELL = _DIGIT + 18
#: A column of row numbers, which broadcasts against a row of values.
_ROWS = np.arange(18, dtype=np.uint8)[:, None]
#: Values encoded at a time, which bounds the encoder's temporaries.  They
#: peak at about 145 bytes a value, in encode_17g's 128-bit products and
#: digit rows and in a block's CSV lines and their copy before the NULs go
#: (about 50 bytes a value each): 1.1 MB for a block of 15 paths of 513
#: points, against 3.6 MB when each text was a Python bytes object and a
#: (values, 24) intp index gathered the cells (BENCH_simulate_memory.json).
_BLOCK_VALUES = 2**13
#: 5**q for the scale 10**q = 5**q * 2**q of the digits, q = 16 - exp10.
_POW5 = np.array([5**q for q in range(22)], dtype=np.uint64)


def _digits(a: np.ndarray, exp10: np.ndarray) -> np.ndarray:
    """a * 10**(16 - exp10) rounded half to even, exactly, for a in [1e-4,
    2**51) and exp10 within one of floor(log10(a)).  With a = m * 2**e and
    q = 16 - exp10 it is m * 5**q shifted right by -(e + q) bits, 1 to 63
    in this range, the 128-bit product taken in two words."""
    bits = a.view(np.uint64)
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    q = 16 - exp10
    shift = (1075 - q - (bits >> np.uint64(52)).astype(np.int64)).astype(np.uint64)
    hi, lo = _mulhilo(m, _POW5[q])
    n = (hi << (64 - shift)) | (lo >> shift)
    rest, half = lo & ((1 << shift) - 1), 1 << (shift - 1)
    n += (rest > half) | ((rest == half) & (n & 1).astype(bool))
    return n


def _split(x: np.ndarray, base: int) -> np.ndarray:
    """The rows of x split into x // base and x % base, each pair in
    place of its row."""
    high = x // base
    return np.stack([high, x - high * base], axis=1).reshape(-1, x.shape[-1])


def _put(slots: np.ndarray, char: str, where: np.ndarray):
    """Set the uint8 slots to char where `where` holds, to NUL elsewhere."""
    np.multiply(where, np.uint8(ord(char)), out=slots)


def encode_17g(values: np.ndarray) -> np.ndarray:
    """The %.17g texts of values, in order, as the rows of a (values,
    _CELL) uint8 matrix: each row is its text's bytes in order with NULs
    between and after them.  _digits' in the fast range and for zeros,
    Python's elsewhere.  The matrix is the transpose of the one it fills,
    one slot at a time across all values."""
    x = values.ravel()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 2.0**51)
    np.copyto(a, 1.0, where=~fast)  # encoded too, then overwritten; a zero's "1" below
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    n = _digits(a, exp10)
    # log10 may miss by one near a power of ten; the digit count shows it
    miss = (n >= 10**17).astype(np.int64) - (n < 10**16)
    wrong = np.flatnonzero(miss)
    exp10[wrong] += miss[wrong]
    n[wrong] = _digits(a[wrong], exp10[wrong])
    digits = np.empty((17, len(x)), dtype=np.uint8)
    lead, low = _split(n[None], 10**16)
    digits[0], low = lead, low[None]
    # the other 16 in halves of 8, quarters of 4, pairs and digits, each
    # in the narrowest unsigned type that holds it
    for base, dtype in ((10**8, np.uint32), (10**4, np.uint16), (100, np.uint8), (10, np.uint8)):
        low = _split(low, base).astype(dtype)
    digits[1:] = low
    # the text keeps the digits up to the last nonzero one and the units digit
    last = np.max(digits.astype(bool) * _ROWS[:17], axis=0)
    digits[0] -= zero  # a zero was encoded as 1: its one kept digit is 0
    digits += ord("0")
    digits *= _ROWS[:17] <= np.maximum(last, exp10)
    cells = np.empty((_CELL, len(x)), dtype=np.uint8)
    _put(cells[_SIGN], "-", np.signbit(x))
    _put(cells[_UNIT], "0", exp10 < 0)
    _put(cells[_UNIT + 1], ".", exp10 < 0)
    _put(cells[_ZEROS:_DIGIT], "0", _ROWS[:3] < -1 - exp10)
    # the digits after the units digit exp10 >= 0 move one slot on, past
    # the point's, which holds "." if a digit follows it
    body = cells[_DIGIT:]
    body[:17], body[17] = digits, 0
    point = np.where(exp10 >= 0, exp10 + 1, 17)
    np.copyto(body[1:], digits, where=_ROWS[1:] > point)
    np.copyto(body[1:], np.where(point <= last, ord("."), 0).astype(np.uint8),
              where=_ROWS[1:] == point)
    slow = np.flatnonzero(~(fast | zero))
    cells[:, slow] = np.array([b"%.17g" % v for v in x[slow].tolist()],
                              dtype=f"S{_CELL}").view(np.uint8).reshape(len(slow), _CELL).T
    return cells.T


def _without_nul(*fields: np.ndarray) -> bytes:
    """The bytes of uint8 fields that broadcast to one shape but the last
    axis, laid side by side along it, in C order and without their NULs."""
    shape = np.broadcast_shapes(*(field.shape[:-1] for field in fields))
    lines = np.empty((*shape, sum(field.shape[-1] for field in fields)), dtype=np.uint8)
    end = 0
    for field in fields:
        lines[..., end:end + field.shape[-1]] = field
        end += field.shape[-1]
    data = lines.tobytes()
    del lines  # not held beside its copy and the copy without NULs
    return data.translate(None, b"\0")


def write_rows(first: int, chunks, times: list[bytes], csv, bundle):
    """Encode the (k0, values) chunks of the paths from stream index `first`
    on, about _BLOCK_VALUES values at a time.  Each value is encoded once,
    into a block's CSV lines, written through csv(data), and its paths'
    JSON rows, written through bundle(data); data is one bytes object.
    Path k's line at grid point j is b"%d" % k, times[j] (the point's
    b",t,"), the value's text and b"\\n"; its row is b"[", its texts joined
    by b"," and b"]", with a b"," before it unless k is 0."""
    points = len(times)
    grid = np.array(times).view(np.uint8).reshape(points, -1)
    newline = np.frombuffer(b"\n", dtype=np.uint8)
    # a row's first text has ",[" before it, and each text "," or "]" after
    opening = np.zeros((points, 2), dtype=np.uint8)
    opening[0] = np.frombuffer(b",[", dtype=np.uint8)
    closing = np.full((points, 1), ord(","), dtype=np.uint8)
    closing[-1] = ord("]")
    step = max(1, _BLOCK_VALUES // points)
    for k0, values in chunks:
        for r0 in range(0, len(values), step):
            k = first + k0 + r0
            cells = encode_17g(values[r0:r0 + step]).reshape(-1, points, _CELL)
            index = np.arange(k, k + len(cells)).astype(f"S{len(str(k + len(cells)))}")
            csv(_without_nul(index.view(np.uint8).reshape(len(cells), 1, -1),
                             grid, cells, newline))
            bundle(_without_nul(opening, cells, closing)[k == 0:])  # no "," before path 0
            del cells  # not held while the next block is encoded
        del values  # not held while the next chunk is drawn
