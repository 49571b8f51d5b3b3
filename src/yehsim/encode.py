"""The bytes of simulate's value paths: each value's %.17g text, encoded in
numpy, and the paths.csv lines and bundle.json rows built from it.

For 1e-4 <= |x| < 2**51, where %.17g prints a fixed-point form, the 17
significant digits are computed as an exact integer: with x = m * 2**e and
q = 16 - floor(log10|x|), the 128-bit product m * 5**q (streams._mulhilo,
the helper Philox uses) shifted right by -(e + q) bits and rounded half to
even.  Their ASCII, from a table of digit pairs, is laid out by sign and
decimal exponent and cut after the last nonzero digit.  Every other value
(zeros, |x| < 1e-4, |x| >= 2**51, the exponent form) goes through Python's
"%.17g", so the bytes are Python's either way.  Values are encoded about
2**13 at a time, so the temporaries do not grow with the path count.

Only simulate imports this module (cli.cmd_simulate), so the other commands
neither compile nor hold it.
"""

from __future__ import annotations

import numpy as np

from .streams import _mulhilo

#: Bytes of the longest %.17g text of a double, "-2.2250738585072014e-308".
_CELL = 24
#: Values encoded at a time, which bounds the encoder's temporaries.  They
#: take about 450 bytes a value, 192 of them encode_17g's (values, _CELL)
#: intp gather index: 3.6 MB for a block of 15 paths of 513 points, more
#: than a chunk of process.CHUNK_DRAWS draws holds (0.5 MB).  Blocks of 2**12
#: values cut simulate's peak by 2.1 MB but cost 50 ms of its 0.6 s wall on
#: a 2-core host (BENCH_working_set.json).
_BLOCK_VALUES = 2**13
#: 5**q for the scale 10**q = 5**q * 2**q of the digits, q = 16 - exp10.
_POW5 = np.array([5**q for q in range(22)], dtype=np.uint64)
#: The two ASCII digits of 0..99 as one uint16 each.
_PAIRS = (np.array([divmod(i, 10) for i in range(100)], dtype=np.uint8)
          + ord("0")).view(np.uint16).ravel()
# Columns of a value's scratch row: its 17 digits, then these four.
_MINUS, _POINT, _ZERO, _NUL = 17, 18, 19, 20
_SPECIALS = np.frombuffer(b"-.0\0", dtype=np.uint8)
#: _LAYOUT[2 * (exp10 + 4) + negative]: the scratch columns of the
#: fixed-point %.17g text of 17 digits with decimal exponent exp10 in
#: [-4, 16) before its trailing zeros are cut: the sign, then the digits
#: with a point after digit exp10, or after "0." and -exp10 - 1 zeros.
_LAYOUT = np.array([
    ([_MINUS] * negative
     + ([*range(e + 1), _POINT, *range(e + 1, 17)] if e >= 0
        else [_ZERO, _POINT, *[_ZERO] * (-e - 1), *range(17)])
     + [_NUL] * 6)[:_CELL]
    for e in range(-4, 16) for negative in (0, 1)], dtype=np.intp)
#: _KEEP[k]: keep the first k bytes of a text.
_KEEP = np.tri(_CELL + 1, _CELL, -1, dtype=np.uint8)


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
    """x // base and x % base, stacked on a new last axis."""
    high = x // base
    return np.stack([high, x - high * base], axis=-1)


def encode_17g(values: np.ndarray) -> list[bytes]:
    """The %.17g texts of values, row by row, as bytes: _digits' in the
    fast range, Python's elsewhere."""
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 2.0**51)
    np.copyto(a, 1.0, where=~fast)  # encoded too, then overwritten
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    n = _digits(a, exp10)
    # log10 may miss by one near a power of ten; the digit count shows it
    miss = (n >= 10**17).astype(np.int64) - (n < 10**16)
    wrong = np.flatnonzero(miss)
    exp10[wrong] += miss[wrong]
    n[wrong] = _digits(a[wrong], exp10[wrong])
    scratch = np.empty((len(x), 21), dtype=np.uint8)
    lead, low = _split(n, 10**16).T
    scratch[:, 0] = lead + ord("0")
    pairs = _split(_split(_split(low, 10**8).astype(np.uint32), 10**4), 100)
    scratch[:, 1:17] = _PAIRS.take(pairs.reshape(len(x), 8)).view(np.uint8)
    scratch[:, 17:] = _SPECIALS
    negative = x < 0
    cols = _LAYOUT.take(2 * (exp10 + 4) + negative, axis=0)
    cols += 21 * np.arange(len(x))[:, None]  # row offsets into the flat scratch
    cells = np.empty(len(x), dtype=f"S{_CELL}")
    text = cells.view(np.uint8).reshape(len(x), _CELL)
    scratch.ravel().take(cols, out=text)
    # cut the zeros after the last nonzero digit, and the point if no digit
    # follows it, unless they are before the point
    last = 16 - np.argmax(scratch[:, 16::-1] != ord("0"), axis=1)
    length = (negative + np.maximum(-exp10, 0)
              + np.where(last > exp10, last + 2, exp10 + 1))
    text *= _KEEP.take(length, axis=0)
    slow = np.flatnonzero(~fast)
    cells[slow] = [b"%.17g" % v for v in x[slow].tolist()]
    return cells.tolist()


def write_rows(first: int, chunks, pieces, csv, bundle):
    """Encode the (k0, values) chunks of the paths from stream index `first`
    on, about _BLOCK_VALUES values at a time.  Each value is encoded once:
    the texts fill the value column of a block's CSV lines (path k's are
    b"%d" % k joining `pieces`, one b",t,%s\n" per grid point after a
    leading b"", % its texts), written through csv(data) as one bytes
    object, and joined by "," they are its paths' JSON rows, written
    through bundle(data) after a "," unless the block starts at path 0."""
    for k0, values in chunks:
        points = values.shape[1]
        step = max(1, _BLOCK_VALUES // points)
        for r0 in range(0, len(values), step):
            texts = encode_17g(values[r0:r0 + step])
            rows = [tuple(texts[i:i + points]) for i in range(0, len(texts), points)]
            k = first + k0 + r0
            csv(b"".join([(b"%d" % (k + i)).join(pieces) % row
                          for i, row in enumerate(rows)]))
            bundle((b",[" if k else b"[") + b"],[".join(map(b",".join, rows)) + b"]")
        del values  # not held while the next chunk is drawn
