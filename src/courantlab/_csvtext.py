"""The CSV text of a float block, byte for byte what `'%.17g'` writes.

`rows_text(block)` joins each row's values with "," and ends it with "\\n".
A value v with 1e-4 <= |v| < 1e13, where '%.17g' writes fixed notation,
gets its digits from exact integer arithmetic on whole arrays; a zero is
written "0" or "-0"; every other value (inf, nan, and the magnitudes
'%.17g' writes in exponent notation or past 13 integer digits) is
formatted by '%.17g' itself and spliced in at its place.

The digits.  '%.17g' writes the 17 significant digits of v correctly
rounded, ties to even (dtoa mode 2: 1e14 + 1/8 is written
100000000000000.12), at decimal exponent X of the rounded value, in fixed
notation when -4 <= X < 17, trailing zeros of the fraction and a point
with no fraction after it dropped.  A finite nonzero |v| is f 2^E with f in
[1/2, 1) (`np.frexp`), so m 2^e exactly with m = f 2^53 < 2^53 an integer
and e = E - 53.  For k with 10^k <= |v| < 10^(k+1) and p = 16 - k,

  floor(|v| 10^p) = floor(m 5^p 2^(p + e)) = floor(m 5^p / 2^s),   s = 37 - E + k,

and this integer N lies in [10^16, 10^17): both bounds are integers, so
10^16 <= |v| 10^p < 10^17 holds exactly when it holds for the floor.  k
starts at floor(log10 |v|), which lies in [-4, 13] over the fast range
(log10 of a value just below 1e13 rounds to 13) and is off by at most one
where log10 rounds across an integer; a k whose N falls below 10^16 is too
large and one whose N reaches 10^17 too small, so each is moved by one and
N formed again until every N lies inside.  Every k tried lies in [-4, 13]:
then p lies in [3, 20], 5^p < 2^47, and m 5^p < 2^100 is two uint64 limbs;
2^(E-1) <= |v| < 2^E puts s in [5, 47], so N and the s bits shifted out
are one shift of each limb.  Those bits, against 2^(s-1), round N half to
even; a carry to 10^17 is 10^16 at X = k + 1, else X = k (no double below
1e13 rounds up to it).  The integer part is then N // 10^(16 - X), at most
13 digits, and the fraction the remainder, 16 - X <= 20 digits.

The text.  Each value is a row of 4-byte words at fixed places: the sign,
four words of the integer part, the point, five words of a 20-digit
fraction, the separator.  A word of digits is one of 10 000 four-digit
groups read from three tables: every digit, leading zeros as NUL (the
integer part's leading groups), trailing zeros as NUL (the fraction's
trailing groups).  NUL stands wherever '%.17g' writes nothing: the integer
part's leading zeros, the fraction's trailing zeros, the point of an empty
fraction, the sign of a positive value.  Dropping every NUL byte leaves
the text, with no shift by a variable amount.  A value outside the fast
range writes the words "%.17" and "g", and the chunk's text is then
%-formatted with those values.
"""

import numpy as np

_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_POW5 = 5 ** np.arange(28, dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)

_GROUPS = np.arange(10000, dtype=np.uint16)[:, None]
_PLACES = np.array([1000, 100, 10, 1], dtype=np.uint16)
_DIGITS = (_GROUPS // _PLACES % 10 + 48).astype(np.uint8)
# the four-digit words from 0, 10000 and 20000 on: every digit, leading
# zeros as NUL, trailing zeros as NUL
_LEAD, _TRAIL = 10000, 20000
_WORDS = np.concatenate([
    _DIGITS,
    np.where(_GROUPS < _PLACES, 0, _DIGITS),
    np.where(_GROUPS % (10 * _PLACES) == 0, 0, _DIGITS),
    np.frombuffer(b"0\0\0\0-\0\0\0.\0\0\0,\0\0\0\n\0\0\0%.17g\0\0\0", np.uint8).reshape(-1, 4),
]).astype(np.uint8).view(np.uint32).ravel()
_ZERO, _MINUS, _POINT, _COMMA, _NEWLINE, _SPEC, _G = (
    _WORDS[30000 + i] for i in range(7))


def _floor_scaled(m, s, five):
    """(floor(m 5^p / 2^s), the s bits shifted out, 2^(s-1)), m 5^p formed
    as two uint64 limbs from the 32-bit halves of m and of five = 5^p."""
    mh, ml, fh, fl = m >> 32, m & _LOW32, five >> 32, five & _LOW32
    low, cross1, cross2 = ml * fl, ml * fh, mh * fl
    mid = (low >> 32) + (cross1 & _LOW32) + (cross2 & _LOW32)
    lo = (low & _LOW32) | (mid << 32)
    hi = mh * fh + (cross1 >> 32) + (cross2 >> 32) + (mid >> 32)
    one = np.uint64(1)
    rest, half = lo & ((one << s) - one), one << (s - one)
    return (hi << (np.uint64(64) - s)) | (lo >> s), rest, half


def _digits(a):
    """(N, X) of the values a of the fast range: N the 17 significant
    digits of a as an integer in [10^16, 10^17), X the decimal exponent
    (see the module docstring)."""
    f, big_e = np.frexp(a)
    m = (f * 2.0 ** 53).astype(np.uint64)
    k = np.floor(np.log10(a)).astype(np.int64)
    while True:
        n, rest, half = _floor_scaled(m, (37 - big_e + k).astype(np.uint64), _POW5[16 - k])
        low, high = n < _POW10[16], n >= _POW10[17]
        if not (low.any() or high.any()):
            break
        k += high.astype(np.int64) - low
    n += (rest > half) | ((rest == half) & (n & np.uint64(1)).astype(bool))
    carry = n == _POW10[17]
    return np.where(carry, _POW10[16], n), k + carry


def _fixed(a, fast):
    """(whole, frac, first, last) of the fast values of a, zeros elsewhere:
    the integer part and the fraction as integers, and the fraction's 20
    digits as 12 in `first` and 8 in `last`."""
    n, x = _digits(np.where(fast, a, 1.0))
    n = np.where(fast, n, np.uint64(0))
    d = np.where(fast, 16 - x, 0)
    # d fraction digits; N < 10^17, so 10^17 splits N as 10^d does for d > 17
    split = _POW10[np.minimum(d, 17)]
    whole, frac = n // split, n % split
    # t >= 0 moves frac's digits past the twelfth to `last`, t < 0 pads the
    # first 12 with zeros
    t = d - 12
    cut = _POW10[np.maximum(t, 0)]
    return (whole, frac, frac // cut * _POW10[np.maximum(-t, 0)],
            frac % cut * _POW10[8 - np.maximum(t, 0)])


def _words(v, fast, slow, shape):
    """The 12 words of each value of v (see the module docstring), for a
    block of `shape`."""
    whole, frac, first, last = _fixed(np.abs(v), fast)
    words = np.zeros((len(v), 12), np.uint32)
    words[:, 0] = np.where(np.signbit(v) & ~slow, _MINUS, 0)
    # the integer part's groups above the largest one in the block are NUL
    top = whole.max()
    for q, place in enumerate((12, 8, 4, 0)):
        if not place or top >= _POW10[place]:
            group = (whole // _POW10[place] % _POW10[4]).astype(np.intp)
            words[:, 1 + q] = _WORDS[group + (whole < _POW10[place + 4]) * _LEAD]
    words[:, 4] = np.where(whole == 0, _ZERO, words[:, 4])
    words[:, 5] = np.where(frac != 0, _POINT, 0)
    # the fraction's five groups, the last four from uint32 halves of 10^8
    lead = first // _POW10[8]
    middle, last = (first - lead * _POW10[8]).astype(np.uint32), last.astype(np.uint32)
    groups = [lead, middle // 10000, middle % 10000, last // 10000, last % 10000]
    # a group is written in full while a later group of the fraction is nonzero
    zero = last == 0
    after = [zero & (middle == 0), zero & (groups[2] == 0), zero, groups[4] == 0, True]
    for q, (group, tail) in enumerate(zip(groups, after)):
        words[:, 6 + q] = _WORDS[group.astype(np.intp) + tail * _TRAIL]
    words[slow, 3], words[slow, 4] = _SPEC, _G
    words[:, 11] = _COMMA
    words.reshape(shape + (12,))[:, -1, 11] = _NEWLINE
    return words


def rows_text(block: np.ndarray) -> str:
    """The rows of `block` as '%.17g' values joined by "," and ended by "\\n".

    The digit arrays are freed before the words are copied to bytes, and
    each copy once the next is made: a call holds at most about 170 bytes a
    value (0.63 MB for 512 rows of 7 values)."""
    v = np.asarray(block, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e13)
    slow = ~fast & (a != 0)
    text = _words(v, fast, slow, block.shape).tobytes().translate(None, b"\0").decode("ascii")
    return text % tuple(v[slow].tolist()) if slow.any() else text
