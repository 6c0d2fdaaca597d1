"""CSV rows of float64 values, each printed exactly as "%.9g" % x prints it.

"%.9g" rounds to 9 significant digits, half to even, uses fixed notation
when the rounded value's decimal exponent e is in -4..8, and drops trailing
zeros and a bare point. write does that with numpy for all of a chunk's
values at once. A nonzero value takes the vectorized path when
p = |x| * 10**(8 - e), with e = floor(log10|x|) clipped to -4..8, rounds
to an integer D in [1e8, 1e9) and p lies more than 1e-6 from a half: p is
then within half an ulp (under 6e-8) of the exact product, so D is the
exact product correctly rounded, and D in [1e8, 1e9) makes e the rounded
value's exponent whatever floor(log10) returned (rounding as in Steele &
White, PLDI 1990, and Adams, "Ryu revisited", OOPSLA 2019). Every other
nonzero value (non-finite, |x| outside [1e-4, 1e9), near a tie, or with a
misjudged e) is formatted by "%.9g" itself. The vectorized path prints a
value as up to five 4-byte words, a ",-0." prefix, the "000" after it and
three digit groups of D with the point inside, looked up in tables and
padded with NUL bytes, which one bytes.translate per chunk drops.
"""

import itertools

import numpy as np

CHUNK_ROWS = 16  # rows per chunk: its temporaries stay near 1.4 MB at width 420
_TIE = 0.5 - 1e-6  # |p - D| above this: too near a tie to trust p's rounding
_POW10 = np.array([10.0 ** (8 - e) for e in range(-4, 9)])  # exact, by e + 4
_CODES = 2 * 13 * 10  # (sign, e + 4, significant digits or 0 for a zero)


def _words(texts, size):
    """size // 4 uint32 words per text of at most size ASCII bytes, NUL-padded."""
    return np.frombuffer(b"".join(t.encode().ljust(size, b"\0") for t in texts), dtype=np.uint32)


def _tables():
    """(words, offsets, digits). words holds the 2-word prefix of each code,
    then the same with a leading line break, for a row's first value, then
    the digit groups: the group v with the point after its digit p (3 for
    none) and only its first kept digits is word (p * 4 + kept) * 1000 + v.
    offsets[g, code] + v indexes group g's word; digits[g, v] counts D's
    digits up to the last nonzero one when group g = v is nonzero (0 if not)."""
    prefixes, offsets = [], []
    for neg, e, t in itertools.product((0, 1), range(-4, 9), range(10)):
        sign = "-" * neg
        if t == 0:  # the value is zero
            prefixes.append("," + sign + "0")
            offsets.append([(3 * 4 + 0) * 1000] * 3)
            continue
        prefixes.append("," + sign + "0." * (e < 0) + "0" * (-e - 1))
        kept = max(t, e + 1)  # digits printed: the integer part is never cut
        point = e >= 0 and kept > e + 1
        offsets.append([((e - 3 * g if point and 0 <= e - 3 * g < 3 else 3) * 4
                         + min(max(kept - 3 * g, 0), 3)) * 1000 for g in range(3)])
    # a group's text for each (p, kept), as columns of chars: v's three
    # digits, the point and NUL, gathered for all v at once
    v = np.arange(1000)
    chars = np.array([48 + v // 100, 48 + v // 10 % 10, 48 + v % 10,
                      np.full(1000, ord(".")), np.zeros(1000, int)], dtype=np.uint8).T
    columns = []
    for p, kept in itertools.product(range(4), range(4)):
        d = "012"[:kept]
        columns.append([int(c) for c in (d[:p + 1] + "3" * (p < 3) + d[p + 1:]).ljust(4, "4")])
    groups = np.ascontiguousarray(chars[:, columns].transpose(1, 0, 2)).view(np.uint32)
    words = np.concatenate([_words(prefixes + ["\n" + s for s in prefixes], 8), groups.ravel()])
    offsets = np.array(offsets, dtype=np.intp).T.copy() + 4 * _CODES  # past the prefixes
    kept = 3 - (v % 10 == 0) - (v % 100 == 0)  # v's digits up to its last nonzero one
    digits = np.where(v > 0, 3 * np.arange(3, dtype=np.intp)[:, None] + kept, 0)
    return words, offsets, digits


_WORDS, _OFFSETS, _DIGITS = _tables()


def write(fh, values, keys=None):
    """Write the rows of values, (k, width) numbers, to the binary file fh,
    each led by its bytes key or, without keys, by nothing."""
    values = np.asarray(values, dtype=np.float64)
    skip = 1 if keys is not None else 2  # the line break, and the comma after no key
    keys = keys if keys is not None else [b""] * len(values)
    for s in range(0, len(values), CHUNK_ROWS):
        chunk = _chunk(values[s:s + CHUNK_ROWS])
        starts = [0]
        while len(starts) < min(CHUNK_ROWS, len(values) - s):
            starts.append(chunk.find(b"\n", starts[-1] + 1))
        view = memoryview(chunk)
        pieces = [b"\n"] * (3 * len(starts))
        pieces[0::3] = keys[s:s + CHUNK_ROWS]
        pieces[1::3] = [view[a + skip:b] for a, b in zip(starts, starts[1:] + [len(chunk)])]
        fh.write(b"".join(pieces))


def _chunk(rows):
    """The rows' values as "\\n,v,v...\\n,v,v..." bytes, one line per row."""
    width = rows.shape[1]
    x = rows.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):  # zeros, inf and nan
        ax = np.abs(x)
        e = (np.clip(np.floor(np.log10(ax)), -4, 8) + 4).astype(np.intp)  # e + 4, garbage for nan
        p = ax * _POW10.take(e, mode="clip")
        D = np.rint(p)
        # a zero prints as "0"; the tie test is false for nan
        ok = (ax == 0) | ((np.abs(p - D) <= _TIE) & (D >= 1e8) & (D < 1e9))
        high, low = np.divmod(D.astype(np.intp), 1000000)
    # D's digit groups, garbage where not ok, which mode="clip" keeps in the tables
    groups = (high, *np.divmod(low, 1000))
    digits = [_DIGITS[g].take(v, mode="clip") for g, v in enumerate(groups)]
    code = np.maximum(np.maximum(digits[0], digits[1]), digits[2]) + 10 * e + 130 * np.signbit(x)
    first = 2 * code
    first[::width] += 2 * _CODES  # a row's first value opens its line
    # per-group rows, not (3, n) arrays: see test_a_second_write_faults_few_pages
    index = np.column_stack([first, first + 1, *(v + _OFFSETS[g].take(code, mode="clip")
                                                 for g, v in enumerate(groups))])
    slots = _WORDS.take(index, mode="clip")
    bad = np.flatnonzero(~ok)
    if len(bad):
        text = b"".join((("\n" if i % width == 0 else "") + ",%.9g" % v).encode().ljust(20, b"\0")
                        for i, v in zip(bad.tolist(), x[bad].tolist()))
        slots[bad] = np.frombuffer(text, dtype=np.uint32).reshape(-1, 5)
    return slots.tobytes().translate(None, b"\0")
