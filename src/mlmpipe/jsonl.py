"""Array-at-a-time JSONL codec for masked examples and token records.

Encoding. A masked example becomes the line

    {"seq":[...],"targets":[[pos,orig],...],"dup":d,"src":s}

and a packed window the line

    {"ids":[...],"word_starts":[...]}

with 0/1 flags, byte for byte what ``json.dumps`` gives with
``separators=(",", ":")``. One row encoder serves both: a block's numbers
are laid out in line order, their decimal digits are extracted by integer
division, and the fixed punctuation before each number comes from a small
table of gap strings chosen by the number's role in its line.

Decoding. ``decode_records`` reads a block of whole lines that each have
the canonical record layout

    {"ids":[5,6,7],"word_starts":[1,1,0]}

(the flags are ``0``/``1`` or ``false``/``true``) and checks that layout in
array passes, without a JSON parser. It returns None for anything else, so
that the caller can read the block line by line with full JSON and name the
line at fault.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:   # masking imports corpus, which imports this module
    from .masking import MaskedBlock


class _Gaps:
    """The texts that can stand before a number, by code; code 0 must be
    the comma, and the last code closes the block."""

    def __init__(self, *texts: bytes):
        assert texts[0] == b","
        self.texts = texts
        self.text = np.frombuffer(b"".join(texts), dtype=np.uint8)
        self.lens = np.array([len(t) for t in texts], dtype=np.int64)
        self.starts = np.cumsum(self.lens) - self.lens


_EXAMPLE_GAPS = _Gaps(b",", b'{"seq":[', b'}\n{"seq":[', b'],"targets":[[', b'],[',
                      b']],"dup":', b'],"targets":[],"dup":', b',"src":', b'}\n')
(_COMMA, _FIRST_EXAMPLE, _NEXT_EXAMPLE, _FIRST_TARGET, _NEXT_TARGET, _DUP, _DUP_NO_TARGETS,
 _SRC, _EXAMPLE_END) = range(len(_EXAMPLE_GAPS.texts))

_RECORD_HEAD, _RECORD_MID, _RECORD_TAIL = b'{"ids":[', b'],"word_starts":[', b"]}\n"
_WINDOW_GAPS = _Gaps(b",", _RECORD_HEAD, _RECORD_TAIL + _RECORD_HEAD, _RECORD_MID, _RECORD_TAIL)
_FIRST_WINDOW, _NEXT_WINDOW, _FLAGS, _WINDOW_END = range(1, 5)


def _encode(numbers: np.ndarray, gaps: np.ndarray, table: _Gaps) -> bytes:
    """Each of `numbers` (non-negative) in decimal after the gap text whose
    code `gaps` holds at its index; ``gaps[len(numbers)]`` is the text that
    ends the block."""
    total = len(numbers)
    if numbers.min() < 0:
        raise ValueError("cannot encode a negative number")
    width = len(str(int(numbers.max())))
    # digits[p] holds each number's digit at place 10**p; step[k] counts the
    # bytes of number k and the gap after it
    digits = np.empty((width, total), dtype=np.uint8)
    step = np.full(total, 2, dtype=np.int32)
    rest = numbers.astype(np.int32) if width < 10 else numbers.copy()   # int32 divides faster
    for place in range(width):
        if place:
            step += rest > 0
        quotient = rest // 10
        rest -= quotient * 10
        digits[place] = rest
        rest = quotient
    del rest, quotient
    digits += ord("0")
    other = np.flatnonzero(gaps != _COMMA)        # ends with the closing gap
    codes = gaps[other]
    lens = table.lens[codes]
    step[other[:-1]] += lens[:-1] - 1
    # byte offset of each gap, after a margin of `width` bytes that takes the
    # stray writes described below
    gap_at = np.empty(total + 1, dtype=np.int64)
    gap_at[0] = 0
    np.cumsum(step, out=gap_at[1:])
    del step
    gap_at += width
    out = np.empty(int(gap_at[-1]) + int(table.lens[codes[-1]]), dtype=np.uint8)

    # every place of every number, highest place first: a place a number
    # lacks lands on bytes before it, which a lower place of an earlier
    # number or a gap (both written later) overwrites
    digit_at = gap_at[1:] - width
    for place in reversed(range(width)):
        out[digit_at] = digits[place]
        digit_at += 1
    out[gap_at] = ord(",")
    within = np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)
    out[np.repeat(gap_at[other], lens) + within] = \
        table.text[np.repeat(table.starts[codes], lens) + within]
    return out[width:].tobytes()


def example_lines(block: MaskedBlock) -> bytes:
    """The block's examples as JSONL, one line per row, each ending in a newline.

    Every id, position, duplicate index and source index must be a
    non-negative integer, and rows must have at least one id.
    """
    rows, L = block.corrupted_ids.shape
    if rows == 0:
        return b""
    if L == 0:
        raise ValueError("cannot encode examples of length 0")
    counts = block.target_counts
    per_row = L + 2 * counts + 2
    first = np.cumsum(per_row) - per_row          # index of each row's first number
    total = int(first[-1] + per_row[-1])

    # every number of the block in line order, and the gap before each
    numbers = np.empty(total, dtype=np.int64)
    gaps = np.full(total + 1, _COMMA, dtype=np.int8)
    numbers[(first[:, np.newaxis] + np.arange(L)).ravel()] = block.corrupted_ids.ravel()
    gaps[first] = _NEXT_EXAMPLE
    gaps[0] = _FIRST_EXAMPLE
    target_row = np.repeat(np.arange(rows), counts)
    rank = np.arange(len(target_row)) - np.repeat(np.cumsum(counts) - counts, counts)
    at = first[target_row] + L + 2 * rank
    numbers[at] = block.target_positions
    numbers[at + 1] = block.target_originals
    gaps[at] = np.where(rank == 0, _FIRST_TARGET, _NEXT_TARGET)
    at = first + L + 2 * counts
    numbers[at] = block.duplicate_index
    numbers[at + 1] = block.source_sequence
    gaps[at] = np.where(counts > 0, _DUP, _DUP_NO_TARGETS)
    gaps[at + 1] = _SRC
    gaps[total] = _EXAMPLE_END
    return _encode(numbers, gaps, _EXAMPLE_GAPS)


def window_lines(ids: np.ndarray, word_starts: np.ndarray) -> bytes:
    """(rows, L) ids and flags as packed-window JSONL lines, flags as 0/1,
    each line ending in a newline. Ids must be non-negative and L positive."""
    rows, L = ids.shape
    if rows == 0:
        return b""
    if L == 0:
        raise ValueError("cannot encode windows of length 0")
    numbers = np.concatenate([ids, word_starts], axis=1, dtype=np.int64).ravel()
    gaps = np.full(len(numbers) + 1, _COMMA, dtype=np.int8)
    gaps[::2 * L] = _NEXT_WINDOW
    gaps[0] = _FIRST_WINDOW
    gaps[L::2 * L] = _FLAGS
    gaps[-1] = _WINDOW_END
    return _encode(numbers, gaps, _WINDOW_GAPS)


# ---------------------------------------------------------------------------
# decoding

INT_FLAGS = (b"0", b"1")          # packed windows
BOOL_FLAGS = (b"false", b"true")  # documents
_MID_LEN = len(_RECORD_MID)


def _text_at(a: np.ndarray, at: np.ndarray, text: bytes) -> bool:
    """Whether `text` stands in `a` at every offset of `at`."""
    want = np.frombuffer(text, dtype=np.uint8)
    return bool((a[at[:, np.newaxis] + np.arange(len(want))] == want).all())


def _head_word(literal: bytes) -> tuple[np.uint32, np.uint32]:
    """The first four bytes of a flag literal as a little-endian word, and
    the mask of the bytes it has; with its last byte that covers literals of
    up to five bytes."""
    assert 1 <= len(literal) <= 5
    head = literal[:4]
    return (np.uint32(int.from_bytes(head.ljust(4, b"\0"), "little")),
            np.uint32((1 << 8 * len(head)) - 1))


def decode_records(buf: bytes, literals: tuple[bytes, bytes], size: int,
                   length: int | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The ids (int64) and flags (bool) of every line of `buf`, each kind
    concatenated in line order, and each line's length; None unless every
    line has the canonical layout.

    `buf` is whole lines, each ending in a newline. A canonical line is
    ``{"ids":[...],"word_starts":[...]}`` with no whitespace, at least one
    id, as many flags as ids (`length` of each when given), ids in decimal
    without a leading zero and below `size`, and each flag exactly
    ``literals[0]`` (false) or ``literals[1]`` (true). Every such line is
    valid JSON that ``json.loads`` reads to the same values.

    The checks are whole-block array passes, and all but the range check
    run before any number is converted: the separators (brackets and commas) give each
    line's lists, the fixed texts around them are compared in place, each
    flag is compared with its literal, and the digit count shows that the
    ids hold nothing but digits.
    """
    a = np.frombuffer(buf, dtype=np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    n = len(ends)
    if n == 0 or ends[-1] != len(a) - 1:
        return None
    starts = np.append(0, ends[:-1] + 1)
    # separators: the brackets of both lists, the commas within them and the
    # comma between them, 2k + 3 for a line of k ids and k flags
    sep = np.flatnonzero((a == ord(",")) | (a == ord("[")) | (a == ord("]")))
    per_line = np.diff(np.searchsorted(sep, ends), prepend=0)
    k = (per_line - 3) >> 1
    if k.min() < 1 or not np.array_equal(2 * k + 3, per_line) \
            or length is not None and (k != length).any():
        return None
    first = np.cumsum(per_line) - per_line        # index in sep of each line's first separator
    ids_close = sep[first + k]
    # the line's last separator ends the flag list, with room for a flag
    # after the middle text (which keeps every text below inside the line);
    # then each line is the head text, the id list, the middle text, the
    # flag list and the tail text, and the bracket counts leave commas as
    # the only other separators
    if not (np.array_equal(sep[first + per_line - 1], ends - 2)
            and (ids_close + _MID_LEN < ends - 2).all()
            and _text_at(a, starts, _RECORD_HEAD) and _text_at(a, ids_close, _RECORD_MID)
            and _text_at(a, ends - 2, _RECORD_TAIL)
            and np.count_nonzero(a == ord("[")) == 2 * n
            and np.count_nonzero(a == ord("]")) == 2 * n):
        return None

    # each item lies between a separator (its opener) and the next one
    total = int(k.sum())
    id_opener = np.arange(total) + np.repeat(first - (np.cumsum(k) - k), k)
    id_start = sep[id_opener] + 1
    id_end = sep[id_opener + 1]                   # exclusive
    flag_opener = id_opener + np.repeat(k + 2, k)
    flag_start = sep[flag_opener] + 1
    flag_len = sep[flag_opener + 1] - flag_start

    # flags: the first byte tells the literals apart; a literal of more than
    # one byte must then match in its first four bytes, read as one word,
    # and in its last byte
    head = a[flag_start]
    flags = head == literals[1][0]
    if not ((flags | (head == literals[0][0])).all()
            and np.array_equal(flag_len, np.where(flags, len(literals[1]), len(literals[0])))):
        return None
    if max(map(len, literals)) > 1:
        (false_word, false_mask), (true_word, true_mask) = map(_head_word, literals)
        words = np.ndarray((len(a) - 3,), dtype="<u4", buffer=buf, strides=(1,))[flag_start]
        if not (np.array_equal(words & np.where(flags, true_mask, false_mask),
                               np.where(flags, true_word, false_word))
                and (a[flag_start + flag_len - 1]
                     == np.where(flags, literals[1][-1], literals[0][-1])).all()):
            return None

    # ids: digit runs no wider than the vocabulary allows (and int64 holds),
    # with no leading zero. Digits stand only in items and the flags are
    # checked (each INT_FLAGS flag is one digit, a BOOL_FLAGS flag none), so
    # the digit count shows whether every byte of every id is a digit
    id_len = id_end - id_start
    width = int(id_len.max())
    digit = a - np.uint8(ord("0"))
    flag_digits = total if literals[0].isdigit() else 0
    if id_len.min() < 1 or width > min(len(str(size - 1)), 18) \
            or ((a[id_start] == ord("0")) & (id_len > 1)).any() \
            or np.count_nonzero(digit < 10) != int(id_len.sum()) + flag_digits:
        return None
    last = id_end - 1
    ids = digit[last].astype(np.int64)
    for p in range(1, width):
        ids += np.where(id_len > p, digit[last - p], 0).astype(np.int64) * 10 ** p
    if int(ids.max()) >= size:
        return None
    return ids, flags, k
