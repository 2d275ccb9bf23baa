"""Block-at-a-time JSONL encoding of masked examples.

Each example becomes the line

    {"seq":[...],"targets":[[pos,orig],...],"dup":d,"src":s}

byte for byte what ``json.dumps`` gives with ``separators=(",", ":")``.
A whole block is encoded with array operations: its numbers are laid out
in line order, their decimal digits are extracted by integer division, and
the fixed punctuation before each number comes from a small table of gap
strings chosen by the number's role in its line.
"""

from __future__ import annotations

import numpy as np

from .masking import MaskedBlock

# the text before a number, by the number's role; the last closes the block
_GAPS = (b",", b'{"seq":[', b'}\n{"seq":[', b'],"targets":[[', b'],[', b']],"dup":',
         b'],"targets":[],"dup":', b',"src":', b'}\n')
(_COMMA, _FIRST_LINE, _NEXT_LINE, _FIRST_TARGET, _NEXT_TARGET, _DUP, _DUP_NO_TARGETS,
 _SRC, _END) = range(len(_GAPS))
_GAP_TEXT = np.frombuffer(b"".join(_GAPS), dtype=np.uint8)
_GAP_LEN = np.array([len(g) for g in _GAPS], dtype=np.int64)
_GAP_START = np.cumsum(_GAP_LEN) - _GAP_LEN


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
    gaps[first] = _NEXT_LINE
    gaps[0] = _FIRST_LINE
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
    gaps[total] = _END

    if numbers.min() < 0:
        raise ValueError("cannot encode a negative number")
    width = len(str(int(numbers.max())))
    # digits[p] holds each number's digit at place 10**p; step[k] counts the
    # bytes of number k and the gap after it
    digits = np.empty((width, total), dtype=np.uint8)
    step = np.full(total, 2, dtype=np.int32)
    rest = numbers.astype(np.int32) if width < 10 else numbers   # int32 divides faster
    del numbers
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
    lens = _GAP_LEN[codes]
    step[other[:-1]] += lens[:-1] - 1
    # byte offset of each gap, after a margin of `width` bytes that takes the
    # stray writes described below
    gap_at = np.empty(total + 1, dtype=np.int64)
    gap_at[0] = 0
    np.cumsum(step, out=gap_at[1:])
    del step
    gap_at += width
    out = np.empty(int(gap_at[-1]) + len(_GAPS[_END]), dtype=np.uint8)

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
        _GAP_TEXT[np.repeat(_GAP_START[codes], lens) + within]
    return out[width:].tobytes()
