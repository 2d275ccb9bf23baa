"""Corpus ingestion, fixed-length packing, and seeded epoch iteration.

Input corpora are pre-tokenized: token ids plus word-boundary flags. Word
boundaries travel with the data so the pipeline stays tokenizer-agnostic.

Canonical JSONL format, one document per line:

    {"ids": [5, 6, 7], "word_starts": [true, true, false]}

Packed datasets use the same record, one window per line, after a header
line. Both readers decode each block of lines that has the exact layout
``save_packed`` and ``serialize_tokens`` write in bulk
(``jsonl.decode_records``), and check any other block line by line with one
parser, which names the line at fault. Readers and writers take file paths.

Binary format: magic ``MLMC``, version u16, vocab size u32, then per
document a u32 length, u32 little-endian ids, and a packed LSB-first
bitset of word_starts.
"""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from . import jsonl
from .errors import ConfigError, DataError, ParseError, RangeError
from .rng import substream, substreams

BINARY_MAGIC = b"MLMC"
BINARY_VERSION = 1
CHUNK_BYTES = 1 << 16   # bytes of whole lines a reader decodes at once
WRITE_ROWS = 512        # windows save_packed encodes at once
KEY_WINDOWS = 1024      # windows epoch_stream keys at once
_NO_IDS, _NO_FLAGS = np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)


def _check_size(size: int) -> int:
    """A vocabulary size: positive, and small enough that every id is an int64."""
    if size <= 0:
        raise ConfigError(f"vocab size must be positive, got {size}")
    if size > np.iinfo(np.int64).max:
        raise ConfigError(f"vocab size {size} is beyond int64")
    return size


@dataclass(frozen=True)
class Vocab:
    """Vocabulary metadata: size plus the three special token ids."""

    size: int
    mask_id: int
    pad_id: int
    sep_id: int

    def __post_init__(self) -> None:
        specials = (self.mask_id, self.pad_id, self.sep_id)
        _check_size(self.size)
        if len(set(specials)) != 3:
            raise ConfigError(f"mask/pad/sep ids must be distinct, got {specials}")
        for name, tid in zip(("mask_id", "pad_id", "sep_id"), specials):
            if not 0 <= tid < self.size:
                raise ConfigError(f"{name}={tid} outside vocabulary of size {self.size}")

    @property
    def special_ids(self) -> tuple[int, int, int]:
        return (self.mask_id, self.pad_id, self.sep_id)


@dataclass
class TokenSequence:
    """A document or a packed window: int64 token ids and a bool word-start
    flag per position."""

    ids: np.ndarray
    word_starts: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def maskable_positions(self, vocab: Vocab) -> np.ndarray:
        """Positions eligible for corruption (neither pad nor sep), computed
        on each call so that no window holds more than its ids and flags."""
        return ((self.ids != vocab.pad_id) & (self.ids != vocab.sep_id)).nonzero()[0]


# a packed window is a TokenSequence of the dataset's seq_len
Window = TokenSequence


@dataclass
class PackedDataset:
    """Fixed-length windows as two read-only (windows x seq_len) matrices.
    ``ds[i]`` is window i as a TokenSequence of row views; iterating yields
    every window in order."""

    ids: np.ndarray
    word_starts: np.ndarray
    vocab: Vocab

    def __post_init__(self) -> None:
        # read-only views, so the caller's arrays stay writable
        self.ids = np.asarray(self.ids, dtype=np.int64).view()
        self.word_starts = np.asarray(self.word_starts, dtype=bool).view()
        self.ids.flags.writeable = self.word_starts.flags.writeable = False

    @property
    def seq_len(self) -> int:
        return self.ids.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> TokenSequence:
        return TokenSequence(ids=self.ids[i], word_starts=self.word_starts[i])


def _vocab_size(vocab: Vocab | int) -> int:
    """The vocabulary's size; a bare int is checked as ``Vocab`` checks it."""
    return vocab.size if isinstance(vocab, Vocab) else _check_size(vocab)


def _range_error(ids: Iterable[int], size: int, where: str) -> RangeError:
    tid = next(t for t in ids if not 0 <= t < size)
    return RangeError(f"{where}: token id {tid} outside vocabulary of size {size}")


def _word_start_bytes(word_starts, where: str) -> bytes:
    """The flags as one byte each; ParseError naming `where` unless every
    flag is a JSON boolean or 0/1."""
    flags = None
    if type(word_starts) is list:
        try:
            flags = bytes(word_starts)   # takes only ints and booleans in 0..255
        except (TypeError, ValueError):
            pass
    # deleting the 0 and 1 bytes leaves any other value
    if flags is None or flags.translate(None, b"\0\1"):
        raise ParseError(f"{where}: 'word_starts' must be a list of booleans or 0/1")
    return flags


def _parse_record(line: str, size: int, where: str) -> TokenSequence:
    """One ``{"ids": [...], "word_starts": [...]}`` line, checked; every error
    names `where`. Documents and packed windows share it."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON ({exc})") from exc
    if type(rec) is not dict or "ids" not in rec or "word_starts" not in rec:
        raise ParseError(f"{where}: expected object with 'ids' and 'word_starts'")
    ids = rec["ids"]
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass
    if type(ids) is not list or not set(map(type, ids)) <= {int}:
        raise ParseError(f"{where}: 'ids' must be a list of integers")
    flags = _word_start_bytes(rec["word_starts"], where)
    if len(ids) != len(flags):
        raise ParseError(f"{where}: ids and word_starts lengths differ "
                         f"({len(ids)} vs {len(flags)})")
    try:
        arr = np.array(ids, dtype=np.int64)
    except OverflowError:   # beyond int64, so outside any vocabulary
        raise _range_error(ids, size, where) from None
    # one reduction: viewed as uint64, a negative id exceeds any size
    if arr.view(np.uint64).max(initial=0) >= size:
        raise _range_error(ids, size, where)
    return TokenSequence(ids=arr, word_starts=np.frombuffer(flags, dtype=bool).copy())


def _decoded_lines(raws: Iterable[bytes], first: int,
                   path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """(line number, text) for each raw line, numbered from `first`; ParseError
    naming `path` and the line at the first line that is not UTF-8."""
    for lineno, raw in enumerate(raws, start=first):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{os.fspath(path)} line {lineno}: invalid UTF-8 "
                             f"({exc.reason})") from None


def text_lines(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """(line number, text) for each line of a UTF-8 file; ParseError naming
    the file and line at the first line that is not UTF-8."""
    with open(path, "rb") as fh:
        yield from _decoded_lines(fh, 1, path)


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The rest of `fh` in blocks of about CHUNK_BYTES that end in a newline,
    but the last block may not."""
    pending: list[bytes] = []
    while piece := fh.read(CHUNK_BYTES):
        cut = piece.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pending, piece[:cut]])
            pending = []
        pending.append(piece[cut:])
    if tail := b"".join(pending):
        yield tail


def _blocks(fh: BinaryIO, lineno: int, literals: tuple[bytes, bytes], size: int,
            length: int | None = None) -> Iterator[tuple[int, bytes, tuple | None]]:
    """(number of its first line, block, jsonl.decode_records of the block or
    None) for each block of `fh`; `lineno` is the number of the next line."""
    for block in _line_blocks(fh):
        # the last line of the file may lack its newline
        decoded = jsonl.decode_records(block if block.endswith(b"\n") else block + b"\n",
                                       literals, size, length)
        yield lineno, block, decoded
        lineno += block.count(b"\n") if decoded is None else len(decoded[2])


def _check_starts_word(doc: TokenSequence, where: str) -> TokenSequence:
    if len(doc) and not doc.word_starts[0]:
        raise ParseError(f"{where}: first position must start a word")
    return doc


def _load_binary(fh: BinaryIO, size: int) -> list[TokenSequence]:
    header = fh.read(10)
    if len(header) < 10 or header[:4] != BINARY_MAGIC:
        raise ParseError("binary corpus: bad magic")
    version, declared_size = struct.unpack("<HI", header[4:10])
    if version != BINARY_VERSION:
        raise ParseError(f"binary corpus: unsupported version {version}")
    if declared_size != size:
        raise ParseError(f"binary corpus: vocab size {declared_size} != configured {size}")
    docs: list[TokenSequence] = []
    while True:
        raw_len = fh.read(4)
        if not raw_len:
            break
        where = f"document {len(docs)}"
        if len(raw_len) < 4:
            raise ParseError(f"{where}: truncated length field")
        (n,) = struct.unpack("<I", raw_len)
        raw_ids = fh.read(4 * n)
        n_bytes = (n + 7) // 8
        raw_bits = fh.read(n_bytes)
        if len(raw_ids) < 4 * n or len(raw_bits) < n_bytes:
            raise ParseError(f"{where}: truncated body")
        ids = np.frombuffer(raw_ids, dtype="<u4").astype(np.int64)
        if ids.max(initial=0) >= size:
            raise _range_error(ids.tolist(), size, where)
        bits = np.unpackbits(np.frombuffer(raw_bits, dtype=np.uint8), count=n,
                             bitorder="little")
        docs.append(_check_starts_word(
            TokenSequence(ids=ids, word_starts=bits.astype(bool)), where))
    return docs


def _read_documents(fh: BinaryIO, path: str | os.PathLike, size: int) -> list[TokenSequence]:
    """The documents of a JSONL file: each block of canonical lines in one
    bulk pass, and any other block line by line."""
    docs: list[TokenSequence] = []
    for first, block, decoded in _blocks(fh, 1, jsonl.BOOL_FLAGS, size):
        if decoded is not None:
            ids, word_starts, lengths = decoded
            ends = np.cumsum(lengths)
            if word_starts[ends - lengths].all():   # every document starts a word
                bounds = ends.tolist()
                docs += (TokenSequence(ids[a:b], word_starts[a:b])
                         for a, b in zip([0] + bounds, bounds))
                continue
        for lineno, line in _decoded_lines(io.BytesIO(block), first, path):
            if line.strip():
                where = f"line {lineno}"
                docs.append(_check_starts_word(_parse_record(line, size, where), where))
    return docs


def load_tokens(source: str | os.PathLike, vocab: Vocab | int) -> list[TokenSequence]:
    """Load a corpus file: the binary format when it starts with its magic
    bytes, and JSONL otherwise.
    """
    size = _vocab_size(vocab)
    with open(source, "rb") as fh:
        magic = fh.read(4)
        fh.seek(0)
        if magic == BINARY_MAGIC:
            return _load_binary(fh, size)
        return _read_documents(fh, source, size)


def serialize_tokens(docs: Iterable[TokenSequence], path: str | os.PathLike) -> None:
    """Write documents as canonical JSONL (inverse of load_tokens)."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            rec = {"ids": doc.ids.tolist(), "word_starts": doc.word_starts.tolist()}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def write_binary(docs: Iterable[TokenSequence], vocab: Vocab | int,
                 path: str | os.PathLike) -> None:
    """Write documents in the binary corpus format."""
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC + struct.pack("<HI", BINARY_VERSION, _vocab_size(vocab)))
        for doc in docs:
            fh.write(struct.pack("<I", len(doc)))
            fh.write(doc.ids.astype("<u4").tobytes())
            fh.write(np.packbits(doc.word_starts, bitorder="little").tobytes())


def _check_no_special_id(ids: np.ndarray, ends: np.ndarray, vocab: Vocab, what: str,
                         names: tuple[str, ...] = ("mask", "pad", "sep")) -> None:
    """DataError naming the first of the sequences ending at ``ends`` in ``ids``
    that holds one of the named special ids, the position there and the id.
    A document may hold none of them. A window holds pad and sep by
    construction but never the mask id: ``maskable_positions`` counts that
    position, but no plan may touch it."""
    tids = [getattr(vocab, f"{name}_id") for name in names]
    # one bool array at a time; np.isin would build int64 temporaries
    held = ids == tids[0]
    for tid in tids[1:]:
        held |= ids == tid
    if held.any():
        at = int(held.argmax())
        k = int(ends.searchsorted(at, "right"))
        start = int(ends[k - 1]) if k else 0
        tid = int(ids[at])
        raise DataError(f"{what} {k}: position {at - start} holds the "
                        f"{names[tids.index(tid)]} id {tid}")


def pack_sequences(docs: list[TokenSequence], seq_len: int, vocab: Vocab) -> PackedDataset:
    """Concatenate documents (sep-separated) and chunk into L-sized windows.

    The final partial window is right-padded with pad_id; sep and pad
    positions count as word starts. A document that holds the mask, pad or
    sep id raises DataError naming it, the position and the id, so every
    pad and sep in a window is one that packing put there.
    """
    if seq_len < 2:
        raise ConfigError(f"seq_len must be >= 2, got {seq_len}")
    # the empty arrays give no documents no windows
    ids = np.concatenate([_NO_IDS] + [doc.ids for doc in docs])
    ends = np.cumsum([len(doc) for doc in docs], dtype=np.int64)
    _check_no_special_id(ids, ends, vocab, "document")
    # a sep before every document but the first
    ids = np.insert(ids, ends[:-1], vocab.sep_id)
    word_starts = np.insert(np.concatenate([_NO_FLAGS] + [doc.word_starts for doc in docs]),
                            ends[:-1], True)
    pad = -len(ids) % seq_len
    too_large = ConfigError(f"seq_len {seq_len} is too large")
    if len(ids) + pad > np.iinfo(np.intp).max:   # beyond any numpy array
        raise too_large
    try:
        ids = np.pad(ids, (0, pad), constant_values=vocab.pad_id).reshape(-1, seq_len)
        word_starts = np.pad(word_starts, (0, pad), constant_values=True).reshape(-1, seq_len)
    except (MemoryError, ValueError):   # numpy refuses the size or the dimension
        raise too_large from None
    return PackedDataset(ids=ids, word_starts=word_starts, vocab=vocab)


def epoch_stream(ds: PackedDataset, seed: int,
                 epoch: int) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield (sequence index, per-sequence substream) in a seeded order.

    The permutation depends only on (seed, epoch); each sequence's
    substream depends only on (seed, epoch, index), so planning the
    windows in any order or partition produces the same masks as
    consuming the stream serially. The windows' substreams are keyed
    KEY_WINDOWS at a time (``substreams``), so memory stays bounded.
    """
    order = substream(seed, epoch).permutation(len(ds))
    for start in range(0, len(order), KEY_WINDOWS):
        chunk = order[start:start + KEY_WINDOWS]
        yield from zip(chunk.tolist(), substreams(seed, (epoch,), chunk))


def save_packed(ds: PackedDataset, path: str | os.PathLike, header: dict | None = None) -> None:
    """Write a packed dataset as JSONL with a provenance header line, then
    one line per window, WRITE_ROWS windows at a time."""
    with open(path, "wb") as fh:
        meta = {
            "_config": header or {},
            "seq_len": ds.seq_len,
            "vocab": {"size": ds.vocab.size, "mask_id": ds.vocab.mask_id,
                      "pad_id": ds.vocab.pad_id, "sep_id": ds.vocab.sep_id},
        }
        fh.write(json.dumps(meta, separators=(",", ":")).encode() + b"\n")
        for i in range(0, len(ds), WRITE_ROWS):
            fh.write(jsonl.window_lines(ds.ids[i:i + WRITE_ROWS],
                                        ds.word_starts[i:i + WRITE_ROWS]))


def load_packed(path: str | os.PathLike) -> PackedDataset:
    """Read a packed dataset written by save_packed.

    The windows are parsed into matrices allocated once, with a row for each
    line of the file; rows of the header and of blank lines go unused. Each
    block of canonical lines is decoded in one bulk pass, and any other
    block line by line.
    """
    with open(path, "rb") as fh:
        try:
            _, header = next(_decoded_lines([fh.readline()], 1, path))
            meta = json.loads(header)
            seq_len, fields = meta["seq_len"], meta["vocab"]
            # type() rather than isinstance(): JSON true/false load as bool, an int subclass
            if type(seq_len) is not int or type(fields) is not dict \
                    or not set(map(type, fields.values())) <= {int}:
                raise TypeError("seq_len and vocab values must be integers")
            vocab = Vocab(**fields)
        except (json.JSONDecodeError, KeyError, TypeError, ConfigError) as exc:
            raise ParseError(f"packed dataset: bad header ({exc})") from exc
        if seq_len < 2:
            raise ParseError(f"packed dataset: seq_len must be >= 2, got {seq_len}")
        body = fh.tell()
        rows = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        # a window's line holds more than 4 bytes per position, so a header's
        # seq_len cannot make the matrices outgrow the file
        rows = min(rows, fh.tell() // (4 * seq_len))
        fh.seek(body)
        try:
            ids = np.empty((rows, seq_len), dtype=np.int64)
            word_starts = np.empty((rows, seq_len), dtype=bool)
        except ValueError:   # numpy refuses the dimension even with no rows
            raise ParseError(f"packed dataset: seq_len {seq_len} is too large") from None
        n = 0
        for first, block, decoded in _blocks(fh, 2, jsonl.INT_FLAGS, vocab.size, seq_len):
            if decoded is not None:
                count = len(decoded[2])
                ids[n:n + count] = decoded[0].reshape(count, seq_len)
                word_starts[n:n + count] = decoded[1].reshape(count, seq_len)
                n += count
                continue
            for lineno, line in _decoded_lines(io.BytesIO(block), first, path):
                if not line.strip():
                    continue
                where = f"packed dataset line {lineno}"
                win = _parse_record(line, vocab.size, where)
                if len(win) != seq_len:
                    raise ParseError(f"{where}: window is not length {seq_len}")
                ids[n], word_starts[n] = win.ids, win.word_starts
                n += 1
    _check_no_special_id(ids[:n].ravel(), np.arange(1, n + 1) * seq_len, vocab,
                         "packed dataset window", ("mask",))
    return PackedDataset(ids=ids[:n], word_starts=word_starts[:n], vocab=vocab)
