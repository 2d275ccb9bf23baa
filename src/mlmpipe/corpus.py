"""Corpus ingestion, fixed-length packing, and seeded epoch iteration.

Input corpora are pre-tokenized: token ids plus word-boundary flags. Word
boundaries travel with the data so the pipeline stays tokenizer-agnostic.

Canonical JSONL format, one document per line:

    {"ids": [5, 6, 7], "word_starts": [true, true, false]}

Binary format: magic ``MLMC``, version u16, vocab size u32, then per
document a u32 length, u32 little-endian ids, and a packed LSB-first
bitset of word_starts.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import ConfigError, ParseError, RangeError
from .rng import substream

BINARY_MAGIC = b"MLMC"
BINARY_VERSION = 1


@dataclass(frozen=True)
class Vocab:
    """Vocabulary metadata: size plus the three special token ids."""

    size: int
    mask_id: int
    pad_id: int
    sep_id: int

    def __post_init__(self) -> None:
        specials = (self.mask_id, self.pad_id, self.sep_id)
        if self.size <= 0:
            raise ConfigError(f"vocab size must be positive, got {self.size}")
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
    """One document: token ids with a word-start flag per position."""

    ids: list[int]
    word_starts: list[bool]
    doc_index: int = 0

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class Window:
    """A fixed-length packed window of the corpus."""

    ids: np.ndarray
    word_starts: np.ndarray

    def maskable_positions(self, vocab: Vocab) -> np.ndarray:
        """Positions eligible for corruption (neither pad nor sep), computed
        on each call so that no window holds more than its ids and flags."""
        return ((self.ids != vocab.pad_id) & (self.ids != vocab.sep_id)).nonzero()[0]


@dataclass
class PackedDataset:
    sequences: list[Window]
    seq_len: int
    vocab: Vocab

    def __len__(self) -> int:
        return len(self.sequences)


def _vocab_size(vocab: Vocab | int) -> int:
    return vocab if isinstance(vocab, int) else vocab.size


def _validate_doc(ids: list[int], word_starts: list[bool], size: int, where: str) -> None:
    if len(ids) != len(word_starts):
        raise ParseError(f"{where}: ids and word_starts lengths differ "
                         f"({len(ids)} vs {len(word_starts)})")
    if ids and not word_starts[0]:
        raise ParseError(f"{where}: first position must start a word")
    if ids and (min(ids) < 0 or max(ids) >= size):
        tid = next(t for t in ids if not 0 <= t < size)
        raise RangeError(f"{where}: token id {tid} outside vocabulary of size {size}")


def _check_ids(ids, where: str) -> None:
    """ParseError naming `where` unless ids is a list of JSON integers."""
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass
    if type(ids) is not list or not set(map(type, ids)) <= {int}:
        raise ParseError(f"{where}: 'ids' must be a list of integers")


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


def _load_jsonl(lines: Iterable[str], vocab: Vocab | int) -> list[TokenSequence]:
    docs: list[TokenSequence] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(rec, dict) or "ids" not in rec or "word_starts" not in rec:
            raise ParseError(f"line {lineno}: expected object with 'ids' and 'word_starts'")
        ids = rec["ids"]
        _check_ids(ids, f"line {lineno}")
        word_starts = list(map(bool, _word_start_bytes(rec["word_starts"], f"line {lineno}")))
        _validate_doc(ids, word_starts, _vocab_size(vocab), f"line {lineno}")
        docs.append(TokenSequence(ids=ids, word_starts=word_starts, doc_index=len(docs)))
    return docs


def _load_binary(fh: BinaryIO, vocab: Vocab | int) -> list[TokenSequence]:
    header = fh.read(10)
    if len(header) < 10 or header[:4] != BINARY_MAGIC:
        raise ParseError("binary corpus: bad magic")
    version, declared_size = struct.unpack("<HI", header[4:10])
    if version != BINARY_VERSION:
        raise ParseError(f"binary corpus: unsupported version {version}")
    size = _vocab_size(vocab)
    if declared_size != size:
        raise ParseError(f"binary corpus: vocab size {declared_size} != configured {size}")
    docs: list[TokenSequence] = []
    while True:
        raw_len = fh.read(4)
        if not raw_len:
            break
        if len(raw_len) < 4:
            raise ParseError(f"document {len(docs)}: truncated length field")
        (n,) = struct.unpack("<I", raw_len)
        raw_ids = fh.read(4 * n)
        n_bytes = (n + 7) // 8
        raw_bits = fh.read(n_bytes)
        if len(raw_ids) < 4 * n or len(raw_bits) < n_bytes:
            raise ParseError(f"document {len(docs)}: truncated body")
        ids = np.frombuffer(raw_ids, dtype="<u4").astype(int).tolist()
        bits = np.unpackbits(np.frombuffer(raw_bits, dtype=np.uint8), bitorder="little")
        word_starts = bits[:n].astype(bool).tolist()
        _validate_doc(ids, word_starts, _vocab_size(vocab), f"document {len(docs)}")
        docs.append(TokenSequence(ids=ids, word_starts=word_starts, doc_index=len(docs)))
    return docs


def load_tokens(source, vocab: Vocab | int) -> list[TokenSequence]:
    """Load a corpus from a path, text/binary file object, or line iterable.

    The binary format is detected by its magic bytes; everything else is
    treated as canonical JSONL.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            head = fh.read(4)
            fh.seek(0)
            if head == BINARY_MAGIC:
                return _load_binary(fh, vocab)
            return _load_jsonl(io.TextIOWrapper(fh, encoding="utf-8"), vocab)
    if isinstance(source, io.IOBase) and not isinstance(source, io.TextIOBase):
        head = source.peek(4)[:4] if hasattr(source, "peek") else b""
        if head == BINARY_MAGIC:
            return _load_binary(source, vocab)
        return _load_jsonl(io.TextIOWrapper(source, encoding="utf-8"), vocab)
    return _load_jsonl(source, vocab)


def serialize_tokens(docs: Iterable[TokenSequence], target) -> None:
    """Write documents as canonical JSONL (inverse of load_tokens)."""
    own = isinstance(target, (str, Path))
    fh = open(target, "w", encoding="utf-8") if own else target
    try:
        for doc in docs:
            rec = {"ids": list(doc.ids), "word_starts": [bool(b) for b in doc.word_starts]}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    finally:
        if own:
            fh.close()


def write_binary(docs: Iterable[TokenSequence], vocab: Vocab | int, target) -> None:
    """Write documents in the binary corpus format."""
    own = isinstance(target, (str, Path))
    fh = open(target, "wb") if own else target
    try:
        fh.write(BINARY_MAGIC + struct.pack("<HI", BINARY_VERSION, _vocab_size(vocab)))
        for doc in docs:
            n = len(doc.ids)
            fh.write(struct.pack("<I", n))
            fh.write(np.asarray(doc.ids, dtype="<u4").tobytes())
            bits = np.packbits(np.asarray(doc.word_starts, dtype=np.uint8), bitorder="little")
            fh.write(bits.tobytes())
    finally:
        if own:
            fh.close()


def pack_sequences(docs: list[TokenSequence], seq_len: int, vocab: Vocab) -> PackedDataset:
    """Concatenate documents (sep-separated) and chunk into L-sized windows.

    The final partial window is right-padded with pad_id; sep and pad
    positions count as word starts.
    """
    if seq_len < 2:
        raise ConfigError(f"seq_len must be >= 2, got {seq_len}")
    id_parts: list[np.ndarray] = []
    ws_parts: list[np.ndarray] = []
    sep_ids = np.array([vocab.sep_id], dtype=np.int64)
    sep_ws = np.array([True])
    for i, doc in enumerate(docs):
        if i > 0:
            id_parts.append(sep_ids)
            ws_parts.append(sep_ws)
        id_parts.append(np.asarray(doc.ids, dtype=np.int64))
        ws_parts.append(np.asarray(doc.word_starts, dtype=bool))
    if not id_parts:
        return PackedDataset(sequences=[], seq_len=seq_len, vocab=vocab)
    ids = np.concatenate(id_parts)
    word_starts = np.concatenate(ws_parts)
    n_windows = -(-len(ids) // seq_len)
    pad = n_windows * seq_len - len(ids)
    if pad:
        ids = np.concatenate([ids, np.full(pad, vocab.pad_id, dtype=np.int64)])
        word_starts = np.concatenate([word_starts, np.ones(pad, dtype=bool)])
    windows = [
        Window(ids=ids[i * seq_len:(i + 1) * seq_len],
               word_starts=word_starts[i * seq_len:(i + 1) * seq_len])
        for i in range(n_windows)
    ]
    return PackedDataset(sequences=windows, seq_len=seq_len, vocab=vocab)


def epoch_stream(ds: PackedDataset, seed: int,
                 epoch: int) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield (sequence index, per-sequence substream) in a seeded order.

    The permutation depends only on (seed, epoch); each sequence's
    substream depends only on (seed, epoch, index), so planning the
    windows in any order or partition produces the same masks as
    consuming the stream serially.
    """
    for idx in substream(seed, epoch).permutation(len(ds.sequences)).tolist():
        yield idx, substream(seed, epoch, idx)


def save_packed(ds: PackedDataset, target, header: dict | None = None) -> None:
    """Write a packed dataset as JSONL with a provenance header line."""
    own = isinstance(target, (str, Path))
    fh = open(target, "w", encoding="utf-8") if own else target
    try:
        meta = {
            "_config": header or {},
            "seq_len": ds.seq_len,
            "vocab": {"size": ds.vocab.size, "mask_id": ds.vocab.mask_id,
                      "pad_id": ds.vocab.pad_id, "sep_id": ds.vocab.sep_id},
        }
        fh.write(json.dumps(meta, separators=(",", ":")) + "\n")
        for win in ds.sequences:
            rec = {"ids": win.ids.tolist(),
                   "word_starts": win.word_starts.astype(int).tolist()}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    finally:
        if own:
            fh.close()


def load_packed(source) -> PackedDataset:
    """Read a packed dataset written by save_packed."""
    own = isinstance(source, (str, Path))
    fh = open(source, "r", encoding="utf-8") if own else source
    try:
        header_line = fh.readline()
        try:
            meta = json.loads(header_line)
            vocab = Vocab(**meta["vocab"])
            seq_len = int(meta["seq_len"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"packed dataset: bad header ({exc})") from exc
        if seq_len < 2:
            raise ParseError(f"packed dataset: seq_len must be >= 2, got {seq_len}")
        windows: list[Window] = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            where = f"packed dataset line {lineno}"
            try:
                rec = json.loads(line)
                _check_ids(rec["ids"], where)
                ids = np.asarray(rec["ids"], dtype=np.int64)
                word_starts = np.frombuffer(_word_start_bytes(rec["word_starts"], where),
                                            dtype=bool).copy()
            except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
                raise ParseError(f"{where}: {exc}") from exc
            if len(ids) != seq_len or len(word_starts) != seq_len:
                raise ParseError(f"packed dataset line {lineno}: window is not length {seq_len}")
            # one reduction per window: viewed as uint64, a negative id exceeds any size
            if ids.view(np.uint64).max(initial=0) >= vocab.size:
                tid = next(t for t in ids.tolist() if not 0 <= t < vocab.size)
                raise RangeError(f"packed dataset line {lineno}: token id {tid} "
                                 f"outside vocabulary of size {vocab.size}")
            windows.append(Window(ids=ids, word_starts=word_starts))
        return PackedDataset(sequences=windows, seq_len=seq_len, vocab=vocab)
    finally:
        if own:
            fh.close()
