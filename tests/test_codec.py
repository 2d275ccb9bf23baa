"""The bulk JSONL codec: the row encoder against json.dumps, and the bulk
readers against the per-line reader on canonical and mutated files."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmpipe import corpus, jsonl
from mlmpipe.corpus import (PackedDataset, TokenSequence, Vocab, load_packed, load_tokens,
                            pack_sequences, save_packed, serialize_tokens)
from mlmpipe.errors import PipelineError

# np.fromstring and friends warn on text they cannot read; no codec path may
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

BIG_VOCAB = Vocab(size=10 ** 12, mask_id=2, pad_id=0, sep_id=1)
# ids of up to six digits, and six-digit numbers at or above the size
VOCAB = Vocab(size=500_000, mask_id=2, pad_id=0, sep_id=1)


def json_windows(ids, word_starts):
    return "".join(json.dumps({"ids": row, "word_starts": flags}, separators=(",", ":")) + "\n"
                   for row, flags in zip(ids.tolist(), word_starts.astype(int).tolist())
                   ).encode()


class TestRowEncoder:
    @given(st.integers(min_value=0, max_value=6).flatmap(lambda rows: st.integers(
               min_value=1, max_value=6).flatmap(lambda L: st.tuples(
                   st.lists(st.lists(st.integers(min_value=0, max_value=10 ** 12 - 1),
                                     min_size=L, max_size=L), min_size=rows, max_size=rows),
                   st.lists(st.lists(st.booleans(), min_size=L, max_size=L),
                            min_size=rows, max_size=rows),
                   st.just(L)))))
    @settings(max_examples=150, deadline=None)
    def test_window_lines_match_json_dumps(self, case):
        rows, flags, L = case
        ids = np.array(rows, dtype=np.int64).reshape(len(rows), L)
        word_starts = np.array(flags, dtype=bool).reshape(len(rows), L)
        assert jsonl.window_lines(ids, word_starts) == json_windows(ids, word_starts)

    @pytest.mark.parametrize("ids", [
        np.empty((0, 4), dtype=np.int64),                                 # zero windows
        np.array([[5, 6, 7, 8]]),                                         # one window
        np.array([[0, 9], [10, 3]]),                                      # seq_len 2
        np.array([[10 ** w - 1, 10 ** (w - 1)] for w in range(1, 13)]),   # every width
        np.array([[10 ** 12 - 1] * 3, [0] * 3]),                          # the widest id
    ], ids=["zero-windows", "one-window", "seq-len-2", "every-width", "size-minus-1"])
    def test_edge_windows(self, ids):
        word_starts = (np.arange(ids.size).reshape(ids.shape) % 3 == 0)
        assert jsonl.window_lines(ids, word_starts) == json_windows(ids, word_starts)

    def test_save_packed_matches_json_dumps(self, tmp_path, monkeypatch):
        # more windows than one write, ids of every width up to size - 1
        monkeypatch.setattr(corpus, "WRITE_ROWS", 3)
        widths = np.tile(np.arange(1, 13), 2)
        ids = (10 ** widths - 1 - (widths > 1)).reshape(8, 3)
        ds = PackedDataset(ids=ids, word_starts=ids % 2 == 0, vocab=BIG_VOCAB)
        path = tmp_path / "packed.jsonl"
        save_packed(ds, path, header={"note": "x"})
        meta = {"_config": {"note": "x"}, "seq_len": 3,
                "vocab": {"size": 10 ** 12, "mask_id": 2, "pad_id": 0, "sep_id": 1}}
        assert path.read_bytes() == (json.dumps(meta, separators=(",", ":")) + "\n").encode() \
            + json_windows(ds.ids, ds.word_starts)
        back = load_packed(path)
        assert np.array_equal(back.ids, ds.ids) and np.array_equal(back.word_starts,
                                                                   ds.word_starts)

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            jsonl.window_lines(np.array([[3, -1]]), np.array([[True, False]]))


# ---------------------------------------------------------------------------
# bulk readers


def docs_strategy():
    doc = st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
        st.lists(st.integers(min_value=0, max_value=VOCAB.size - 1), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
    return st.lists(doc, min_size=1, max_size=8).map(lambda docs: [
        TokenSequence(ids=np.array(ids, dtype=np.int64),
                      word_starts=np.array([True] + flags, dtype=bool))
        for ids, flags in docs])


def canonical_file(layout, docs, path):
    """The documents as a canonical corpus, or packed into windows of 4. The
    ids may include the mask id, which ``pack_sequences`` rejects, so it is
    packed here without that check; ``load_packed`` still makes it."""
    if layout == "documents":
        serialize_tokens(docs, path)
    else:
        with mock.patch.object(corpus, "_check_no_mask_id", lambda *args: None):
            save_packed(pack_sequences(docs, 4, VOCAB), path)
    return path.read_bytes()


def outcome(layout, path):
    """What loading gives: the arrays, or the error's type and message."""
    try:
        if layout == "documents":
            return [(d.ids.tolist(), d.word_starts.tolist()) for d in load_tokens(path, VOCAB)]
        ds = load_packed(path)
        return ds.vocab, ds.ids.tolist(), ds.word_starts.tolist()
    except PipelineError as exc:
        return type(exc), str(exc)


def reference_outcome(layout, path):
    """The same through the per-line reader alone."""
    with mock.patch.object(jsonl, "decode_records", lambda *args, **kwargs: None):
        return outcome(layout, path)


def _or_unchanged(mutate):
    """`mutate`, leaving a line that an earlier mutation made unfit as it is."""
    def safe(line):
        try:
            return mutate(line)
        except ValueError:
            return line
    return safe


def _sub(old, new):
    return lambda line: line.replace(old, new, 1)


def _replace_id(new):
    """Put `new` in place of the line's first id."""
    @_or_unchanged
    def mutate(line):
        head, rest = line.split(b"[", 1)
        end = min(i for i in (rest.find(b","), rest.find(b"]")) if i >= 0)
        return head + b"[" + new + rest[end:]
    return mutate


def _replace_flag(new):
    """Put `new` in place of the line's last flag."""
    @_or_unchanged
    def mutate(line):
        head, rest = line.rsplit(b"]", 1)
        start = max(head.rfind(b","), head.rfind(b"["))
        return head[:start + 1] + new + b"]" + rest
    return mutate


def _drop_first(line, opener):
    """Drop the first item of the list that follows `opener`, if it has two."""
    head, rest = line.split(opener, 1)
    comma = rest.find(b",")
    return head + opener + rest[comma + 1:] if 0 <= comma < rest.find(b"]") else line


@_or_unchanged
def _drop_first_id(line):
    """Drop the line's first id, leaving as many flags as before."""
    return _drop_first(line, b"[")


@_or_unchanged
def _drop_first_item(line):
    """Drop the line's first id and first flag."""
    shorter = _drop_first(line, b"[")
    return _drop_first(shorter, b'"word_starts":[') if shorter != line else line


@_or_unchanged
def _swap_keys(line):
    """The same record with "word_starts" first."""
    rec = json.loads(line)
    if not isinstance(rec, dict):
        return line
    return json.dumps(dict(reversed(rec.items())), separators=(",", ":")).encode() + b"\n"


MUTATIONS = {
    "digit-in-ids-key": _sub(b'"ids"', b'"i5ds"'),
    "digit-in-flags-key": _sub(b'"word_starts"', b'"word_1starts"'),
    "digit-before-line": lambda line: b"7" + line,
    "empty-slot-first": _sub(b"[", b"[,"),
    "empty-slot-middle": _sub(b",", b",,"),
    "empty-slot-last": _sub(b"]", b",]"),
    "empty-ids": _replace_id(b""),
    "leading-zero": _replace_id(b"05"),
    "zero-zero": _replace_id(b"00"),
    "minus-zero": _replace_id(b"-0"),
    "negative-id": _replace_id(b"-4"),
    "id-of-20-digits": _replace_id(b"12345678901234567890"),
    "id-too-wide": _replace_id(b"1234567"),
    "letter-id": _replace_id(b"x"),
    "null-id": _replace_id(b"null"),
    "id-at-vocab-size": _replace_id(str(VOCAB.size).encode()),
    "float-id": _replace_id(b"1.0"),
    "exponent-id": _replace_id(b"1e1"),
    "true-in-ids": _replace_id(b"true"),
    "flag-2": _replace_flag(b"2"),
    "flag-0": _replace_flag(b"0"),
    "flag-true": _replace_flag(b"true"),
    "flag-false": _replace_flag(b"false"),
    "flag-truee": _replace_flag(b"truee"),
    "flag-ture": _replace_flag(b"ture"),
    "flag-fals": _replace_flag(b"fals"),
    "flag-falsy": _replace_flag(b"falsy"),
    "flag-trux": _replace_flag(b"trux"),
    "flag-null": _replace_flag(b"null"),
    "flag-01": _replace_flag(b"01"),
    "extra-flag": _replace_flag(b"1,1"),
    "missing-id": _drop_first_id,
    "shorter-record": _drop_first_item,
    "bracket-for-comma": _sub(b",", b"["),
    "close-bracket-for-comma": _sub(b",", b"]"),
    "ids-key-renamed": _sub(b'"ids"', b'"idz"'),
    "flags-key-renamed": _sub(b'"word_starts"', b'"word_startz"'),
    "flags-key-dropped": _sub(b'"word_starts":', b""),
    "short-line": lambda line: b"[,,,]}\n",
    "space-after-comma": _sub(b",", b", "),
    "trailing-space": lambda line: line[:-1] + b" \n" if line.endswith(b"\n") else line + b" ",
    "keys-swapped": _swap_keys,
    "blank-line-before": lambda line: b"\n" + line,
    "blank-spaces-before": lambda line: b"  \n" + line,
    "crlf": lambda line: line[:-1] + b"\r\n" if line.endswith(b"\n") else line,
    "no-final-newline": lambda line: line.rstrip(b"\n"),
    "invalid-utf8-in-key": _sub(b"ids", b"i\xffds"),
    "invalid-utf8-in-list": _sub(b",", b",\xfe"),
    "not-an-object": lambda line: b"[" + line.rstrip(b"\n") + b"]\n",
    "truncated": lambda line: line[:len(line) // 2] + b"\n",
}


@pytest.mark.parametrize("layout", ["documents", "packed"])
class TestBulkReaders:
    def test_canonical_files_take_the_bulk_path(self, tmp_path, layout, monkeypatch):
        docs = [TokenSequence(ids=np.array([5, 60, 7, 99, 0]),
                              word_starts=np.array([1, 0, 1, 1, 0], dtype=bool)),
                TokenSequence(ids=np.array([42, 3]), word_starts=np.array([True, True]))]
        path = tmp_path / "f.jsonl"
        canonical_file(layout, docs, path)
        want = reference_outcome(layout, path)
        monkeypatch.setattr(corpus, "_parse_record", None)   # never called
        assert outcome(layout, path) == want

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_files_load_as_the_per_line_reader_loads_them(
            self, tmp_path_factory, layout, data):
        docs = data.draw(docs_strategy(), label="docs")
        path = tmp_path_factory.mktemp("codec") / "f.jsonl"
        lines = canonical_file(layout, docs, path).splitlines(keepends=True)
        body = 0 if layout == "documents" else 1
        names = data.draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=2),
                          label="mutations")
        for name in names:
            at = data.draw(st.integers(min_value=body, max_value=len(lines) - 1), label="line")
            lines[at] = MUTATIONS[name](lines[at])
        path.write_bytes(b"".join(lines))
        chunk = data.draw(st.integers(min_value=1, max_value=600), label="chunk bytes")
        with mock.patch.object(corpus, "CHUNK_BYTES", chunk):
            assert outcome(layout, path) == reference_outcome(layout, path)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutated_last_line(self, tmp_path, layout, name):
        # a malformed last line must not make the decoder read past the block
        doc = TokenSequence(ids=np.array([5, 6, 70]), word_starts=np.array([1, 1, 0], dtype=bool))
        path = tmp_path / "f.jsonl"
        lines = canonical_file(layout, [doc] * 3, path).splitlines(keepends=True)
        lines[-1] = MUTATIONS[name](lines[-1])
        path.write_bytes(b"".join(lines))
        assert outcome(layout, path) == reference_outcome(layout, path)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_error_on_first_line_of_a_later_block(self, tmp_path, monkeypatch, layout, name):
        docs = [TokenSequence(ids=np.arange(10 + 4 * i, 14 + 4 * i),
                              word_starts=np.array([1, 0, 1, 1], dtype=bool)) for i in range(6)]
        path = tmp_path / "f.jsonl"
        lines = canonical_file(layout, docs, path).splitlines(keepends=True)
        body = 0 if layout == "documents" else 1
        # the body's first block is its first two lines; the mutation is in the third
        monkeypatch.setattr(corpus, "CHUNK_BYTES", len(lines[body]) + len(lines[body + 1]))
        lines[body + 2] = MUTATIONS[name](lines[body + 2])
        path.write_bytes(b"".join(lines))
        with open(path, "rb") as fh:
            fh.seek(sum(map(len, lines[:body])))
            blocks = list(corpus._line_blocks(fh))
        assert blocks[0] == b"".join(lines[body:body + 2])
        got = outcome(layout, path)
        assert got == reference_outcome(layout, path)
        if isinstance(got[0], type):     # an error, which names the mutated line
            assert f"line {body + 3}" in got[1]
