import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmpipe.corpus import (KEY_WINDOWS, TokenSequence, Vocab, epoch_stream, load_packed,
                            load_tokens, pack_sequences, save_packed,
                            serialize_tokens, write_binary)
from mlmpipe.errors import ConfigError, DataError, ParseError, RangeError
from mlmpipe.rng import substream

from conftest import VOCAB, load_lines, make_window, packed, random_docs


def doc(ids, word_starts=None):
    return TokenSequence(ids=np.array(ids, dtype=np.int64),
                         word_starts=np.ones(len(ids), dtype=bool) if word_starts is None
                         else np.array(word_starts, dtype=bool))


class TestVocab:
    def test_rejects_duplicate_specials(self):
        with pytest.raises(ConfigError):
            Vocab(size=10, mask_id=1, pad_id=1, sep_id=2)

    def test_rejects_out_of_range_special(self):
        with pytest.raises(ConfigError):
            Vocab(size=10, mask_id=10, pad_id=0, sep_id=1)

    def test_rejects_size_beyond_int64(self, tmp_path):
        # random replacements draw int64 ids below the size
        Vocab(size=2 ** 63 - 1, mask_id=2, pad_id=0, sep_id=1)
        with pytest.raises(ConfigError, match=f"^vocab size {2 ** 63} is beyond int64$"):
            Vocab(size=2 ** 63, mask_id=2, pad_id=0, sep_id=1)
        with pytest.raises(ConfigError, match="beyond int64"):
            load_lines(tmp_path, [], 2 ** 63)


class TestLoadTokens:
    def test_empty_stream(self, tmp_path):
        assert load_lines(tmp_path, [], VOCAB) == []

    def test_single_record_roundtrip(self, tmp_path):
        line = '{"ids":[5,6,7],"word_starts":[true,true,false]}'
        docs = load_lines(tmp_path, [line], VOCAB)
        assert len(docs) == 1
        assert docs[0].ids.tolist() == [5, 6, 7]
        assert docs[0].word_starts.tolist() == [True, True, False]

    @pytest.mark.parametrize("size", [0, -3])
    def test_bare_size_must_be_positive(self, tmp_path, size):
        # before any line is read, so an empty corpus is rejected too
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigError, match=f"^vocab size must be positive, got {size}$"):
            load_tokens(path, size)

    def test_id_at_vocab_size_is_range_error(self, tmp_path):
        line = json.dumps({"ids": [VOCAB.size], "word_starts": [True]})
        with pytest.raises(RangeError, match="line 1"):
            load_lines(tmp_path, [line], VOCAB)

    @pytest.mark.parametrize("field,values", [
        ("ids", [5.7]), ("ids", ["6"]), ("ids", [True]), ("ids", [None]), ("ids", "56"),
        ("word_starts", ["false"]), ("word_starts", [2]), ("word_starts", [1.0]),
        ("word_starts", [None]), ("word_starts", True)])
    def test_wrong_json_type_is_parse_error(self, tmp_path, field, values):
        rec = {"ids": [5], "word_starts": [True], field: values}
        good = json.dumps({"ids": [5], "word_starts": [True]})
        with pytest.raises(ParseError, match=f"line 2: '{field}'"):
            load_lines(tmp_path, [good, json.dumps(rec)], VOCAB)

    def test_coercible_values_rejected(self, tmp_path):
        line = '{"ids":[5.7,"6",true],"word_starts":["false",0,"no"]}'
        with pytest.raises(ParseError, match="line 1"):
            load_lines(tmp_path, [line], 10)

    def test_zero_one_word_starts_accepted(self, tmp_path):
        docs = load_lines(tmp_path, ['{"ids":[5,6,7],"word_starts":[1,0,true]}'], VOCAB)
        assert docs[0].word_starts.tolist() == [True, False, True]

    def test_negative_id_is_range_error(self, tmp_path):
        line = json.dumps({"ids": [5, -4], "word_starts": [True, True]})
        with pytest.raises(RangeError, match="token id -4"):
            load_lines(tmp_path, [line], VOCAB)

    def test_malformed_json_names_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_lines(tmp_path, ['{"ids":[5],"word_starts":[true]}', "{oops"], VOCAB)

    def test_length_mismatch_rejected(self, tmp_path):
        line = '{"ids":[5,6],"word_starts":[true]}'
        with pytest.raises(ParseError):
            load_lines(tmp_path, [line], VOCAB)

    def test_first_position_must_start_word(self, tmp_path):
        line = '{"ids":[5],"word_starts":[false]}'
        with pytest.raises(ParseError):
            load_lines(tmp_path, [line], VOCAB)

    def test_jsonl_roundtrip_identity(self, tmp_path):
        docs = random_docs(10, 30)
        path = tmp_path / "corpus.jsonl"
        serialize_tokens(docs, path)
        reloaded = load_tokens(path, VOCAB)
        assert [(d.ids.tolist(), d.word_starts.tolist()) for d in reloaded] == \
               [(d.ids.tolist(), d.word_starts.tolist()) for d in docs]

    def test_binary_roundtrip_matches_jsonl(self, tmp_path):
        docs = random_docs(10, 30)
        path = tmp_path / "corpus.bin"
        write_binary(docs, VOCAB, path)
        reloaded = load_tokens(path, VOCAB)
        assert [(d.ids.tolist(), d.word_starts.tolist()) for d in reloaded] == \
               [(d.ids.tolist(), d.word_starts.tolist()) for d in docs]

    def test_garbage_file_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ParseError):
            load_tokens(path, VOCAB)

    def test_binary_truncated_body(self, tmp_path):
        path = tmp_path / "trunc.bin"
        import struct
        from mlmpipe.corpus import BINARY_MAGIC, BINARY_VERSION
        path.write_bytes(BINARY_MAGIC + struct.pack("<HI", BINARY_VERSION, VOCAB.size)
                         + struct.pack("<I", 8) + b"\0" * 4)
        with pytest.raises(ParseError, match="truncated"):
            load_tokens(path, VOCAB)


class TestWindow:
    def test_maskable_positions_follow_ids(self):
        # computed on each call: a window holds no array beyond its ids and flags
        win = make_window([5, VOCAB.pad_id, 6, VOCAB.sep_id, 7])
        assert win.maskable_positions(VOCAB).tolist() == [0, 2, 4]
        win.ids[2] = VOCAB.pad_id
        assert win.maskable_positions(VOCAB).tolist() == [0, 4]
        assert set(vars(win)) == {"ids", "word_starts"}


class TestPackSequences:
    def test_two_docs_hand_count(self):
        # 100 + 1 (sep) + 60 = 161 tokens -> windows of 128 and 33 + 95 pads
        docs = [doc([5] * 100), doc([6] * 60)]
        ds = pack_sequences(docs, 128, VOCAB)
        assert len(ds) == 2
        assert all(len(w.ids) == 128 for w in ds)
        second = ds[1].ids
        assert int((second == VOCAB.pad_id).sum()) == 95
        assert int((ds[0].ids == VOCAB.sep_id).sum()) == 1

    def test_empty_docs(self):
        assert len(pack_sequences([], 128, VOCAB)) == 0

    def test_exact_fit_no_padding(self):
        docs = [doc([5] * 128)]
        ds = pack_sequences(docs, 128, VOCAB)
        assert len(ds) == 1
        assert int((ds[0].ids == VOCAB.pad_id).sum()) == 0

    @pytest.mark.parametrize("seq_len", [2, 8, 128])
    def test_mask_id_in_a_document_is_named(self, seq_len):
        # whatever the windows, the document and its position are named
        docs = [doc([5, 6]), doc([]), doc([5, 6, 7, VOCAB.mask_id, 8])]
        with pytest.raises(DataError, match=f"^document 2: position 3 holds the mask id "
                                            f"{VOCAB.mask_id}$"):
            pack_sequences(docs, seq_len, VOCAB)
        with pytest.raises(DataError, match="^document 0: position 0 "):
            pack_sequences([doc([VOCAB.mask_id])], seq_len, VOCAB)

    @pytest.mark.parametrize("name", ["pad", "sep"])
    def test_pad_or_sep_id_in_a_document_is_named(self, name):
        # a corpus token that equals pad or sep could never be masked, and it
        # would split whole-word and PMI units
        tid = getattr(VOCAB, f"{name}_id")
        docs = [doc([5, 6]), doc([]), doc([5, 6, 7, tid, 8])]
        with pytest.raises(DataError, match=f"^document 2: position 3 holds the {name} id "
                                            f"{tid}$"):
            pack_sequences(docs, 4, VOCAB)

    def test_first_special_id_is_named(self):
        docs = [doc([5, VOCAB.pad_id, 7, VOCAB.sep_id, 9])]
        with pytest.raises(DataError, match=f"^document 0: position 1 holds the pad id "
                                            f"{VOCAB.pad_id}$"):
            pack_sequences(docs, 4, VOCAB)

    def test_short_seq_len_rejected(self):
        with pytest.raises(ConfigError):
            pack_sequences([], 1, VOCAB)

    def test_sep_and_pad_are_word_starts(self):
        docs = [doc([5] * 3, [True, False, False]), doc([6] * 2, [True, False])]
        ds = pack_sequences(docs, 8, VOCAB)
        win = ds[0]
        assert bool(win.word_starts[3])  # sep position
        assert all(bool(b) for b in win.word_starts[6:])  # pad positions

    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=8),
           st.integers(min_value=2, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_token_conservation(self, lengths, seq_len):
        docs = [doc([7] * n) for n in lengths]
        ds = pack_sequences(docs, seq_len, VOCAB)
        kept = sum(int(((w.ids != VOCAB.pad_id) & (w.ids != VOCAB.sep_id)).sum())
                   for w in ds)
        assert kept == sum(lengths)


class TestEpochStream:
    def test_determinism(self):
        ds = pack_sequences(random_docs(20, 50), 64, VOCAB)
        a = [(i, rng.integers(0, 1 << 30)) for i, rng in epoch_stream(ds, 42, 0)]
        b = [(i, rng.integers(0, 1 << 30)) for i, rng in epoch_stream(ds, 42, 0)]
        assert a == b

    def test_epochs_differ(self):
        ds = pack_sequences(random_docs(200, 60), 64, VOCAB)
        a = [i for i, _ in epoch_stream(ds, 42, 0)]
        b = [i for i, _ in epoch_stream(ds, 42, 1)]
        assert a != b

    def test_generators_stay_independent(self):
        # a whole epoch's generators held at once (more than one keyed chunk)
        # and drawn in reverse give each window its own substream's draws
        ds = packed([make_window([5] * 4)] * (KEY_WINDOWS + 37))
        pairs = list(epoch_stream(ds, 42, 3))
        got = {idx: rng.integers(0, 1 << 30, size=4).tolist() for idx, rng in reversed(pairs)}
        assert sorted(got) == list(range(len(ds)))
        assert got == {idx: substream(42, 3, idx).integers(0, 1 << 30, size=4).tolist()
                       for idx in got}

    def test_singleton(self):
        ds = pack_sequences(random_docs(1, 10), 64, VOCAB)
        assert [i for i, _ in epoch_stream(ds, 0, 0)] == [0]

    @given(st.integers(min_value=0, max_value=2 ** 63 - 1),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_bijection(self, seed, epoch):
        ds = pack_sequences(random_docs(13, 40), 64, VOCAB)
        order = [i for i, _ in epoch_stream(ds, seed, epoch)]
        assert sorted(order) == list(range(len(ds)))


class TestPackedIO:
    def test_save_load_roundtrip(self, tmp_path):
        ds = pack_sequences(random_docs(5, 40), 32, VOCAB)
        path = tmp_path / "packed.jsonl"
        save_packed(ds, path, header={"note": "test"})
        back = load_packed(path)
        assert back.seq_len == 32
        assert back.vocab == VOCAB
        assert np.array_equal(back.ids, ds.ids)
        assert np.array_equal(back.word_starts, ds.word_starts)

    def test_windows_may_hold_pad_and_sep(self, tmp_path):
        # packing puts them there, so a packed file is refused only the mask id
        ds = pack_sequences([doc([5, 6, 7]), doc([8])], 4, VOCAB)
        assert ds.ids.tolist() == [[5, 6, 7, VOCAB.sep_id], [8] + [VOCAB.pad_id] * 3]
        save_packed(ds, tmp_path / "packed.jsonl")
        assert np.array_equal(load_packed(tmp_path / "packed.jsonl").ids, ds.ids)

    def test_mask_id_in_a_window_is_named(self, tmp_path):
        ids = np.full((3, 4), 5)
        ids[2, 1] = VOCAB.mask_id
        path = tmp_path / "packed.jsonl"
        save_packed(packed([make_window(row) for row in ids]), path)
        with pytest.raises(DataError, match=f"^packed dataset window 2: position 1 holds the "
                                            f"mask id {VOCAB.mask_id}$"):
            load_packed(path)

    @pytest.mark.parametrize("seq_len", ['"abc"', "1", "0"])
    def test_bad_header_seq_len(self, tmp_path, seq_len):
        path = tmp_path / "packed.jsonl"
        path.write_text('{"seq_len": %s, "vocab": {"size": 100, "mask_id": 2, "pad_id": 0, '
                        '"sep_id": 1}}\n' % seq_len)
        with pytest.raises(ParseError, match="packed dataset"):
            load_packed(path)

    @pytest.mark.parametrize("seq_len,vocab", [
        ('"4"', {}), ("4.0", {}), ("true", {}), ("4", {"size": 100.0}), ("4", {"mask_id": 2.0}),
        ("4", {"pad_id": False}), ("4", {"sep_id": "1"}), ("4", {"size": None}),
    ], ids=["seq_len-string", "seq_len-float", "seq_len-bool", "size-float", "mask_id-float",
            "pad_id-bool", "sep_id-string", "size-null"])
    def test_header_values_must_be_json_integers(self, tmp_path, seq_len, vocab):
        # values that int() or Vocab would coerce are refused
        fields = {"size": 100, "mask_id": 2, "pad_id": 0, "sep_id": 1, **vocab}
        path = tmp_path / "packed.jsonl"
        path.write_text('{"seq_len": %s, "vocab": %s}\n' % (seq_len, json.dumps(fields))
                        + '{"ids": [5, 6, 7, 8], "word_starts": [1, 1, 1, 1]}\n')
        with pytest.raises(ParseError, match="^packed dataset: bad header"):
            load_packed(path)

    def test_huge_seq_len_is_parse_error(self, tmp_path):
        # the header's seq_len must not size an allocation beyond the file
        path = tmp_path / "packed.jsonl"
        path.write_text('{"seq_len": 1000000000000, "vocab": {"size": 100, "mask_id": 2, '
                        '"pad_id": 0, "sep_id": 1}}\n'
                        '{"ids": [5, 6, 7, 8], "word_starts": [1, 1, 1, 1]}\n')
        with pytest.raises(ParseError, match="^packed dataset line 2: window is not length"):
            load_packed(path)

    @pytest.mark.parametrize("windows", ["", '{"ids": [5, 6, 7, 8], "word_starts": [1, 1, 1, 1]}\n'],
                             ids=["no-windows", "one-window"])
    def test_seq_len_beyond_numpy_is_parse_error(self, tmp_path, windows):
        # numpy refuses a (0 x 10**30) matrix, so no row count makes it fit
        path = tmp_path / "packed.jsonl"
        path.write_text('{"seq_len": %d, "vocab": {"size": 100, "mask_id": 2, '
                        '"pad_id": 0, "sep_id": 1}}\n' % 10 ** 30 + windows)
        with pytest.raises(ParseError, match=r"^packed dataset: seq_len 10{30} is too large$"):
            load_packed(path)

    def test_roundtrip_blank_lines_and_zero_windows(self, tmp_path):
        ds = pack_sequences(random_docs(5, 40), 32, VOCAB)
        path = tmp_path / "packed.jsonl"
        save_packed(ds, path)
        header, *rows = path.read_text().splitlines()
        # blank lines between windows, and no newline after the last one
        path.write_text(header + "\n\n" + "\n \n".join(rows))
        back = load_packed(path)
        assert back.vocab == VOCAB and back.seq_len == 32
        assert back.ids.dtype == np.int64 and back.word_starts.dtype == bool
        assert np.array_equal(back.ids, ds.ids) and np.array_equal(back.word_starts, ds.word_starts)
        assert not back.ids.flags.writeable and not back.word_starts.flags.writeable
        assert np.shares_memory(back[1].ids, back.ids)
        empty = pack_sequences([], 16, VOCAB)
        save_packed(empty, path)
        back = load_packed(path)
        assert back.ids.shape == back.word_starts.shape == (0, 16) and back.seq_len == 16
        assert len(back) == 0 and list(back) == []

    @pytest.mark.parametrize("field,value", [
        ("ids", 5.5), ("ids", "7"), ("ids", True), ("ids", None),
        ("word_starts", "x"), ("word_starts", 2), ("word_starts", 0.5), ("word_starts", None)])
    def test_non_integer_window_value_is_parse_error(self, tmp_path, field, value):
        path = tmp_path / "packed.jsonl"
        save_packed(pack_sequences(random_docs(5, 40), 32, VOCAB), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec[field][1] = value
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"packed dataset line 3: '{field}'"):
            load_packed(path)


GOOD_RECORD = {"ids": [5, 6, 7, 8], "word_starts": [True, True, False, True]}


def _record(field, value, index=None):
    rec = {key: list(values) for key, values in GOOD_RECORD.items()}
    if index is None:
        rec[field] = value
    else:
        rec[field][index] = value
    return json.dumps(rec)


MALFORMED_RECORDS = {
    **{f"{field}-{value!r}": (_record(field, value, 1), ParseError)
       for field, value in [("ids", 5.7), ("ids", "6"), ("ids", True), ("ids", None),
                            ("word_starts", "false"), ("word_starts", 2),
                            ("word_starts", 1.0), ("word_starts", None)]},
    "ids-not-a-list": (_record("ids", "5678"), ParseError),
    "word_starts-not-a-list": (_record("word_starts", True), ParseError),
    "missing-ids": (json.dumps({"word_starts": GOOD_RECORD["word_starts"]}), ParseError),
    "missing-word_starts": (json.dumps({"ids": GOOD_RECORD["ids"]}), ParseError),
    "not-an-object": ("[5, 6, 7, 8]", ParseError),
    "invalid-json": ("{oops", ParseError),
    "length-mismatch": (_record("word_starts", [True, True, False]), ParseError),
    "id-2**63": (_record("ids", 2 ** 63, 1), RangeError),
    "id-below-int64": (_record("ids", -2 ** 63 - 1, 1), RangeError),
    "id-negative": (_record("ids", -4, 1), RangeError),
    "id-vocab-size": (_record("ids", VOCAB.size, 1), RangeError),
}


class TestReadersAgree:
    @pytest.mark.parametrize("line,error", MALFORMED_RECORDS.values(),
                             ids=MALFORMED_RECORDS.keys())
    def test_same_error_for_document_and_window(self, tmp_path, line, error):
        with pytest.raises(error, match="^line 2: ") as as_doc:
            load_lines(tmp_path, [json.dumps(GOOD_RECORD), line], VOCAB)
        path = tmp_path / "packed.jsonl"
        good = doc(GOOD_RECORD["ids"], GOOD_RECORD["word_starts"])
        save_packed(packed([good]), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(error, match="^packed dataset line 3: ") as as_window:
            load_packed(path)
        assert type(as_doc.value) is type(as_window.value) is error
        assert str(as_doc.value).split(": ", 1)[1] == str(as_window.value).split(": ", 1)[1]

    def test_loaded_sequences_are_typed_arrays(self, tmp_path):
        docs = random_docs(5, 40)
        jsonl, binary, packed = (tmp_path / name for name in ("c.jsonl", "c.bin", "p.jsonl"))
        serialize_tokens(docs, jsonl)
        write_binary(docs, VOCAB, binary)
        save_packed(pack_sequences(docs, 32, VOCAB), packed)
        for seqs in (load_tokens(jsonl, VOCAB), load_tokens(binary, VOCAB),
                     list(load_packed(packed))):
            assert seqs
            for seq in seqs:
                assert isinstance(seq.ids, np.ndarray) and seq.ids.dtype == np.int64
                assert isinstance(seq.word_starts, np.ndarray) and seq.word_starts.dtype == bool
