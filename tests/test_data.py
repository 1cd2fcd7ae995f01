import json
from collections import Counter

import numpy as np
import pytest

from moedistill import data as D
from oracles import bayes_accuracy


class TestVocab:
    def test_frequency_ordering(self):
        v = D.build_vocab(["a a b"])
        assert v.token_to_id["a"] < v.token_to_id["b"]
        assert v.freqs[v.token_to_id["a"]] == 2
        assert v.freqs[v.token_to_id["b"]] == 1

    def test_min_freq_maps_to_unk(self):
        v = D.build_vocab(["a a b"], min_freq=2)
        assert "b" not in v.token_to_id
        assert v.encode_token("b") == D.UNK_ID

    def test_empty_corpus_raises(self):
        with pytest.raises(D.DataError):
            D.build_vocab(["", "   "])

    def test_counts_match_independent_recount(self):
        lines = ["x y x z", "y y w", "z x"]
        v = D.build_vocab(lines)
        oracle = Counter(tok for line in lines for tok in line.split())
        for tok, count in oracle.items():
            assert v.freqs[v.token_to_id[tok]] == count
        assert v.freqs.sum() == sum(oracle.values())

    def test_json_document(self):
        v = D.build_vocab(["a a b c"])
        assert json.loads(v.to_json()) == {"<pad>": [0, 0], "<unk>": [1, 0], "<cls>": [2, 0],
                                           "a": [3, 2], "b": [4, 1], "c": [5, 1]}


class TestEncode:
    def test_empty_text_is_cls_only(self):
        v = D.build_vocab(["a"])
        ex = D.encode("", v, max_len=8)
        assert ex.ids.tolist() == [D.CLS_ID]
        ids, mask, _ = D.pad_batch([ex, D.encode("a a a", v, 8)])
        assert mask[0].sum() == 1

    def test_roundtrip_in_vocab(self):
        v = D.build_vocab(["good movie bad movie"])
        ex = D.encode("good movie", v, max_len=8)
        inv = {i: t for t, (i, _) in json.loads(v.to_json()).items()}
        assert [inv[i] for i in ex.ids[1:]] == ["good", "movie"]

    def test_truncation(self):
        v = D.build_vocab(["a b c d e f"])
        ex = D.encode("a b c d e f", v, max_len=4)
        assert len(ex.ids) == 4
        assert ex.ids[0] == D.CLS_ID

    def test_deterministic(self):
        v = D.build_vocab(["a b c"])
        a = D.encode("a c b", v, 8).ids
        b = D.encode("a c b", v, 8).ids
        np.testing.assert_array_equal(a, b)


class TestLoadTsv(object):
    def test_basic(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("good movie\t1\nbad movie\t0\n")
        pairs = D.load_tsv(str(p))
        assert pairs == [("good movie", 1), ("bad movie", 0)]

    def test_header_flag(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("text\tlabel\ngood\t1\n")
        with pytest.raises(D.DataError, match=":1:"):
            D.load_tsv(str(p))
        assert D.load_tsv(str(p), has_header=True) == [("good", 1)]

    def test_crlf_and_lf_identical(self, tmp_path):
        a = tmp_path / "lf.tsv"
        b = tmp_path / "crlf.tsv"
        a.write_bytes(b"good\t1\nbad\t0\n")
        b.write_bytes(b"good\t1\r\nbad\t0\r\n")
        assert D.load_tsv(str(a)) == D.load_tsv(str(b))

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("good\t1\nbroken line\n")
        with pytest.raises(D.DataError, match=":2:"):
            D.load_tsv(str(p))


class TestSyntheticTask:
    def test_signal_sets_disjoint(self):
        """Every sentence plants at least two signal tokens, and each signal token
        occurs in sentences of one class only."""
        task = D.gen_synthetic_task(0, n_examples=50, n_classes=4, vocab_size=150)
        owner = {}
        for text, label in task.train + task.eval:
            signal = [t for t in text.split() if t.startswith("sig")]
            assert len(signal) >= 2
            for t in signal:
                assert owner.setdefault(t, label) == label
        assert len(set(owner.values())) == 4

    def test_bayes_classifier_is_perfect(self):
        task = D.gen_synthetic_task(3, n_examples=400, n_classes=3, vocab_size=150)
        assert bayes_accuracy(task, "eval") == 1.0
        assert bayes_accuracy(task, "train") == 1.0

    def test_same_seed_identical(self):
        a = D.gen_synthetic_task(11, n_examples=60, n_classes=2, vocab_size=100)
        b = D.gen_synthetic_task(11, n_examples=60, n_classes=2, vocab_size=100)
        assert a.train == b.train and a.eval == b.eval

    def test_class_priors_roughly_uniform(self):
        task = D.gen_synthetic_task(5, n_examples=2000, n_classes=4, vocab_size=200)
        labels = [y for _, y in task.train + task.eval]
        counts = np.bincount(labels, minlength=4) / len(labels)
        assert np.abs(counts - 0.25).max() <= 0.02

    def test_vocab_too_small_raises(self):
        with pytest.raises(D.DataError):
            D.gen_synthetic_task(0, n_examples=10, n_classes=5, vocab_size=35)

    @pytest.mark.parametrize("field,kw", [
        ("signal_per_class", dict(signal_per_class=0)),
        ("signal_per_class", dict(signal_per_class=1)),
        ("min_len", dict(min_len=1, max_len=2)),
        ("min_len", dict(signal_per_class=3, min_len=2)),
        ("max_len", dict(min_len=9, max_len=8)),
        ("eval_fraction", dict(eval_fraction=-1)),
        ("eval_fraction", dict(eval_fraction=0.0)),
        ("eval_fraction", dict(eval_fraction=1.0)),
        # no training example left
        ("n_examples=150 with eval_fraction=0.999", dict(n_examples=150, eval_fraction=0.999)),
        ("n_examples=0 with eval_fraction", dict(n_examples=0)),
        ("n_examples=1 with eval_fraction", dict(n_examples=1)),
        ("n_examples=-3 with eval_fraction", dict(n_examples=-3)),
    ])
    def test_bad_shape_raises_data_error_naming_the_field(self, field, kw):
        with pytest.raises(D.DataError, match=field):
            D.gen_synthetic_task(0, **{"n_examples": 20, "n_classes": 2, "vocab_size": 100, **kw})

    @pytest.mark.parametrize("kw", [dict(signal_per_class=2, min_len=2, max_len=2),
                                    dict(signal_per_class=9, min_len=5, max_len=5),
                                    dict(eval_fraction=0.01)])
    def test_edge_shapes_are_accepted(self, kw):
        task = D.gen_synthetic_task(0, n_examples=20, n_classes=2, vocab_size=100, **kw)
        assert len(task.train) + len(task.eval) == 20
