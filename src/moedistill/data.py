"""Tokenization, vocabulary with frequency counts, TSV ingestion, and a
seeded synthetic classification task.

Tokenization is plain whitespace splitting; subword machinery adds nothing
at this scale and token-level hashing behaves the same either way.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
RESERVED = {"<pad>": PAD_ID, "<unk>": UNK_ID, "<cls>": CLS_ID}


class DataError(ValueError):
    pass


@dataclass
class Vocab:
    token_to_id: dict[str, int]
    freqs: np.ndarray  # id -> training-corpus count; reserved ids get 0

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def encode_token(self, tok: str) -> int:
        return self.token_to_id.get(tok, UNK_ID)

    def to_json(self) -> str:
        doc = {t: [i, int(self.freqs[i])] for t, i in self.token_to_id.items()}
        return json.dumps(doc, sort_keys=True)


@dataclass
class Example:
    ids: np.ndarray  # CLS-prefixed token ids, unpadded
    label: int


@dataclass
class Dataset:
    examples: list[Example]
    num_labels: int

    def __len__(self):
        return len(self.examples)


def build_vocab(lines: list[str], min_freq: int = 1) -> Vocab:
    """Whitespace-tokenize ``lines`` and assign dense ids.

    Tokens with count >= min_freq get ids ordered by (descending frequency,
    lexicographic); everything else encodes to UNK.
    """
    counts = Counter()
    for line in lines:
        counts.update(line.split())
    if not counts:
        raise DataError("empty corpus")
    kept = sorted((t for t, c in counts.items() if c >= min_freq),
                  key=lambda t: (-counts[t], t))
    token_to_id = dict(RESERVED)
    for t in kept:
        token_to_id[t] = len(token_to_id)
    freqs = np.zeros(len(token_to_id), dtype=np.int64)
    for t in kept:
        freqs[token_to_id[t]] = counts[t]
    return Vocab(token_to_id, freqs)


def encode(text: str, vocab: Vocab, max_len: int, label: int = 0) -> Example:
    """[CLS] + token ids, truncated to ``max_len`` total positions."""
    ids = [CLS_ID] + [vocab.encode_token(t) for t in text.split()]
    return Example(np.asarray(ids[:max_len], dtype=np.int64), label)


def encode_dataset(pairs: list[tuple[str, int]], vocab: Vocab, max_len: int,
                   num_labels: int) -> Dataset:
    return Dataset([encode(t, vocab, max_len, label=y) for t, y in pairs], num_labels)


def pad_batch(examples: list[Example]):
    """Pad to the batch max length; returns (ids, mask, labels) arrays."""
    maxlen = max(len(e.ids) for e in examples)
    n = len(examples)
    ids = np.full((n, maxlen), PAD_ID, dtype=np.int64)
    mask = np.zeros((n, maxlen), dtype=np.float64)
    labels = np.zeros(n, dtype=np.int64)
    for i, e in enumerate(examples):
        ids[i, : len(e.ids)] = e.ids
        mask[i, : len(e.ids)] = 1.0
        labels[i] = e.label
    return ids, mask, labels


def iter_batches(dataset: Dataset, batch_size: int,
                 rng: np.random.Generator | None = None):
    """Yield padded batches; shuffles when an rng is given."""
    order = np.arange(len(dataset))
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        chunk = [dataset.examples[i] for i in order[start:start + batch_size]]
        yield pad_batch(chunk)


def load_tsv(path: str, has_header: bool = False) -> list[tuple[str, int]]:
    """One example per line: text TAB label. Labels must be non-negative integers."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    pairs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if has_header and lineno == 1:
            continue
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'text<TAB>label', got {line!r}")
        try:
            label = int(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: label {parts[1]!r} is not an integer") from None
        if label < 0:
            raise DataError(f"{path}:{lineno}: label {label} is negative")
        pairs.append((parts[0], label))
    return pairs


@dataclass
class SyntheticTask:
    train: list[tuple[str, int]]
    eval: list[tuple[str, int]]
    corpus: list[str] = field(repr=False)
    n_classes: int = 2


def gen_synthetic_task(seed: int, n_examples: int = 1000, n_classes: int = 3,
                       vocab_size: int = 200, signal_per_class: int = 6,
                       min_len: int = 8, max_len: int = 16,
                       zipf_exponent: float = 1.1,
                       eval_fraction: float = 0.25) -> SyntheticTask:
    """Token-identity classification task learnable to ~100% at desk scale.

    Each class owns a disjoint set of signal tokens; a sentence mixes
    Zipf-distributed background tokens with 2 <= k <= min(5, signal_per_class)
    signal tokens of its class. The Zipf tail makes balanced and random hashing
    measurably different in load.
    """
    if n_classes < 2:
        raise DataError("need at least 2 classes")
    if signal_per_class < 2:
        raise DataError(f"signal_per_class={signal_per_class} must be at least 2")
    if min_len < min(5, signal_per_class):  # a sentence holds up to that many signal tokens
        raise DataError(f"min_len={min_len} must be at least min(5, signal_per_class)")
    if max_len < min_len:
        raise DataError(f"max_len={max_len} is below min_len={min_len}")
    if not 0 < eval_fraction < 1:
        raise DataError(f"eval_fraction={eval_fraction} must lie strictly between 0 and 1")
    n_eval = max(1, int(round(eval_fraction * n_examples)))
    if n_eval >= n_examples:
        raise DataError(f"n_examples={n_examples} with eval_fraction={eval_fraction} "
                        "leaves no training examples")
    n_signal = n_classes * signal_per_class
    n_background = vocab_size - n_signal
    if n_background < 10:
        raise DataError(f"vocab_size={vocab_size} too small for {n_signal} signal tokens")

    rng = np.random.default_rng(seed)
    signal = [[f"sig{c}_{k}" for k in range(signal_per_class)] for c in range(n_classes)]
    background = [f"w{i}" for i in range(n_background)]
    ranks = np.arange(1, n_background + 1, dtype=np.float64)
    probs = ranks ** (-zipf_exponent)
    probs /= probs.sum()

    sentences = []
    for _ in range(n_examples):
        c = int(rng.integers(n_classes))
        length = int(rng.integers(min_len, max_len + 1))
        k = int(rng.integers(2, min(5, signal_per_class) + 1))
        toks = list(rng.choice(background, size=length - k, p=probs))
        toks += list(rng.choice(signal[c], size=k, replace=True))
        rng.shuffle(toks)
        sentences.append((" ".join(toks), c))

    return SyntheticTask(
        train=sentences[n_eval:],
        eval=sentences[:n_eval],
        corpus=[s for s, _ in sentences[n_eval:]],
        n_classes=n_classes,
    )

