"""End-to-end experiment pipeline: teacher fine-tuning, importance scoring,
expert adaptation, distillation, evaluation and inference benchmarking.

Every stage is a pure function of (config, seed, input artifacts); repeated
runs write identical metrics files. Wall-clock timings live only in the
bench report.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, read_header, save_checkpoint, write_atomic
from .data import (DataError, Dataset, Vocab, build_vocab, encode_dataset,
                   gen_synthetic_task, load_tsv)
from .distill import DistillConfig, evaluate_accuracy, train_student, train_teacher
from .importance import ImportanceTable, accumulate_importance
from .model import EncoderModel, ModelConfig, MoEConfig, cost, require_int
from .moe import (ADAPT_IMPORTANCE, ADAPT_MODES, GATE, RoutingTable, adapt_ffn,
                  build_routing, routing_loads)


class ConfigError(ValueError):
    pass


DATA_KEYS = {"synthetic", "train_tsv", "eval_tsv", "has_header", "min_freq"}


@dataclass
class RunConfig:
    model: dict = field(default_factory=dict)
    teacher_train: dict = field(default_factory=dict)
    student_train: dict = field(default_factory=dict)
    data: dict = field(default_factory=lambda: {"synthetic": {}})
    routing: str = "hash_random"
    adaptation: str = ADAPT_IMPORTANCE
    num_experts: int = 4
    shared_dim: int = 0
    seed: int = 0
    out_dir: str = "runs/out"

    @classmethod
    def from_json_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: the config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        return cls(**doc)

    def validate(self):
        """Build each config object the stages build: a bad setting fails before any stage."""
        section = ""
        try:
            require_int("num_experts", self.num_experts, 1)  # moe_config divides by it
            if self.adaptation not in ADAPT_MODES:
                raise ValueError(f"adaptation must be one of {ADAPT_MODES}")
            # the data decides vocab_size and num_labels; any valid value stands in
            dense = self.model_config(vocab_size=1, num_labels=1)
            replace(dense, moe=self.moe_config(dense.ffn_hidden))
            for which in ("teacher", "student"):
                section = f"{which}_train: "
                self.distill_config(which)
            section = "data: "
            if not isinstance(self.data, dict) or set(self.data) - DATA_KEYS:
                raise ValueError(f"keys must come from {sorted(DATA_KEYS)}, got {self.data!r}")
            if "synthetic" not in self.data and not {"train_tsv", "eval_tsv"} <= set(self.data):
                raise ValueError("needs either 'synthetic' or both 'train_tsv' and 'eval_tsv'")
            if not all(isinstance(self.data.get(k, ""), str) for k in ("train_tsv", "eval_tsv")):
                raise ValueError("train_tsv and eval_tsv must be path strings")  # open(0) is stdin
            require_int("min_freq", self.data.get("min_freq", 1), 1)
            if not isinstance(self.data.get("has_header", False), bool):
                raise ValueError(f"has_header must be a boolean, not {self.data['has_header']!r}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section}{exc}") from None

    def model_config(self, vocab_size: int, num_labels: int) -> ModelConfig:
        # fields the config leaves out take ModelConfig's defaults; a model block that
        # sets vocab_size, num_labels or moe is a TypeError (multiple values)
        return ModelConfig(**self.model, vocab_size=vocab_size, num_labels=num_labels, moe=None)

    def moe_config(self, ffn_hidden: int) -> MoEConfig:
        return MoEConfig(num_experts=self.num_experts,
                         expert_dim=ffn_hidden // self.num_experts,
                         shared_dim=self.shared_dim,
                         routing=self.routing)

    def distill_config(self, which: str) -> DistillConfig:
        base = self.teacher_train if which == "teacher" else self.student_train
        return DistillConfig(**{**(base or {}), "seed": self.seed})


@dataclass
class PreparedData:
    train: Dataset
    eval: Dataset
    vocab: Vocab
    num_labels: int


def prepare_data(cfg: RunConfig) -> PreparedData:
    """Build datasets and vocabulary from the synthetic spec or TSV paths."""
    spec = cfg.data
    if "synthetic" in spec:
        try:
            task = gen_synthetic_task(**{"seed": cfg.seed, **spec["synthetic"]})
        except TypeError as exc:  # a key gen_synthetic_task does not take
            raise ConfigError(f"data.synthetic: {exc}") from None
        train_pairs, eval_pairs = task.train, task.eval
        corpus = task.corpus
        num_labels = task.n_classes
    else:
        train_pairs = load_tsv(spec["train_tsv"], spec.get("has_header", False))
        eval_pairs = load_tsv(spec["eval_tsv"], spec.get("has_header", False))
        for split, pairs in (("train", train_pairs), ("eval", eval_pairs)):
            if not pairs:
                raise DataError(f"{spec[split + '_tsv']}: the {split} split has no examples")
        corpus = [t for t, _ in train_pairs]
        if not any(t.split() for t in corpus):  # the vocabulary is built from these tokens
            raise DataError(f"{spec['train_tsv']}: the train split has no tokens")
        labels = {y for _, y in train_pairs}
        for _, y in eval_pairs:
            if y not in labels:
                raise ConfigError(f"eval label {y} never seen in training data")
        num_labels = max(labels) + 1

    vocab = build_vocab(corpus, min_freq=spec.get("min_freq", 1))
    max_len = cfg.model.get("max_seq_len", ModelConfig.max_seq_len)
    return PreparedData(
        train=encode_dataset(train_pairs, vocab, max_len, num_labels),
        eval=encode_dataset(eval_pairs, vocab, max_len, num_labels),
        vocab=vocab, num_labels=num_labels)


def adapt_model(teacher: EncoderModel, table: ImportanceTable, moe: MoEConfig,
                vocab_freqs: np.ndarray, seed: int,
                mode: str = ADAPT_IMPORTANCE) -> EncoderModel:
    """Build the MoE student from a dense teacher.

    Attention, embedding and head parameters are copied; each FFN is split
    into experts by the importance ordering. Hash strategies share one
    token→expert table across layers; the gate gets its own weight per
    layer.
    """
    cfg = copy.deepcopy(teacher.cfg)
    cfg.moe = moe
    student = EncoderModel(cfg, seed=seed)
    src = teacher.named_parameters()
    dst = student.named_parameters()
    for name, t in dst.items():
        if name in src:
            t.data = src[name].data.copy()

    ordering = table.ordering()
    rng = np.random.default_rng(seed)
    shared_hash: RoutingTable | None = None
    if moe.routing != GATE:
        shared_hash = build_routing(moe.routing, vocab_freqs, moe.num_experts,
                                    seed, cfg.embed_dim)
    for l, (s_layer, t_layer) in enumerate(zip(student.layers, teacher.layers)):
        ffn = t_layer.ffn
        s_layer.ffn = adapt_ffn(ffn.w1[0].data, ffn.b1[0].data, ffn.w2[0].data, ffn.b2[0].data,
                                ordering[l], moe.num_experts, moe.shared_dim,
                                mode=mode, rng=rng)
        if moe.routing == GATE:
            s_layer.routing = build_routing(GATE, None, moe.num_experts,
                                            seed + l, cfg.embed_dim)
        else:
            s_layer.routing = shared_hash
    return student


# A timed pass lasts at least this long. Longer passes average out more of a
# shared machine's noise, but the README pipeline's bench stage times ten.
MIN_PASS_SECONDS = 0.02


def bench_inference(model: EncoderModel, dataset: Dataset, repeats: int = 5) -> dict:
    """Examples/second at batch size 1 plus the analytic cost numbers.

    A pass runs the examples once, or as many times over as it takes to last
    ``MIN_PASS_SECONDS``, so that a short list is not timed inside one burst of
    scheduler noise. Timing is the median over ``repeats`` passes after one
    warm-up run; ``median_seconds`` is for one run over the examples. Each
    example runs at its real length, cut to the model's ``max_seq_len``;
    ``seq_len`` and the cost numbers are at ``max_seq_len``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if not dataset.examples:
        raise ValueError("no examples to time")
    seq_len = model.cfg.max_seq_len
    batches = [(ids, np.ones(ids.shape))
               for ids in (ex.ids[None, :seq_len] for ex in dataset.examples)]

    def one_pass(min_seconds: float) -> float:
        """Seconds for one run over the examples."""
        runs, start = 0, time.perf_counter()
        with T.no_grad():
            while True:
                for ids, mask in batches:
                    model.forward(ids, mask)
                runs += 1
                elapsed = time.perf_counter() - start
                if elapsed >= min_seconds:
                    return elapsed / runs

    one_pass(0.0)  # warm-up: one run
    times = sorted(one_pass(MIN_PASS_SECONDS) for _ in range(repeats))
    median = times[len(times) // 2]
    return {
        "examples_per_second": len(batches) / median,
        "median_seconds": median,
        "repeats": repeats,
        "seq_len": seq_len,
        **cost(model.cfg, seq_len),
    }


# -- pipeline stages --------------------------------------------------------


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write_atomic(path, text.encode("utf-8"))


def _write_phase_metrics(out_dir: str, phase: str, records: list[dict]):
    """Replace the ``phase`` records of metrics.jsonl, keeping the other phase's."""
    path = os.path.join(out_dir, "metrics.jsonl")
    kept = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            try:
                kept = [line for line in fh if json.loads(line).get("phase") != phase]
            except (ValueError, AttributeError) as exc:  # not UTF-8, not JSON, not objects
                raise ConfigError(f"{path}: not JSON lines of metric records ({exc})") from None
    _write(path, "".join(kept + [json.dumps(r, sort_keys=True) + "\n" for r in records]))


def _load_stage_checkpoint(cfg: RunConfig, data: PreparedData, name: str) -> EncoderModel:
    """``out_dir/<name>.ckpt``, if its vocabulary and label count are the data's and its
    ``max_seq_len`` is the config's (the data is cut to that length)."""
    model = load_checkpoint(os.path.join(cfg.out_dir, f"{name}.ckpt"))
    have = (model.cfg.vocab_size, model.cfg.num_labels, model.cfg.max_seq_len)
    want = (data.vocab.size, data.num_labels,
            cfg.model.get("max_seq_len", ModelConfig.max_seq_len))
    if have != want:
        raise ConfigError(f"{name}.ckpt has (vocab_size, num_labels, max_seq_len) {have}, "
                          f"but the config and its data give {want}")
    return model


def stage_train_teacher(cfg: RunConfig, data: PreparedData) -> str:
    model_cfg = cfg.model_config(data.vocab.size, data.num_labels)
    teacher = EncoderModel(model_cfg, seed=cfg.seed)
    records: list[dict] = []
    train_teacher(teacher, data.train, cfg.distill_config("teacher"),
                  eval_set=data.eval, metrics_sink=records)
    _write(os.path.join(cfg.out_dir, "vocab.json"), data.vocab.to_json())
    path = os.path.join(cfg.out_dir, "teacher.ckpt")
    save_checkpoint(teacher, path, vocab_file="vocab.json")
    _write_phase_metrics(cfg.out_dir, "teacher", records)
    return path


def stage_importance(cfg: RunConfig, data: PreparedData) -> str:
    teacher = _load_stage_checkpoint(cfg, data, "teacher")
    table = accumulate_importance(teacher, data.train)
    path = os.path.join(cfg.out_dir, "importance.json")
    _write(path, table.to_json())
    return path

def stage_adapt(cfg: RunConfig, data: PreparedData) -> str:
    teacher = _load_stage_checkpoint(cfg, data, "teacher")
    imp_path = os.path.join(cfg.out_dir, "importance.json")
    if not os.path.exists(imp_path):
        raise ConfigError(f"missing importance table {imp_path}; run the "
                          "importance stage first")
    with open(imp_path, "rb") as fh:
        imp_bytes = fh.read()
    table = ImportanceTable.from_json(imp_bytes, teacher.cfg, len(data.train))
    moe = cfg.moe_config(teacher.cfg.ffn_hidden)
    student = adapt_model(teacher, table, moe, data.vocab.freqs, cfg.seed,
                          mode=cfg.adaptation)
    path = os.path.join(cfg.out_dir, "student_init.ckpt")
    save_checkpoint(student, path, vocab_file="vocab.json",
                    importance_digest=hashlib.sha256(imp_bytes).hexdigest())
    return path


def stage_distill(cfg: RunConfig, data: PreparedData) -> str:
    teacher = _load_stage_checkpoint(cfg, data, "teacher")
    student = _load_stage_checkpoint(cfg, data, "student_init")
    records: list[dict] = []
    train_student(student, teacher, data.train, cfg.distill_config("student"),
                  eval_set=data.eval, metrics_sink=records)
    path = os.path.join(cfg.out_dir, "student.ckpt")
    header = read_header(os.path.join(cfg.out_dir, "student_init.ckpt"))
    save_checkpoint(student, path, vocab_file="vocab.json",
                    importance_digest=header.get("importance_digest"))
    _write_phase_metrics(cfg.out_dir, "student", records)
    return path


def stage_eval(cfg: RunConfig, data: PreparedData, which: str = "student") -> dict:
    model = _load_stage_checkpoint(cfg, data, which)
    acc = evaluate_accuracy(model, data.eval)
    report = {"checkpoint": f"{which}.ckpt", "eval_acc": acc,
              "n_examples": len(data.eval)}
    _write(os.path.join(cfg.out_dir, f"eval_{which}.json"),
           json.dumps(report, sort_keys=True) + "\n")
    return report


def stage_bench(cfg: RunConfig, data: PreparedData, repeats: int = 5) -> dict:
    teacher = _load_stage_checkpoint(cfg, data, "teacher")
    student = _load_stage_checkpoint(cfg, data, "student")
    subset = Dataset(data.eval.examples[:32], data.eval.num_labels)
    report = {
        "dense": bench_inference(teacher, subset, repeats=repeats),
        "moe": bench_inference(student, subset, repeats=repeats),
    }
    if student.layers and student.layers[0].routing is not None \
            and student.layers[0].routing.table is not None:
        loads = routing_loads(student.layers[0].routing.table, data.vocab.freqs,
                              cfg.num_experts)
        report["routing_loads"] = [float(x) for x in loads]
    _write(os.path.join(cfg.out_dir, "bench.json"),
           json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report


def run_pipeline(cfg: RunConfig, bench_repeats: int = 5) -> dict:
    """Chain all stages; returns the final eval + bench summary."""
    data = prepare_data(cfg)
    stage_train_teacher(cfg, data)
    stage_importance(cfg, data)
    stage_adapt(cfg, data)
    stage_distill(cfg, data)
    teacher_eval = stage_eval(cfg, data, "teacher")
    student_eval = stage_eval(cfg, data, "student")
    bench = stage_bench(cfg, data, repeats=bench_repeats)
    return {"teacher": teacher_eval, "student": student_eval, "bench": bench}
