"""End-to-end acceptance suite.

One test per acceptance criterion, each reducible to a single pass/fail
verdict. Trend experiments (criteria 5-7) share a module-scoped harness of
five trained teachers so the whole suite stays inside its runtime budget.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import spearmanr

from moedistill import cli
from moedistill import distill as D
from moedistill import tensor as T
from moedistill.checkpoint import load_checkpoint, save_checkpoint
from moedistill.data import (Dataset, build_vocab, encode_dataset,
                             gen_synthetic_task, iter_batches)
from moedistill.importance import (ImportanceTable, accumulate_importance,
                                   importance_oracle)
from moedistill.model import EncoderModel, ModelConfig, MoEConfig, cost
from moedistill.moe import adapt_ffn, routing_loads
from moedistill.pipeline import adapt_model, bench_inference
from oracles import discarded_columns, shared_columns


def train_cfg(**kw):
    base = dict(batch_size=16, seed=0)
    base.update(kw)
    return D.DistillConfig(**base)


# -- criterion 1: single-expert adaptation preserves the function ----------

def test_criterion_1_single_expert_preserves_logits():
    cfg = ModelConfig(vocab_size=60, embed_dim=32, ffn_hidden=64, num_layers=2,
                      num_heads=4, max_seq_len=16, num_labels=3)
    teacher = EncoderModel(cfg, seed=1)
    rng = np.random.default_rng(0)
    table = ImportanceTable(
        {l: rng.permutation(64).astype(float) for l in range(2)}, 1)
    student = adapt_model(teacher, table, MoEConfig(1, 64, 0, "hash_random"),
                          np.ones(60), seed=0)
    ids = rng.integers(3, 60, size=(100, 12))
    mask = np.ones((100, 12))
    with T.no_grad():
        a, _ = teacher.forward(ids, mask)
        b, _ = student.forward(ids, mask)
    worst = np.max(np.abs(a.data - b.data))
    assert worst <= 1e-9, f"logit deviation {worst:.3e} on 100 random inputs"


# -- criterion 2: importance scores track the leave-one-neuron-out oracle --

def test_criterion_2_importance_matches_ablation_oracle():
    start = time.perf_counter()
    task = gen_synthetic_task(0, n_examples=240, n_classes=4, vocab_size=120)
    vocab = build_vocab(task.corpus)
    train = encode_dataset(task.train, vocab, 16, 4)
    cfg = ModelConfig(vocab_size=vocab.size, embed_dim=16, ffn_hidden=24,
                      num_layers=2, num_heads=4, max_seq_len=16, num_labels=4)
    model = EncoderModel(cfg, seed=0)
    D.train_teacher(model, train, train_cfg(epochs=6, learning_rate=1e-3))

    sub = Dataset(train.examples[:96], 4)
    table = accumulate_importance(model, sub)
    for layer in range(2):
        deltas = np.array([importance_oracle(model, sub, layer, j)
                           for j in range(24)])
        rho = spearmanr(table.scores[layer], deltas).statistic
        assert rho >= 0.8, f"layer {layer} spearman {rho:.3f} < 0.8"
    assert time.perf_counter() - start < 120


# -- criterion 3: analytic gradients of the full student objective ---------

def test_criterion_3_student_objective_gradients():
    task = gen_synthetic_task(7, n_examples=30, n_classes=3, vocab_size=120)
    vocab = build_vocab(task.corpus)
    train = encode_dataset(task.train, vocab, 24, 3)
    cfg = ModelConfig(vocab_size=vocab.size, embed_dim=64, ffn_hidden=128,
                      num_layers=2, num_heads=4, max_seq_len=24, num_labels=3)
    teacher = EncoderModel(cfg, seed=5)
    table = accumulate_importance(teacher, train)
    student = adapt_model(teacher, table, MoEConfig(4, 32, 8, "hash_random"),
                          vocab.freqs, seed=0)
    ids, mask, labels = next(iter_batches(train, 6))
    dcfg = train_cfg(lambda_distill=1.0)

    def objective():
        total, _ = D.distill_batch_loss(student, teacher, ids, mask, labels, dcfg)
        return total

    # the five-point stencil at its default step leaves about 1e-13 of
    # cancellation noise on the O(1) objective; coordinates with gradients
    # below ~1e-9 are unverifiable at this tolerance in either direction
    err = T.finite_diff_check(objective, student.parameters(), n_samples=200,
                              rng=np.random.default_rng(0))
    assert err <= 1e-4, f"max relative gradient error {err:.3e}"


# -- criterion 4: expert column bookkeeping and parameter accounting -------

def test_criterion_4_structural_counts():
    # literal 3072-wide split, 4 experts, 512 shared columns
    rng = np.random.default_rng(0)
    d, d_h, n, s = 8, 3072, 4, 512
    ordering = rng.permutation(d_h)
    experts = adapt_ffn(rng.normal(size=(d, d_h)), rng.normal(size=d_h),
                        rng.normal(size=(d_h, d)), rng.normal(size=d),
                        ordering, n, s)
    shared = shared_columns(experts)
    assert shared == set(ordering[:s].tolist())
    uniques = []
    for prov in experts.provenance:
        assert len(prov) == 768
        uniques.append(set(prov.tolist()) - shared)
        assert len(uniques[-1]) == 256
    for i in range(n):
        for j in range(i + 1, n):
            assert not uniques[i] & uniques[j]
    discarded = discarded_columns(experts, d_h)
    assert len(discarded) == 1536
    assert discarded == set(ordering[s + n * 256:].tolist())

    # effective count equals a tensor-by-tensor recount on a real model
    cfg = ModelConfig(vocab_size=50, embed_dim=16, ffn_hidden=32, num_layers=2,
                      num_heads=4, max_seq_len=12, num_labels=3)
    teacher = EncoderModel(cfg, seed=0)
    table = ImportanceTable(
        {l: np.random.default_rng(l).permutation(32).astype(float)
         for l in range(2)}, 1)
    model = adapt_model(teacher, table, MoEConfig(4, 8, 2, "gate"),
                        np.ones(50), seed=0)
    manual = sum(t.data.size for name, t in model.named_parameters().items()
                 if ".expert" not in name or ".expert0." in name)
    assert cost(model.cfg)["effective_params"] == manual

    # transformer-base shapes: effective/total close to the 66M/110M ratio
    base = dict(vocab_size=30522, embed_dim=768, ffn_hidden=3072,
                num_layers=12, num_heads=12, max_seq_len=512, num_labels=2)
    dense = ModelConfig(**base)
    moe = ModelConfig(**base, moe=MoEConfig(4, 768, 512, "hash_random"))
    ratio = cost(moe)["effective_params"] / cost(dense)["total_params"]
    target = 66 / 110
    assert abs(ratio - target) / target <= 0.05, f"ratio {ratio:.4f}"


# -- shared harness for the trend experiments (criteria 5-7) ---------------
#
# Seeds are chosen so the trained dense model demonstrably uses its FFN
# sublayers: zeroing every FFN must cost at least five accuracy points.
# When training happens to route the whole task through attention and
# embeddings (common at this scale), expert construction cannot affect
# accuracy and every comparison below collapses into a tie, so those runs
# say nothing about the adaptation machinery either way.

TREND_SEEDS = (0, 2, 5, 8, 16)


def _build_trend_run(seed):
    task = gen_synthetic_task(seed, n_examples=480, n_classes=8,
                              vocab_size=300, signal_per_class=2)
    vocab = build_vocab(task.corpus)
    train = encode_dataset(task.train, vocab, 24, 8)
    ev = encode_dataset(task.eval, vocab, 24, 8)
    cfg = ModelConfig(vocab_size=vocab.size, embed_dim=16, ffn_hidden=64,
                      num_layers=2, num_heads=4, max_seq_len=24, num_labels=8)
    teacher = EncoderModel(cfg, seed=seed)
    D.train_teacher(teacher, train,
                    train_cfg(epochs=16, learning_rate=2e-3, seed=seed))
    acc = D.evaluate_accuracy(teacher, ev)

    saved = [(l.ffn.w1[0].data.copy(), l.ffn.b1[0].data.copy(), l.ffn.w2[0].data.copy())
             for l in teacher.layers]
    for l in teacher.layers:
        l.ffn.w1[0].data[:] = 0.0
        l.ffn.b1[0].data[:] = 0.0
        l.ffn.w2[0].data[:] = 0.0
    drop = acc - D.evaluate_accuracy(teacher, ev)
    for l, (w1, b1, w2) in zip(teacher.layers, saved):
        l.ffn.w1[0].data[:], l.ffn.b1[0].data[:], l.ffn.w2[0].data[:] = w1, b1, w2
    assert drop >= 0.05, (
        f"seed {seed}: teacher ignores its FFNs (ablation drop {drop:.3f}), "
        "adaptation comparisons would be vacuous")

    table = accumulate_importance(teacher, train)
    return SimpleNamespace(seed=seed, vocab=vocab, train=train, eval=ev,
                           teacher=teacher, table=table, teacher_acc=acc)


@pytest.fixture(scope="module")
def trend_runs():
    start = time.perf_counter()
    runs = [_build_trend_run(seed) for seed in TREND_SEEDS]
    return runs, time.perf_counter() - start


def _adapt(run, mode="importance", routing="hash_random", shared_dim=12):
    return adapt_model(run.teacher, run.table,
                       MoEConfig(4, 16, shared_dim, routing),
                       run.vocab.freqs, seed=run.seed, mode=mode)


# -- criterion 5: layer-wise distillation beats plain fine-tuning ----------

def test_criterion_5_distillation_trend(trend_runs):
    runs, harness_time = trend_runs
    start = time.perf_counter()
    finals = {1.0: [], 0.0: []}
    for run in runs:
        sub = Dataset(run.train.examples[:64], run.train.num_labels)
        for lam in finals:
            student = _adapt(run, shared_dim=15)
            D.train_student(student, run.teacher, sub,
                            train_cfg(lambda_distill=lam, epochs=3,
                                      learning_rate=5e-4, seed=run.seed))
            finals[lam].append(D.evaluate_accuracy(student, run.eval))
    distilled, plain = np.mean(finals[1.0]), np.mean(finals[0.0])
    assert distilled >= plain, f"distilled {distilled:.4f} < plain {plain:.4f}"
    assert harness_time + (time.perf_counter() - start) < 900


# -- criterion 6: importance-guided adaptation beats its ablations ---------

def test_criterion_6_adaptation_trend(trend_runs):
    runs, _ = trend_runs
    accs = {mode: [] for mode in ("importance", "random", "inverse")}
    for run in runs:
        for mode in accs:
            accs[mode].append(D.evaluate_accuracy(_adapt(run, mode), run.eval))
    assert np.mean(accs["importance"]) >= np.mean(accs["random"])
    wins = sum(imp > inv for imp, inv in
               zip(accs["importance"], accs["inverse"]))
    assert wins >= 4, f"importance beat inverse in only {wins}/5 seeds: {accs}"


# -- criterion 7: accuracy is robust to the routing strategy ---------------

def test_criterion_7_routing_robustness(trend_runs):
    runs, _ = trend_runs
    means = {}
    for routing in ("hash_random", "hash_balanced", "gate"):
        finals = []
        for run in runs:
            student = _adapt(run, routing=routing)
            D.train_student(student, run.teacher, run.train,
                            train_cfg(lambda_distill=1.0, epochs=1,
                                      learning_rate=5e-4, seed=run.seed))
            finals.append(D.evaluate_accuracy(student, run.eval))
            if routing == "hash_balanced":
                loads = routing_loads(student.layers[0].routing.table,
                                      run.vocab.freqs, 4)
                assert np.all(np.abs(loads - 0.25) <= 0.025), loads
        means[routing] = np.mean(finals)
    spread = max(means.values()) - min(means.values())
    assert spread <= 0.03, f"routing spread {spread:.4f}: {means}"


# -- criterion 8: the sparse FFN is cheaper on paper and on the clock ------

def test_criterion_8_inference_economics():
    base = dict(vocab_size=500, embed_dim=256, ffn_hidden=2048, num_layers=2,
                num_heads=4, max_seq_len=128, num_labels=2)
    dense_cfg = ModelConfig(**base)
    dense_ffn = cost(dense_cfg, 128)["flops_per_token"]["ffn"]
    for n in (2, 4, 8):
        cfg = ModelConfig(**base, moe=MoEConfig(n, 2048 // n, 0, "hash_random"))
        assert cost(cfg, 128)["flops_per_token"]["ffn"] * n == dense_ffn
    fixed = [cost(ModelConfig(**base, moe=MoEConfig(n, 512, 0, "hash_random")),
                  128)["flops_per_token"]["ffn"] for n in (2, 4, 8)]
    assert fixed[0] == fixed[1] == fixed[2]

    task = gen_synthetic_task(0, n_examples=10, n_classes=2, vocab_size=200)
    vocab = build_vocab(task.corpus)
    data = encode_dataset(task.eval, vocab, 128, 2)
    base["vocab_size"] = vocab.size
    teacher = EncoderModel(ModelConfig(**base), seed=0)
    rng = np.random.default_rng(0)
    table = ImportanceTable(
        {l: rng.permutation(2048).astype(float) for l in range(2)}, 1)
    student = adapt_model(teacher, table, MoEConfig(4, 512, 0, "hash_random"),
                          vocab.freqs, seed=0)
    dense_eps = bench_inference(teacher, data, repeats=5)["examples_per_second"]
    moe_eps = bench_inference(student, data, repeats=5)["examples_per_second"]
    assert moe_eps > dense_eps, f"moe {moe_eps:.1f} <= dense {dense_eps:.1f}"


# -- criterion 9: deterministic pipeline, faithful persistence -------------

def test_criterion_9_determinism_and_persistence(tmp_path):
    cfg = {
        "model": {"embed_dim": 32, "ffn_hidden": 64, "num_layers": 2,
                  "num_heads": 4, "max_seq_len": 24},
        "teacher_train": {"epochs": 4, "batch_size": 16, "learning_rate": 1e-3},
        "student_train": {"epochs": 2, "batch_size": 16, "learning_rate": 1e-3,
                          "lambda_distill": 1.0, "layer_set": "all"},
        "data": {"synthetic": {"n_examples": 150, "n_classes": 2,
                               "vocab_size": 100}},
        "routing": "hash_balanced",
        "adaptation": "importance",
        "num_experts": 4,
        "shared_dim": 4,
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["pipeline", "--config", str(cfg_path),
                     "--repeats", "1"]) == 0
    metrics = (tmp_path / "out" / "metrics.jsonl").read_bytes()
    assert cli.main(["pipeline", "--config", str(cfg_path),
                     "--repeats", "1"]) == 0
    assert (tmp_path / "out" / "metrics.jsonl").read_bytes() == metrics

    model = load_checkpoint(str(tmp_path / "out" / "student.ckpt"))
    rng = np.random.default_rng(0)
    ids = rng.integers(3, 50, size=(8, 12))
    mask = np.ones((8, 12))
    with T.no_grad():
        before, _ = model.forward(ids, mask)
        save_checkpoint(model, str(tmp_path / "round.ckpt"))
        after, _ = load_checkpoint(str(tmp_path / "round.ckpt")).forward(ids, mask)
    gap = np.max(np.abs(before.data - after.data))
    assert gap <= 1e-5, f"round-trip logit deviation {gap:.3e}"
