"""Self-test of the benchmark's correctness checks.

    python3 moebench/selftest.py

Each check must pass on the program's real output and fail on a deliberately
wrong one: a perturbed weight, a swapped expert, a flipped gate, a scaled
importance score, a wrong accuracy, a corrupted checkpoint. Prints one line
per case and exits non-zero if any check accepts a wrong output or rejects a
right one. Small models keep it to a few seconds.
"""

import os
import shutil
import sys

import run  # pins the BLAS threads before numpy loads

import numpy as np

import checks
import reference

FAILURES = []


def expect(case: str, failures: list[str], should_fail: bool):
    ok = bool(failures) == should_fail
    verdict = "rejects" if failures else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {case}: check {verdict}")
    if not ok:
        FAILURES.append(case)


def perturbed(w: reference.Weights, name: str, delta: float, index=(0, 0)) -> reference.Weights:
    params = dict(w.params)
    params[name] = w.params[name].copy()
    params[name][index] += delta
    return reference.Weights(params, w.config, w.routing, w.provenance)


def swapped_experts(w: reference.Weights, layer: int, a: int, b: int) -> reference.Weights:
    params = dict(w.params)
    for part in ("w1", "b1", "w2", "b2"):
        ka, kb = f"layer{layer}.expert{a}.{part}", f"layer{layer}.expert{b}.{part}"
        params[ka], params[kb] = w.params[kb], w.params[ka]
    return reference.Weights(params, w.config, w.routing, w.provenance)


def main() -> int:
    p = run.load_program()
    workdir = os.path.join(run.HERE, "out", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        task = p.data.gen_synthetic_task(0, n_examples=120, n_classes=3, vocab_size=80)
        vocab = p.data.build_vocab(task.corpus)
        train = p.data.encode_dataset(task.train, vocab, 16, 3)
        cfg = p.model.ModelConfig(vocab_size=vocab.size, embed_dim=16, ffn_hidden=32,
                                  num_layers=2, num_heads=4, max_seq_len=16, num_labels=3)
        teacher = p.model.EncoderModel(cfg, seed=0)
        p.distill.train_teacher(teacher, train, p.distill.DistillConfig(
            epochs=3, batch_size=16, learning_rate=3e-3))
        texts, labels = zip(*task.train)
        labels = np.asarray(labels)
        ids, mask = reference.tokenize(list(texts), vocab.token_to_id, 16)

        # serve: program logits vs the reference forward
        table = p.importance.accumulate_importance(teacher, train)
        students = {r: p.pipeline.adapt_model(teacher, table, p.model.MoEConfig(4, 8, 2, r),
                                              vocab.freqs, seed=0)
                    for r in ("hash_balanced", "gate")}
        for name, model in (("dense", teacher), *students.items()):
            w = checks.weights_of(model)
            with p.tensor.no_grad():
                got = model.forward(ids, mask)[0].data
            tol = checks.SERVE_LOGIT_TOL
            expect(f"serve {name}: true logits",
                   checks.check_logits(name, got, reference.forward(w, ids, mask), tol), False)
            weight = "layer0.ffn_w1" if name == "dense" else "layer0.expert0.w1"
            expect(f"serve {name}: perturbed weight", checks.check_logits(
                name, got, reference.forward(perturbed(w, weight, 1e-3), ids, mask), tol), True)
            if name == "dense":
                continue
            expect(f"serve {name}: swapped experts", checks.check_logits(
                name, got, reference.forward(swapped_experts(w, 0, 0, 1), ids, mask), tol), True)
        gate = checks.weights_of(students["gate"])
        flipped = [dict(r, gate_w=-r["gate_w"]) for r in gate.routing]
        with p.tensor.no_grad():
            got = students["gate"].forward(ids, mask)[0].data
        expect("serve gate: flipped gate choice", checks.check_logits(
            "gate", got, reference.forward(reference.Weights(
                gate.params, gate.config, flipped, gate.provenance), ids, mask),
            checks.SERVE_LOGIT_TOL), True)

        # importance: program scores vs central differences; checkpoints as the
        # pipeline writes them
        t_path = os.path.join(workdir, "teacher.ckpt")
        p.checkpoint.save_checkpoint(teacher, t_path)
        t_file = reference.read_checkpoint(t_path)
        scores = p.importance.accumulate_importance(
            p.checkpoint.load_checkpoint(t_path), train).scores
        pairs = [(0, 3), (1, 17), (1, 30)]
        expect("importance: true scores",
               checks.check_importance(t_file, scores, ids, mask, labels, pairs), False)
        scaled = {l: s * 1.001 for l, s in scores.items()}
        expect("importance: scores scaled by 1.001",
               checks.check_importance(t_file, scaled, ids, mask, labels, pairs), True)

        # adaptation: experts are the teacher FFN restricted to their columns
        loaded_teacher = p.checkpoint.load_checkpoint(t_path)
        s_path = os.path.join(workdir, "student_init.ckpt")
        imp = p.importance.ImportanceTable(scores, len(train))
        student = p.pipeline.adapt_model(loaded_teacher, imp,
                                         p.model.MoEConfig(4, 8, 2, "hash_balanced"),
                                         vocab.freqs, seed=0)
        p.checkpoint.save_checkpoint(student, s_path)
        s_file = reference.read_checkpoint(s_path)
        expect("adaptation: true experts",
               checks.check_adaptation(t_file, s_file, scores, 4, 2), False)
        expect("adaptation: swapped experts", checks.check_adaptation(
            t_file, swapped_experts(s_file, 1, 1, 2), scores, 4, 2), True)
        expect("adaptation: perturbed expert weight", checks.check_adaptation(
            t_file, perturbed(s_file, "layer0.expert3.b1", 1e-3, 0), scores, 4, 2), True)
        expect("adaptation: ranking from other scores", checks.check_adaptation(
            t_file, s_file, {l: -s for l, s in scores.items()}, 4, 2), True)

        # accuracy: reference accuracy vs a floor and vs the reported value
        onehot = np.eye(3)[labels]
        floor = checks.constant_predictor_accuracy(labels)
        n = len(labels)
        perfect = checks.accuracy(onehot, labels)
        expect("accuracy: perfect logits",
               checks.check_accuracy("a", perfect, floor, 1.0, n), False)
        expect("accuracy: rotated labels", checks.check_accuracy(
            "a", checks.accuracy(np.roll(onehot, 1, axis=1), labels), floor, None, n), True)
        expect("accuracy: constant answer", checks.check_accuracy(
            "a", checks.accuracy(np.tile(onehot[0], (n, 1)), labels), floor, None, n), True)
        expect("accuracy: misreported", checks.check_accuracy("a", perfect, floor, 0.5, n), True)

        # checkpoint round trip: the trained float64 teacher vs its saved file
        want = reference.forward(checks.weights_of(teacher), ids, mask)
        loaded = p.checkpoint.load_checkpoint(t_path)
        with p.tensor.no_grad():
            got = loaded.forward(ids, mask)[0].data
        tol = checks.roundtrip_tolerance(want)
        expect("checkpoint: true round trip", checks.check_logits("rt", got, want, tol), False)
        loaded.cls_w.data[0, 0] += 0.05
        with p.tensor.no_grad():
            got = loaded.forward(ids, mask)[0].data
        expect("checkpoint: perturbed loaded weight",
               checks.check_logits("rt", got, want, tol), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} self-test case(s) failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
