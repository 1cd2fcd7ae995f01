"""The three workloads. Each builds its inputs from the seed, runs whole rounds
of the same operations, reports its end-to-end metrics from per-round
timings, and checks the program's outputs after the timed rounds.

Every workload reports the same end-to-end metrics: ``round_s`` and the
examples/s of the dense teacher, the ``hash_balanced`` student and the
``gate`` student. On pipeline-readme those are training throughputs; on the
serve workloads, inference throughputs. Figures that exist on one workload
only (stage times, importance examples/s, p95 latencies) are ``details``.

A workload object has ``setup()``, ``run_round(tracer)``, ``end_to_end()``,
``details()`` and ``check()``; ``attempted`` and ``failed`` count its
operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from statistics import median

import numpy as np

import checks
import reference

# The README config; ``seed`` and ``out_dir`` are filled in per run.
README_CONFIG = {
    "model": {"embed_dim": 32, "ffn_hidden": 64, "num_layers": 2,
              "num_heads": 4, "max_seq_len": 24},
    "teacher_train": {"epochs": 8, "batch_size": 16, "learning_rate": 1e-3},
    "student_train": {"epochs": 2, "batch_size": 16, "learning_rate": 1e-3,
                      "lambda_distill": 1.0, "layer_set": "all"},
    "data": {"synthetic": {"n_examples": 480, "n_classes": 4, "vocab_size": 150}},
    "routing": "hash_balanced",
    "adaptation": "importance",
    "num_experts": 4,
    "shared_dim": 8,
}
STAGES = ("stage_train_teacher", "stage_importance", "stage_adapt",
          "stage_distill", "stage_eval", "stage_bench")
IMPORTANCE_PAIRS_PER_LAYER = 4


class PipelineReadme:
    """``moedistill pipeline`` on the README config, through ``cli.main``,
    then the same teacher adapted and distilled with ``--routing gate``
    through the staged ``adapt`` and ``distill`` commands."""

    def __init__(self, program, seed: int, workdir: str):
        self.p, self.seed, self.workdir = program, seed, workdir
        self.attempted = self.failed = 0
        self.rounds: list[dict] = []
        self.student_digests: list[str] = []
        self.saved_student = None

    def setup(self):
        self.out = os.path.join(self.workdir, "out")
        self.out_gate = os.path.join(self.workdir, "out_gate")
        self.cfg_path = os.path.join(self.workdir, "run.json")
        cfg = dict(README_CONFIG, seed=self.seed, out_dir=self.out)
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        syn = README_CONFIG["data"]["synthetic"]
        self.task = self.p.data.gen_synthetic_task(self.seed, **syn)
        self.n_train = len(self.task.train)

    @contextlib.contextmanager
    def _stage_timers(self, times: dict):
        """Time the six stage functions where ``run_pipeline`` looks them up,
        and keep the in-memory student that ``stage_distill`` saves."""
        pl = self.p.pipeline
        originals = {name: getattr(pl, name) for name in STAGES + ("save_checkpoint",)}

        def timed(name, fn):
            def run(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times[name] = times.get(name, 0.0) + time.perf_counter() - start
            return run

        def save(model, path, *args, **kwargs):
            if os.path.abspath(path) == os.path.abspath(os.path.join(self.out, "student.ckpt")):
                self.saved_student = model
            return originals["save_checkpoint"](model, path, *args, **kwargs)

        for name in STAGES:
            setattr(pl, name, timed(name, originals[name]))
        pl.save_checkpoint = save
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(pl, name, fn)

    def _cli(self, tracer, argv: list[str], times: dict, stdout) -> bool:
        self.attempted += 1
        span = tracer.span(f"bench.{argv[0]}") if tracer else contextlib.nullcontext()
        with self._stage_timers(times), contextlib.redirect_stdout(stdout), span:
            code = self.p.cli.main(argv + ["--config", self.cfg_path])
        if code != 0:
            self.failed += 1
        return code == 0

    def run_round(self, tracer):
        times: dict[str, float] = {}
        stdout = io.StringIO()
        start = time.perf_counter()
        ok = self._cli(tracer, ["pipeline"], times, stdout)
        total = time.perf_counter() - start
        if ok:
            self.reported = json.loads(stdout.getvalue().strip().splitlines()[-1])
            with open(os.path.join(self.out, "student.ckpt"), "rb") as fh:
                self.student_digests.append(hashlib.sha256(fh.read()).hexdigest())
        # the gate variant starts from this round's teacher and importance table
        shutil.rmtree(self.out_gate, ignore_errors=True)
        os.makedirs(self.out_gate)
        for name in ("teacher.ckpt", "importance.json", "vocab.json"):
            if os.path.exists(os.path.join(self.out, name)):
                shutil.copy(os.path.join(self.out, name), self.out_gate)
        gate: dict[str, float] = {}
        for cmd in ("adapt", "distill"):
            ok = self._cli(tracer, [cmd, "--out", self.out_gate, "--routing", "gate"],
                           gate, stdout) and ok
        if ok:
            self.rounds.append({"pipeline_s": total, **times,
                                "gate_distill": gate["stage_distill"]})

    def end_to_end(self) -> dict:
        t = README_CONFIG["teacher_train"]["epochs"] * self.n_train
        s = README_CONFIG["student_train"]["epochs"] * self.n_train
        r = self.rounds
        return {
            "round_s": (median([x["pipeline_s"] for x in r]), "s"),
            "dense_eps": (median([t / x["stage_train_teacher"] for x in r]), "examples/s"),
            "moe_hash_eps": (median([s / x["stage_distill"] for x in r]), "examples/s"),
            "moe_gate_eps": (median([s / x["gate_distill"] for x in r]), "examples/s"),
        }

    def details(self) -> dict:
        r = self.rounds
        out = {f"{k}_s": median([x[k] for x in r]) for k in STAGES}
        out["importance_eps"] = median([self.n_train / x["stage_importance"] for x in r])
        return out

    def checkpoint_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(d, f)) for d in (self.out, self.out_gate)
                   for f in os.listdir(d) if f.endswith(".ckpt"))

    def check(self) -> list[str]:
        if not self.rounds:
            return ["pipeline: no round completed"]
        failures = []
        if len(set(self.student_digests)) != 1:
            failures.append("pipeline: rounds on one seed wrote different student.ckpt")
        teacher = reference.read_checkpoint(os.path.join(self.out, "teacher.ckpt"))
        init = reference.read_checkpoint(os.path.join(self.out, "student_init.ckpt"))
        student = reference.read_checkpoint(os.path.join(self.out, "student.ckpt"))
        with open(os.path.join(self.out, "importance.json"), encoding="utf-8") as fh:
            scores = {int(l): np.asarray(v) for l, v in json.load(fh).items()}
        with open(os.path.join(self.out, "vocab.json"), encoding="utf-8") as fh:
            token_to_id = {t: v[0] for t, v in json.load(fh).items()}
        max_len = README_CONFIG["model"]["max_seq_len"]

        # importance: scores are sum_i |dL_i/d eps| on the train split
        texts, labels = zip(*self.task.train)
        ids, mask = reference.tokenize(list(texts), token_to_id, max_len)
        rng = np.random.default_rng(self.seed)
        d_h = README_CONFIG["model"]["ffn_hidden"]
        pairs = [(l, int(j)) for l in sorted(scores)
                 for j in rng.choice(d_h, IMPORTANCE_PAIRS_PER_LAYER, replace=False)]
        failures += checks.check_importance(teacher, scores, ids, mask, np.asarray(labels),
                                            pairs)

        # adaptation: experts are the teacher FFN restricted to their columns
        gate_init = reference.read_checkpoint(os.path.join(self.out_gate, "student_init.ckpt"))
        for w in (init, gate_init):
            failures += checks.check_adaptation(teacher, w, scores,
                                                README_CONFIG["num_experts"],
                                                README_CONFIG["shared_dim"])

        # training: the teacher beats a constant predictor on the eval split and
        # each distilled student keeps the teacher's accuracy
        texts, labels = zip(*self.task.eval)
        labels = np.asarray(labels)
        ids, mask = reference.tokenize(list(texts), token_to_id, max_len)
        gate = reference.read_checkpoint(os.path.join(self.out_gate, "student.ckpt"))
        acc = {name: checks.accuracy(reference.forward(w, ids, mask), labels)
               for name, w in (("teacher", teacher), ("student", student), ("gate", gate))}
        failures += checks.check_accuracy("teacher accuracy", acc["teacher"],
                                          checks.constant_predictor_accuracy(labels),
                                          self.reported["teacher_acc"], len(labels))
        floor = acc["teacher"] - checks.STUDENT_ACCURACY_SLACK
        failures += checks.check_accuracy("student accuracy", acc["student"], floor,
                                          self.reported["student_acc"], len(labels))
        failures += checks.check_accuracy("gate student accuracy", acc["gate"], floor,
                                          None, len(labels))

        # checkpoint: the trained in-memory student vs its saved file
        loaded = self.p.checkpoint.load_checkpoint(os.path.join(self.out, "student.ckpt"))
        want = reference.forward(checks.weights_of(self.saved_student), ids, mask)
        with self.p.tensor.no_grad():
            got = loaded.forward(ids, mask)[0].data
        failures += checks.check_logits("student checkpoint round trip", got, want,
                                        checks.roundtrip_tolerance(want))
        return failures


class Serve:
    """Inference of a seeded dense teacher and two students adapted from it
    (``hash_balanced`` and ``gate``) on seeded synthetic sentences."""

    MODELS = ("dense", "moe_hash", "moe_gate")

    def __init__(self, program, seed: int, workdir: str, *, task: dict, model: dict,
                 shared_dim: int, batch_size: int):
        self.p, self.seed = program, seed
        self.task_spec, self.model_spec = task, model
        self.shared_dim, self.batch_size = shared_dim, batch_size
        self.attempted = self.failed = 0
        self.round_times: dict[str, list[float]] = {m: [] for m in self.MODELS}
        self.latencies: dict[str, list[float]] = {m: [] for m in self.MODELS}
        self.logits: dict[str, list[np.ndarray]] = {}

    def setup(self):
        p = self.p
        task = p.data.gen_synthetic_task(self.seed, **self.task_spec)
        vocab = p.data.build_vocab(task.corpus)
        max_len = self.model_spec["max_seq_len"]
        evalset = p.data.encode_dataset(task.eval, vocab, max_len, task.n_classes)
        ex = evalset.examples
        self.batches = [p.data.pad_batch(ex[i:i + self.batch_size])
                        for i in range(0, len(ex), self.batch_size)]
        cfg = p.model.ModelConfig(vocab_size=vocab.size, num_labels=task.n_classes,
                                  **self.model_spec)
        teacher = p.model.EncoderModel(cfg, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        d_h, n = cfg.ffn_hidden, README_CONFIG["num_experts"]
        table = p.importance.ImportanceTable(
            {l: rng.random(d_h) for l in range(cfg.num_layers)}, len(ex))
        self.models = {"dense": teacher}
        for name, routing in (("moe_hash", "hash_balanced"), ("moe_gate", "gate")):
            moe = p.model.MoEConfig(n, d_h // n, self.shared_dim, routing)
            self.models[name] = p.pipeline.adapt_model(teacher, table, moe, vocab.freqs,
                                                       seed=self.seed)
        # one short forward per model so lazy initialisation is not timed
        ids, mask, _ = p.data.pad_batch(ex[:1])
        with p.tensor.no_grad():
            for m in self.models.values():
                m.forward(ids, mask)

    def run_round(self, tracer):
        spent = dict.fromkeys(self.MODELS, 0.0)
        outputs = {m: [] for m in self.MODELS}
        with self.p.tensor.no_grad():
            for ids, mask, _ in self.batches:
                for name in self.MODELS:
                    model = self.models[name]
                    self.attempted += 1
                    span = (tracer.span(f"bench.forward.{name}") if tracer
                            else contextlib.nullcontext())
                    try:
                        with span:
                            start = time.perf_counter()
                            logits = model.forward(ids, mask)[0].data
                            dt = time.perf_counter() - start
                    except Exception:  # counted as a failed operation
                        self.failed += 1
                        continue
                    spent[name] += dt
                    self.latencies[name].append(dt)
                    outputs[name].append(logits)
        for name in self.MODELS:
            self.round_times[name].append(spent[name])
        self.logits = outputs

    def examples_per_round(self) -> int:
        return sum(len(ids) for ids, _, _ in self.batches)

    def end_to_end(self) -> dict:
        n = self.examples_per_round()
        out = {f"{m}_eps": (median([n / t for t in self.round_times[m]]), "examples/s")
               for m in self.MODELS}
        out["round_s"] = (median([sum(ts) for ts in zip(*self.round_times.values())]), "s")
        return out

    def details(self) -> dict:
        """Per-call latency percentiles (one call = one batch) and sample counts."""
        out = {}
        for m in self.MODELS:
            lat = self.latencies[m]
            out[f"{m}_calls"] = len(lat)
            out[f"{m}_p50_ms"] = 1e3 * float(np.percentile(lat, 50))
            if len(lat) >= 200:  # at least ten samples beyond the 95th percentile
                out[f"{m}_p95_ms"] = 1e3 * float(np.percentile(lat, 95))
        return out

    def check(self) -> list[str]:
        failures = []
        for name in self.MODELS:
            got = self.logits.get(name, [])
            if len(got) != len(self.batches):
                failures.append(f"{name}: {len(got)} of {len(self.batches)} batches ran")
                continue
            w = checks.weights_of(self.models[name])
            for k, (ids, mask, _) in enumerate(self.batches):
                failures += checks.check_logits(f"{name} batch {k}", got[k],
                                                reference.forward(w, ids, mask),
                                                checks.SERVE_LOGIT_TOL)
        return failures


def serve_b1_small(program, seed, workdir):
    return Serve(program, seed, workdir,
                 task=dict(README_CONFIG["data"]["synthetic"]),
                 model=dict(README_CONFIG["model"]),
                 shared_dim=README_CONFIG["shared_dim"], batch_size=1)


def serve_b32_wide(program, seed, workdir):
    return Serve(program, seed, workdir,
                 task=dict(n_examples=128, n_classes=2, vocab_size=200,
                           min_len=47, max_len=126, eval_fraction=0.25),
                 model=dict(embed_dim=256, ffn_hidden=2048, num_layers=2,
                            num_heads=4, max_seq_len=128),
                 shared_dim=0, batch_size=32)


WORKLOADS = {
    "pipeline-readme": PipelineReadme,
    "serve-b1-small": serve_b1_small,
    "serve-b32-wide": serve_b32_wide,
}
