import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from moedistill import cli
from moedistill import tensor as T
from moedistill.checkpoint import load_checkpoint
from moedistill.data import Dataset, Example, pad_batch
from moedistill.model import EncoderModel, ModelConfig
from moedistill.pipeline import RunConfig, bench_inference, prepare_data
from oracles import edit_header, rewrite_header

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


MODEL = {"embed_dim": 32, "ffn_hidden": 64, "num_layers": 2, "num_heads": 4,
         "max_seq_len": 24}


def write_config(tmp_path, **overrides):
    cfg = {
        "model": MODEL,
        "teacher_train": {"epochs": 4, "batch_size": 16, "learning_rate": 1e-3},
        "student_train": {"epochs": 2, "batch_size": 16, "learning_rate": 1e-3,
                          "lambda_distill": 1.0, "layer_set": "all"},
        "data": {"synthetic": {"n_examples": 150, "n_classes": 2,
                               "vocab_size": 100}},
        "routing": "hash_random",
        "adaptation": "importance",
        "num_experts": 4,
        "shared_dim": 4,
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestErrors:
    def test_missing_config(self, tmp_path, capsys):
        rc = cli.main(["pipeline", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_unknown_config_key(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"bogus": 1}))
        assert cli.main(["eval", "--config", str(p)]) == 1
        assert "bogus" in json.loads(capsys.readouterr().err)["message"]

    def test_unknown_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["pipeline", "--config", "x", "--frobnicate"])

    def test_negative_tsv_label(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text("good movie\t1\nbad movie\t-1\n")
        evals = tmp_path / "eval.tsv"
        evals.write_text("good film\t1\n")
        cfg = write_config(tmp_path, data={"train_tsv": str(train),
                                           "eval_tsv": str(evals)})
        assert cli.main(["train-teacher", "--config", cfg]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataError"
        assert f"{train}:2:" in err["message"]

    @pytest.mark.parametrize("command", ["train-teacher", "pipeline"])
    @pytest.mark.parametrize("split,has_header,text", [
        ("eval", False, ""), ("eval", False, "\n\n"), ("eval", True, "text\tlabel\n"),
        ("train", False, ""), ("train", False, "\t1\n\t0\n")])
    def test_empty_tsv_split(self, tmp_path, capsys, command, split, has_header, text):
        header = "text\tlabel\n" if has_header else ""
        data = {"has_header": has_header}
        for name in ("train", "eval"):
            path = tmp_path / f"{name}.tsv"
            path.write_text(text if name == split else header + "good movie\t1\nbad film\t0\n")
            data[f"{name}_tsv"] = str(path)
        cfg = write_config(tmp_path, data=data)
        assert cli.main([command, "--config", cfg]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataError"
        # lines whose texts are all empty are examples, but give the vocabulary no token
        missing = "tokens" if text.startswith("\t") else "examples"
        assert err["message"] == f"{data[split + '_tsv']}: the {split} split has no {missing}"

    def test_nonfinite_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, teacher_train={"epochs": 1, "batch_size": 16,
                                                    "learning_rate": 1e300})
        with np.errstate(all="ignore"):
            assert cli.main(["train-teacher", "--config", cfg]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NonFiniteError"

    def test_nonfinite_value_stderr_is_one_json_line(self, tmp_path):
        cfg = write_config(tmp_path, teacher_train={"epochs": 1, "batch_size": 16,
                                                    "learning_rate": 1e300})
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "moedistill.cli", "train-teacher",
                               "--config", cfg], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "NonFiniteError"

    @pytest.mark.parametrize("error,field,overrides,flags", [
        ("ConfigError", "num_experts", {"num_experts": 0}, []),
        ("ConfigError", "num_experts", {}, ["--num-experts", "0"]),
        ("ConfigError", "shared_dim", {"shared_dim": -1}, []),
        ("ConfigError", "shared_dim", {}, ["--shared-dim", "-1"]),
        ("ConfigError", "bogus", {"model": {**MODEL, "bogus": 1}}, []),
        ("ConfigError", "embed_dim", {"model": {**MODEL, "embed_dim": 30}}, []),
        ("ConfigError", "teacher_train", {"teacher_train": {"epochs": 1, "bogus": 1}}, []),
        ("ConfigError", "layer_set", {"student_train": {"layer_set": "x"}}, []),
        ("ConfigError", "batch_size", {"teacher_train": {"batch_size": 0}}, []),
        ("ConfigError", "seed", {"seed": "a"}, []),
        ("ConfigError", "expert_dim", {"model": {**MODEL, "ffn_hidden": 32}, "num_experts": 64},
         []),
        ("ConfigError", "shared_dim", {"model": {**MODEL, "ffn_hidden": 32}, "shared_dim": 9},
         []),
        ("ConfigError", "routing", {"routing": "bogus"}, []),
        ("ConfigError", "adaptation", {"adaptation": "bogus"}, []),
        ("ConfigError", "bogus", {"data": {"synthetic": {"n_examples": 150, "bogus": 1}}}, []),
        ("ConfigError", "eval_tsv", {"data": {"train_tsv": "good.tsv"}}, []),
        ("ConfigError", "train_tsv", {"data": {"train_tsv": 0, "eval_tsv": "good.tsv"}}, []),
        ("ConfigError", "bogus", {"data": {"synthetic": {}, "bogus": 1}}, []),
        ("ConfigError", "min_freq", {"data": {"synthetic": {}, "min_freq": "a"}}, []),
        ("ConfigError", "has_header", {"data": {"synthetic": {}, "has_header": "false"}}, []),
        ("ConfigError", "vocab_size", {"model": {**MODEL, "vocab_size": 7}}, []),
        ("ConfigError", "num_labels", {"model": {**MODEL, "num_labels": 2}}, []),
        ("ConfigError", "moe", {"model": {**MODEL, "moe": {"num_experts": 2}}}, []),
        ("DataError", "latin1.tsv", {"data": {"train_tsv": "latin1.tsv", "eval_tsv": "good.tsv"}},
         []),
        ("IsADirectoryError", "adir", {"data": {"train_tsv": "adir", "eval_tsv": "good.tsv"}}, []),
        ("FileExistsError", "afile", {"out_dir": "afile"}, []),
        ("ConfigError", "--repeats", {}, ["--repeats", "0"]),
        ("ConfigError", "--repeats", {}, ["--repeats", "-2"]),
        ("ConfigError", "learning_rate", {"teacher_train": {"learning_rate": "x"}}, []),
        ("ConfigError", "learning_rate", {"teacher_train": {"learning_rate": -1.0}}, []),
        ("ConfigError", "learning_rate", {"student_train": {"learning_rate": 0}}, []),
        ("ConfigError", "learning_rate", {"teacher_train": {"learning_rate": float("inf")}}, []),
        ("ConfigError", "grad_clip_norm", {"teacher_train": {"grad_clip_norm": "x"}}, []),
        ("ConfigError", "grad_clip_norm", {"student_train": {"grad_clip_norm": -1.0}}, []),
        ("ConfigError", "weight_decay", {"teacher_train": {"weight_decay": "x"}}, []),
        ("ConfigError", "weight_decay", {"teacher_train": {"weight_decay": -5.0}}, []),
        ("ConfigError", "weight_decay", {"student_train": {"weight_decay": float("nan")}}, []),
        ("DataError", "signal_per_class", {"data": {"synthetic": {"signal_per_class": 0}}}, []),
        ("DataError", "min_len", {"data": {"synthetic": {"min_len": 1, "max_len": 2}}}, []),
        ("DataError", "max_len", {"data": {"synthetic": {"min_len": 17, "max_len": 16}}}, []),
        ("DataError", "eval_fraction", {"data": {"synthetic": {"eval_fraction": -1}}}, []),
        ("DataError", "eval_fraction", {"data": {"synthetic": {"eval_fraction": 1}}}, []),
    ], ids=["zero-experts", "zero-experts-flag", "negative-shared", "negative-shared-flag",
            "model-unknown-key", "heads-not-dividing-embed-dim", "teacher-unknown-key",
            "unknown-layer-set", "zero-batch-size", "string-seed", "zero-width-experts",
            "shared-wider-than-expert", "unknown-routing", "unknown-adaptation",
            "synthetic-unknown-key", "tsv-without-eval-tsv", "tsv-path-not-a-string",
            "data-unknown-key", "string-min-freq", "string-has-header",
            "model-sets-vocab-size", "model-sets-num-labels", "model-sets-moe",
            "tsv-not-utf8", "tsv-is-a-directory", "out-dir-is-a-file", "zero-repeats",
            "negative-repeats", "string-learning-rate", "negative-learning-rate",
            "zero-learning-rate", "infinite-learning-rate", "string-grad-clip-norm",
            "negative-grad-clip-norm", "string-weight-decay", "negative-weight-decay",
            "nan-weight-decay", "zero-signal-per-class", "min-len-below-signal-tokens",
            "min-len-above-max-len", "negative-eval-fraction", "eval-fraction-one"])
    def test_bad_run_config_rejected_before_any_stage(self, tmp_path, capsys, monkeypatch,
                                                      error, field, overrides, flags):
        # the data files that rows name, relative to the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "good.tsv").write_text("good movie\t1\nbad movie\t0\n")
        (tmp_path / "latin1.tsv").write_bytes("caf\u00e9 movie\t1\n".encode("latin-1"))
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        cfg = write_config(tmp_path, **overrides)
        assert cli.main(["pipeline", "--config", cfg] + flags) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == error
        assert field in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", [b"5", b"null", b'{"seed": 1}\xff'],
                             ids=["number", "null", "not-utf8"])
    def test_config_file_not_a_json_object(self, tmp_path, capsys, raw):
        p = tmp_path / "cfg.json"
        p.write_bytes(raw)
        assert cli.main(["eval", "--config", str(p)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_bench_inference_rejects_repeats_below_one_before_any_pass(self, repeats,
                                                                       monkeypatch):
        model = EncoderModel(ModelConfig(vocab_size=10, embed_dim=4, ffn_hidden=8, num_layers=1,
                                         num_heads=2, max_seq_len=4))
        passes = []
        monkeypatch.setattr(model, "forward", lambda *args, **kwargs: passes.append(args))
        with pytest.raises(ValueError, match=r"^repeats must be >= 1$"):
            bench_inference(model, Dataset([Example(np.array([2, 5]), 0)], 2), repeats=repeats)
        assert passes == []

    def test_bench_inference_rejects_an_empty_dataset(self):
        model = EncoderModel(ModelConfig(vocab_size=10, embed_dim=4, ffn_hidden=8, num_layers=1,
                                         num_heads=2, max_seq_len=4))
        with pytest.raises(ValueError, match=r"^no examples to time$"):
            bench_inference(model, Dataset([], 2))

    def test_adapt_without_importance_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["train-teacher", "--config", cfg]) == 0
        rc = cli.main(["adapt", "--config", cfg])
        assert rc == 1
        msg = json.loads(capsys.readouterr().err)["message"]
        assert "importance" in msg


def set_entry(keys, value):
    """A header edit, checksum included, that sets the JSON entry reached by ``keys``
    to ``value``."""
    def edit(header):
        for key in keys[:-1]:
            header = header[key]
        header[keys[-1]] = value
    return edit_header(edit)


@pytest.fixture(scope="module")
def adapted_run(tmp_path_factory):
    """A config whose out dir holds a teacher, importance table and student_init."""
    root = tmp_path_factory.mktemp("adapted")
    cfg = write_config(root)
    for command in ["train-teacher", "importance", "adapt"]:
        assert cli.main([command, "--config", cfg]) == 0
    return cfg, root / "out"


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("corrupt,message", [
        (lambda p: rewrite_header(p, set_entry(["routing", 0, "table", 5], 7)),  # of 4 experts
         "routing table"),
        (lambda p: open(p, "wb").write(b"MOEB\x01"), "magic"),
        (lambda p: rewrite_header(p, lambda raw: b"{oops"), "JSON"),
        (lambda p: rewrite_header(p, set_entry(["provenance", 0, 1, 0], 999)),  # of 64 columns
         "provenance"),
    ], ids=["table-entry-out-of-range", "five-byte-file", "header-not-json",
            "provenance-out-of-range"])
    def test_eval_reports_one_checkpoint_error(self, adapted_run, tmp_path, capsys, corrupt,
                                               message):
        cfg, out = adapted_run
        shutil.copytree(out, tmp_path / "out")
        corrupt(str(tmp_path / "out" / "student_init.ckpt"))
        capsys.readouterr()
        rc = cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "out"),
                       "--which", "student_init"])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "CheckpointError" and message in err["message"]


class TestCorruptArtifacts:
    ROW = [1.0] * 64  # one layer's scores at the config's ffn_hidden

    @pytest.mark.parametrize("name,text,command,error", [
        ("importance.json", '{"0": [1.0, 2.0', "adapt", "ImportanceError"),
        ("importance.json", b'{"0": [1.0]}\xff', "adapt", "ImportanceError"),
        ("importance.json", "[1.0, 2.0]", "adapt", "ImportanceError"),
        ("importance.json", json.dumps({"0": ROW}), "adapt", "ImportanceError"),
        ("importance.json", json.dumps({"0": ["a"] * 64, "1": ROW}), "adapt", "ImportanceError"),
        ("importance.json", json.dumps({"0": [float("nan")] + ROW[1:], "1": ROW}), "adapt",
         "ImportanceError"),
        ("metrics.jsonl", '{"phase": "teacher"\n', "train-teacher", "ConfigError"),
        ("metrics.jsonl", "[1, 2]\n", "train-teacher", "ConfigError"),
    ], ids=["importance-truncated", "importance-not-utf8", "importance-list",
            "importance-missing-layer", "importance-string-score", "importance-nan-score",
            "metrics-not-json", "metrics-not-objects"])
    def test_stage_reports_one_json_error(self, adapted_run, tmp_path, capsys,
                                          name, text, command, error):
        cfg, out = adapted_run
        shutil.copytree(out, tmp_path / "out")
        (tmp_path / "out" / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        student_init = (tmp_path / "out" / "student_init.ckpt").read_bytes()
        capsys.readouterr()
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == error
        assert name.split(".")[0] in err["message"]
        assert (tmp_path / "out" / "student_init.ckpt").read_bytes() == student_init


class TestVocabularyMismatch:
    @pytest.mark.parametrize("vocab_size", [60, 400])
    def test_eval_of_teacher_from_other_data_is_config_error(self, tmp_path, capsys,
                                                             vocab_size):
        cfg = write_config(tmp_path)
        assert cli.main(["train-teacher", "--config", cfg]) == 0
        other = write_config(tmp_path, data={"synthetic": {
            "n_examples": 150, "n_classes": 2, "vocab_size": vocab_size}})
        capsys.readouterr()
        assert cli.main(["eval", "--config", other, "--which", "teacher"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert "teacher.ckpt" in err["message"] and "vocab_size" in err["message"]
        assert not (tmp_path / "out" / "eval_teacher.json").exists()

    def test_eval_of_teacher_with_other_max_seq_len_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={**MODEL, "max_seq_len": 10})
        assert cli.main(["train-teacher", "--config", cfg]) == 0
        other = write_config(tmp_path, model={**MODEL, "max_seq_len": 24})
        capsys.readouterr()
        assert cli.main(["eval", "--config", other, "--which", "teacher"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert "max_seq_len" in err["message"]
        assert ", 10)" in err["message"] and ", 24)" in err["message"]  # both values
        assert not (tmp_path / "out" / "eval_teacher.json").exists()


class TestStages:
    def test_staged_run_matches_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for command in ["train-teacher", "importance", "adapt", "distill",
                        "eval", "bench"]:
            extra = ["--repeats", "1"] if command == "bench" else []
            assert cli.main([command, "--config", cfg] + extra) == 0
        out = tmp_path / "out"
        for name in ["teacher.ckpt", "importance.json", "student_init.ckpt",
                     "student.ckpt", "vocab.json", "metrics.jsonl",
                     "eval_student.json", "bench.json"]:
            assert (out / name).exists()

    def test_eval_matches_manual_argmax_count(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["train-teacher", "--config", cfg_path]) == 0
        assert cli.main(["eval", "--config", cfg_path, "--which", "teacher"]) == 0
        reported = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

        run_cfg = RunConfig.from_json_file(cfg_path)
        data = prepare_data(run_cfg)
        model = load_checkpoint(os.path.join(run_cfg.out_dir, "teacher.ckpt"))
        correct = 0
        with T.no_grad():
            for ex in data.eval.examples:
                ids, mask, labels = pad_batch([ex])
                logits, _ = model.forward(ids, mask)
                correct += int(np.argmax(logits.data) == labels[0])
        assert reported["eval_acc"] == pytest.approx(correct / len(data.eval))


class TestPipelineDeterminism:
    def test_train_teacher_twice_keeps_one_run_of_records(self, tmp_path):
        cfg = write_config(tmp_path)
        metrics = tmp_path / "out" / "metrics.jsonl"
        assert cli.main(["train-teacher", "--config", cfg]) == 0
        single = metrics.read_bytes()
        assert single and all(json.loads(line)["phase"] == "teacher"
                              for line in single.decode().splitlines())
        assert cli.main(["train-teacher", "--config", cfg]) == 0
        assert metrics.read_bytes() == single

    def test_rerun_stage_keeps_other_phase_records(self, tmp_path):
        cfg = write_config(tmp_path)
        metrics = tmp_path / "out" / "metrics.jsonl"
        for command in ["train-teacher", "importance", "adapt", "distill"]:
            assert cli.main([command, "--config", cfg]) == 0
        both = metrics.read_text().splitlines()
        assert cli.main(["distill", "--config", cfg]) == 0
        assert metrics.read_text().splitlines() == both

    def test_byte_identical_metrics_across_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", cfg, "--repeats", "1"]) == 0
        first = (out / "metrics.jsonl").read_bytes()
        first_ckpt = (out / "student.ckpt").read_bytes()
        assert cli.main(["pipeline", "--config", cfg, "--repeats", "1"]) == 0
        assert (out / "metrics.jsonl").read_bytes() == first
        assert (out / "student.ckpt").read_bytes() == first_ckpt

    def test_seed_override_changes_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", cfg, "--repeats", "1"]) == 0
        first = (out / "metrics.jsonl").read_bytes()
        assert cli.main(["pipeline", "--config", cfg, "--seed", "99",
                         "--repeats", "1"]) == 0
        assert (out / "metrics.jsonl").read_bytes() != first


def test_runtime_imports_numpy_only():
    # scipy is a test dependency only (the dev extra); no program module may import it
    code = ("import importlib, pkgutil, sys, moedistill\n"
            "names = [m.name for m in pkgutil.iter_modules(moedistill.__path__)]\n"
            "assert 'cli' in names, names\n"
            "for name in names:\n"
            "    importlib.import_module('moedistill.' + name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
