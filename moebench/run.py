"""moedistill benchmark: one workload, one seed, one JSON result line.

    python3 moebench/run.py --workload pipeline-readme --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/`` directory. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
See moebench/README.md.
"""

import os

# Pinned before numpy loads: one BLAS thread keeps every run on one core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODULES = ("cli", "checkpoint", "data", "distill", "importance", "model", "moe",
           "pipeline", "tensor")


def process_age_s() -> float:
    """Seconds since this process started (Linux; 0 where unavailable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return max(0.0, now - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, AttributeError):
        return 0.0


def load_program():
    """Import moedistill from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "moedistill", "__init__.py")):
        raise SystemExit(f"moebench: no program source at {src}")
    sys.path.insert(0, src)
    pkg = importlib.import_module("moedistill")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != src:
        raise SystemExit(f"moebench: moedistill imported from {pkg.__file__}, not {src}")
    for name in MODULES:  # importing a submodule binds it on the package
        importlib.import_module(f"moedistill.{name}")
    return pkg


def run_rounds(workload, seconds: float) -> list[float]:
    """Whole untraced rounds until the next one would end past ``seconds``."""
    times = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        workload.run_round(None)
        times.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(times) > seconds:
            return times


def run_paired_rounds(workload, seconds: float, tracer) -> tuple[list[float], list[float]]:
    """Pairs of one untraced and one traced round, their order swapped from
    pair to pair so that drift in machine speed hits both sides alike; whole
    pairs until the next one would end past ``seconds``."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        for traced_round in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if traced_round:
                tracer.install()
            try:
                t = time.perf_counter()
                workload.run_round(tracer if traced_round else None)
                (traced if traced_round else untraced).append(time.perf_counter() - t)
            finally:
                if traced_round:
                    tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            return untraced, traced


def per_layer(tracer, setup_snap: dict, rounds_n: int, workload, overhead: dict) -> dict:
    """Per-layer metrics: one set-up's share plus the mean of a traced round."""
    ids = {n: i for i, n in enumerate(tracer.names)}
    end = tracer.snapshot()

    def total(kind, name):
        i = ids.get(name)
        if i is None:
            return 0.0
        before = setup_snap[kind][i] if i < len(setup_snap[kind]) else 0
        return before + (end[kind][i] - before) / rounds_n

    def incl(name):
        return total("incl", name)

    def self_(name):
        return total("self", name)

    def calls(name):
        return total("calls", name)

    def ratio(num, den):
        return num / den if den else 0.0

    def in_rounds(key, sub=None):
        if sub is None:
            return end[key] - setup_snap[key]
        return end[key][sub] - setup_snap[key][sub]

    moe_calls = in_rounds("calls", ids["moe.moe_forward"])  # a watched name: always known
    m = {}
    m["tensor.ops"] = (ratio(in_rounds("nested_ops", "model.EncoderModel.forward"),
                             in_rounds("forward_rows")), "count")
    m["moe.dispatch_ops"] = (ratio(in_rounds("nested_ops", "moe.moe_forward"), moe_calls),
                             "count")
    for op in ("gelu", "matmul", "add", "layernorm", "softmax", "take", "scatter_rows"):
        m[f"tensor.{op}_s"] = (self_(f"tensor.{op}"), "s")
    m["tensor.backward_s"] = (self_("tensor.Tensor.backward"), "s")
    m["tensor.backward_calls"] = (calls("tensor.Tensor.backward"), "count")
    m["model.forward_s"] = (incl("model.EncoderModel.forward"), "s")
    m["model.attention_s"] = (incl("model.EncoderLayer.forward") - incl("model.ffn_forward")
                              - incl("moe.moe_forward"), "s")
    m["model.ffn_forward_s"] = (incl("model.ffn_forward"), "s")
    m["moe.moe_forward_s"] = (incl("moe.moe_forward"), "s")
    m["moe.adapt_ffn_s"] = (incl("moe.adapt_ffn"), "s")
    m["moe.build_routing_s"] = (incl("moe.build_routing"), "s")
    m["importance.accumulate_s"] = (incl("importance.accumulate_importance"), "s")
    m["importance.backward_passes"] = (in_rounds("importance_backward") / rounds_n, "count")
    m["distill.batch_loss_s"] = (incl("distill.distill_batch_loss"), "s")
    m["distill.adam_step_s"] = (incl("distill.Adam.step"), "s")
    m["distill.clip_s"] = (incl("distill.clip_gradients"), "s")
    m["distill.evaluate_s"] = (incl("distill.evaluate_accuracy"), "s")
    m["distill.steps"] = (calls("distill.Adam.step"), "count")
    m["data.prepare_s"] = (incl("pipeline.prepare_data"), "s")
    m["data.pad_batch_s"] = (incl("data.pad_batch"), "s")
    m["checkpoint.save_s"] = (incl("checkpoint.save_checkpoint"), "s")
    m["checkpoint.load_s"] = (incl("checkpoint.load_checkpoint"), "s")
    m["checkpoint.bytes"] = (float(workload.checkpoint_bytes())
                             if hasattr(workload, "checkpoint_bytes") else 0.0, "bytes")
    for stage in ("teacher", "importance", "adapt", "distill", "eval", "bench"):
        fn = "train_teacher" if stage == "teacher" else stage
        m[f"pipeline.stage_{stage}_s"] = (incl(f"pipeline.stage_{fn}"), "s")
    m["trace.overhead_s"] = (overhead["traced"] - overhead["untraced"], "s")
    m["trace.overhead_pct"] = (100.0 * ratio(overhead["traced"] - overhead["untraced"],
                                             overhead["untraced"]), "%")
    m["trace.rounds"] = (float(rounds_n), "count")
    m["trace.spans_per_round"] = ((len(tracer.span_name) + tracer.dropped
                                   - setup_snap["spans"]) / rounds_n, "count")
    return m


def main(argv=None) -> int:
    age_at_start = process_age_s()
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    program = load_program()
    sys.path.insert(0, HERE)
    from spans import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"moebench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")

    outdir = os.path.join(HERE, "out")
    workdir = os.path.join(outdir, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](program, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
            with tracer.span("bench.setup"):
                workload.setup()
            tracer.uninstall()
            setup_snap = tracer.snapshot()
            setup_snap["spans"] = len(tracer.span_name) + tracer.dropped
        else:
            workload.setup()
        setup_s = age_at_start + time.perf_counter() - t_start

        if tracer:
            untraced, traced = run_paired_rounds(workload, args.seconds, tracer)
            overhead = {"untraced": statistics.median(untraced),
                        "traced": statistics.median(traced)}
            metrics = per_layer(tracer, setup_snap, len(traced), workload, overhead)
        else:
            run_rounds(workload, args.seconds)
            metrics = dict(workload.end_to_end())
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            print("details: " + json.dumps(workload.details()), file=sys.stderr)

        failures = workload.check()
        for f in failures:
            print(f"CHECK FAILED: {f}", file=sys.stderr)
        if tracer:
            path = os.path.join(outdir, f"trace-{args.workload}.json.gz")
            tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                               "traced_rounds": len(traced), "overhead_s": overhead,
                               "metrics": {k: v for k, (v, _) in metrics.items()}})
            print(f"trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not failures, "attempted": workload.attempted,
              "failed": workload.failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
