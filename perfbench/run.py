"""mmbattn training benchmark: one workload, one process, one trainer.

Usage (from the repository root):

    python3 perfbench/run.py --workload planted --seed 1 --seconds 60 --trace 0

``--workload all`` runs every workload in turn, each in its own process.

The benchmark imports ``mmbattn`` from the repository's ``src`` directory
and drives its public API.  A run repeats *rounds* while the next one
fits in ``--seconds``.  A round is one whole workload run: set-up (ingest, vocab,
encode, ``model.build``), a fixed training budget through
``training.train``, evaluation, and a checkpoint save, load and restore.
Every round uses the same seed, so rounds must agree bit for bit.

With ``--trace 0`` every round is untraced and the end-to-end metrics are
printed.  With ``--trace 1`` untraced and traced rounds alternate; the
traced ones give the per-layer metrics and the gap between the two gives
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
STATE_FILE = BENCH_DIR / "_state" / "counts.json"

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("train_rows_per_s", "rows/s", "higher", 0.25),
    ("eval_rows_per_s", "rows/s", "higher", 0.25),
    ("cpu_s_per_1k_rows", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("valid_auc", "ratio", "higher", 0.02),
    ("valid_logloss", "nats", "lower", 0.12),
)

# name, unit, better
PER_LAYER = (
    ("data.read_s", "s", "lower"),
    ("data.vocab_s", "s", "lower"),
    ("data.encode_s", "s", "lower"),
    ("data.ingest_rows_per_s", "rows/s", "higher"),
    ("data.batch_ms", "ms", "lower"),
    ("embedding.lookup_ms", "ms", "lower"),
    ("embedding.backward_ms", "ms", "lower"),
    ("embedding.grad_values_per_step", "count", "lower"),
    ("embedding.touched_row_share", "ratio", "higher"),
    ("attention.fwd_ms", "ms", "lower"),
    ("attention.max_ms", "ms", "lower"),
    ("attention.mean_ms", "ms", "lower"),
    ("attention.bit_ms", "ms", "lower"),
    ("attention.combine_ms", "ms", "lower"),
    ("model.forward_ms", "ms", "lower"),
    ("model.tower_fwd_ms", "ms", "lower"),
    ("autograd.backward_ms", "ms", "lower"),
    ("autograd.backward_other_ms", "ms", "lower"),
    ("autograd.ops_per_step", "count", "lower"),
    ("autograd.tensors_per_step", "count", "lower"),
    ("autograd.matmul_ms", "ms", "lower"),
    ("autograd.matmul_flop_per_step", "count", "lower"),
    ("training.loss_ms", "ms", "lower"),
    ("training.loss_backward_ms", "ms", "lower"),
    ("training.adam_ms", "ms", "lower"),
    ("training.adam_values_per_step", "count", "lower"),
    ("training.adam_useful_share", "ratio", "higher"),
    ("training.eval_s", "s", "lower"),
    ("training.eval_thread_speedup", "ratio", "higher"),
    ("training.step_ms_p50", "ms", "lower"),
    ("training.step_ms_tail", "ms", "lower"),
    ("training.step_ms_tail_pct", "%", "higher"),
    ("training.step_ms_samples", "count", "higher"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

# Counts that must repeat exactly across rounds and runs of one commit.
EXACT_COUNTS = ("autograd.ops_per_step", "autograd.tensors_per_step",
                "autograd.matmul_flop_per_step", "embedding.grad_values_per_step",
                "training.adam_values_per_step")

MIN_SETUPS = 5          # set-up is repeated at least this often per run
SETUP_SLICE_S = 0.1     # extra set-ups after each round, so samples span the run
RATE_BLOCK_S = 0.5      # train throughput is a median over blocks this long


def _import_program():
    """Import mmbattn from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mmbattn" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no mmbattn sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


class Checks:
    """Output checks; each attempt and failure is counted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


@dataclass
class RoundResult:
    traced: bool
    setup: dict[str, float]
    steps: list[tuple[float, int]]
    losses: list[float]
    train_cpu_s: float
    run_s: float = 0.0
    evals: list[tuple[float, int]] = field(default_factory=list)  # (s, rows)
    eval_1t_s: float = 0.0
    eval_2t_s: float = 0.0
    save_s: float = 0.0
    load_s: float = 0.0
    ckpt_bytes: int = 0
    valid_auc: float = 0.0
    valid_logloss: float = 0.0
    peak_rss_mb: float = 0.0
    layer: dict[str, float] = field(default_factory=dict)


class Bench:
    def __init__(self, wl, inputs, seed: int, work: Path, checks: Checks):
        from mmbattn.attention import MMBAttnConfig
        from mmbattn.model import TowerConfig
        from mmbattn.training import TrainConfig

        self.wl = wl
        self.inputs = inputs
        self.seed = seed
        self.work = work
        self.checks = checks
        self.attn = MMBAttnConfig(reduction_ratio=wl.reduction_ratio,
                                  combine_mode="residual_product")
        self.tower = TowerConfig(hidden_sizes=wl.hidden_sizes)
        self.train_cfg = TrainConfig(learning_rate=wl.learning_rate,
                                     batch_size=wl.batch_size,
                                     max_epochs=wl.epochs,
                                     patience=wl.epochs + 1)
        self.digest = hashlib.sha256(f"perfbench:{wl.name}:{seed}".encode()).digest()

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Program-side ingest and model build; returns (parts, timings)."""
        from mmbattn import data, model
        from mmbattn.config import load_schema

        t0 = time.perf_counter()
        if self.wl.kind == "csv":
            schema = load_schema(self.inputs.schema_path)
            tables = [data.read_table(p, schema.delimiter)
                      for p in self.inputs.split_paths]
            t1 = time.perf_counter()
            header = tables[0][0]
            vocab = data.build_vocab_rows(header, tables[0][1], schema)
            t2 = time.perf_counter()
            splits = [data.encode_rows(h, rows, schema, vocab) for h, rows in tables]
        else:
            names = tuple(f"f{i}" for i in range(len(self.inputs.cardinalities)))
            schema = data.FieldSchema(
                fields=tuple((n, data.CATEGORICAL) for n in names),
                label_column="label")
            t1 = time.perf_counter()
            vocab = data.Vocabulary(self.inputs.maps, [None] * len(names))
            t2 = time.perf_counter()
            splits = [data.Batch(idx, y)
                      for idx, y in zip(self.inputs.indices, self.inputs.labels)]
        t3 = time.perf_counter()
        net = model.build(schema, vocab, self.wl.embedding_dim, self.attn,
                          self.tower, self.seed)
        t4 = time.perf_counter()
        timings = {"read_s": t1 - t0, "vocab_s": t2 - t1, "encode_s": t3 - t2,
                   "setup_s": t4 - t0, "rows": sum(s.n for s in splits)}
        return (schema, vocab, splits, net), timings

    # -- one round ---------------------------------------------------------

    def round(self, traced: bool) -> RoundResult:
        from mmbattn import checkpoint, model, training
        from tracing import Patches, StepClock, Tracer

        start = time.perf_counter()
        (schema, vocab, (train, valid, test), net), timings = self.setup()

        tracer = Tracer(net) if traced else None
        clock = StepClock(tracer)
        patches = Patches()
        clock.install(patches)
        if tracer is not None:
            tracer.install(patches)
        cpu0 = os.times()
        try:
            training.train(net, train, valid, test, self.train_cfg, self.seed,
                           eval_threads=training.eval_thread_count())
        except training.TrainingError as exc:
            self.checks.expect(False, f"training failed: {exc}")
        finally:
            patches.undo()
        cpu1 = os.times()
        res = RoundResult(traced=traced, setup=timings, steps=clock.steps,
                          losses=clock.losses,
                          train_cpu_s=(cpu1.user - cpu0.user) + (cpu1.system - cpu0.system))
        for i, loss in enumerate(clock.losses):
            self.checks.expect(math.isfinite(loss), f"non-finite loss at step {i}")

        # Quality on the held-out valid split, at the default thread count.
        threads = training.eval_thread_count()
        eval_bs = self.train_cfg.eval_batch_size
        t = time.perf_counter()
        ref = training.evaluate(net, valid, eval_bs, threads)
        res.evals.append((time.perf_counter() - t, valid.n))
        res.valid_auc, res.valid_logloss = ref.auc, ref.logloss
        floor = self.inputs.oracle_auc - self.wl.auc_margin
        self.checks.expect(ref.auc > floor,
                           f"valid_auc {ref.auc:.5f} below floor {floor:.5f}")

        # Checkpoint round trip into a differently initialised model.
        path = self.work / "checkpoint.mmbc"
        t = time.perf_counter()
        checkpoint.save_checkpoint(path, net.registry, self.digest)
        res.save_s = time.perf_counter() - t
        res.ckpt_bytes = path.stat().st_size
        fresh = model.build(schema, vocab, self.wl.embedding_dim, self.attn,
                            self.tower, self.seed + 1)
        t = time.perf_counter()
        ckpt = checkpoint.load_checkpoint(path)
        checkpoint.restore_model(fresh, ckpt, self.digest)
        res.load_s = time.perf_counter() - t
        path.unlink()
        same = all(fresh.registry[k].data.tobytes() == p.data.tobytes()
                   for k, p in net.registry.items())
        self.checks.expect(same, "restored parameters differ from saved ones")
        t = time.perf_counter()
        again = training.evaluate(fresh, valid, eval_bs, threads)
        res.evals.append((time.perf_counter() - t, valid.n))
        self.checks.expect(again.scores.tobytes() == ref.scores.tobytes(),
                           "restored model scores differ")

        # Eval speed depends on where each model's arrays were allocated, so
        # the test-set evaluations alternate between the two models.
        for i in range(self.wl.eval_repeats):
            t = time.perf_counter()
            training.evaluate(fresh if i % 2 else net, test, eval_bs, threads)
            res.evals.append((time.perf_counter() - t, test.n))
        res.run_s = time.perf_counter() - start
        # The 2-thread check below is not part of the workload: its
        # per-thread allocations would make the peak depend on scheduling.
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Two eval threads must give the scores of one.  The batch size is
        # capped so that the valid split always forms two shards.
        shard_bs = min(eval_bs, max(1, math.ceil(valid.n / 2)))
        one = ref
        t = time.perf_counter()
        if shard_bs != eval_bs or threads != 1:
            one = training.evaluate(net, valid, shard_bs, 1)
            res.eval_1t_s = time.perf_counter() - t
        else:
            res.eval_1t_s = res.evals[0][0]
        t = time.perf_counter()
        two = training.evaluate(net, valid, shard_bs, 2)
        res.eval_2t_s = time.perf_counter() - t
        self.checks.expect(
            two.scores.tobytes() == one.scores.tobytes() and two.auc == one.auc
            and two.logloss == one.logloss, "2-thread eval differs from 1-thread eval")

        if tracer is not None:
            res.layer = layer_metrics(tracer, len(clock.steps))
        return res


def layer_metrics(tracer, n_steps: int) -> dict[str, float]:
    """Per-step span times (ms) and counts of one traced round."""
    tot = tracer.totals()
    cnt = tracer.counts
    n = max(n_steps, 1)

    def ms(name: str) -> float:
        return 1000.0 * tot.get(name, 0.0) / n

    out = {
        "data.batch_ms": ms("data.batch"),
        "embedding.lookup_ms": ms("embedding.lookup"),
        "embedding.backward_ms": ms("embedding.backward"),
        "embedding.grad_values_per_step": cnt["embed_grad_values"] / n,
        "embedding.touched_row_share": cnt["touched_row_share"] / n,
        "attention.fwd_ms": ms("attention.fwd"),
        "attention.max_ms": ms("attention.max"),
        "attention.mean_ms": ms("attention.mean"),
        "attention.bit_ms": ms("attention.bit"),
        "model.forward_ms": ms("model.forward"),
        "autograd.backward_ms": ms("autograd.backward"),
        "autograd.ops_per_step": cnt["ops"] / n,
        "autograd.tensors_per_step": cnt["tensors"] / n,
        "autograd.matmul_ms": ms("autograd.matmul"),
        "autograd.matmul_flop_per_step": cnt["matmul_flop"] / n,
        "training.loss_ms": ms("training.loss"),
        "training.loss_backward_ms": ms("training.loss_backward"),
        "training.adam_ms": ms("training.adam"),
        "training.adam_values_per_step": cnt["adam_values"] / n,
        "training.adam_useful_share": cnt["adam_useful"] / max(cnt["adam_values"], 1),
    }
    out["attention.combine_ms"] = (out["attention.fwd_ms"] - out["attention.max_ms"]
                                   - out["attention.mean_ms"] - out["attention.bit_ms"])
    out["model.tower_fwd_ms"] = (out["model.forward_ms"] - out["embedding.lookup_ms"]
                                 - out["attention.fwd_ms"])
    out["autograd.backward_other_ms"] = (out["autograd.backward_ms"]
                                         - out["embedding.backward_ms"]
                                         - out["training.loss_backward_ms"])
    return out


# -- aggregation -------------------------------------------------------------


def block_rates(steps: list[tuple[float, int]]) -> list[float]:
    """Rows per second over consecutive blocks of at least RATE_BLOCK_S."""
    rates, secs, rows = [], 0.0, 0
    for s, r in steps:
        secs += s
        rows += r
        if secs >= RATE_BLOCK_S:
            rates.append(rows / secs)
            secs, rows = 0.0, 0
    if secs >= RATE_BLOCK_S / 2 or not rates:
        rates.append(rows / secs if secs > 0 else 0.0)
    return rates


def train_rate(rounds: list[RoundResult]) -> float:
    return statistics.median(r for x in rounds for r in block_rates(x.steps))


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            return float(np.percentile(values, pct)), pct, n
    return max(values), 100.0, n


def end_to_end(rounds: list[RoundResult], setups: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(s["setup_s"] for s in setups),
        "run_s": med(r.run_s for r in rounds),
        "train_rows_per_s": train_rate(rounds),
        "eval_rows_per_s": med(rows / s for r in rounds for s, rows in r.evals),
        "cpu_s_per_1k_rows": med(1000.0 * r.train_cpu_s / sum(n for _, n in r.steps)
                                 for r in rounds),
        # Later rounds only add allocator and thread-arena reuse.
        "peak_rss_mb": rounds[0].peak_rss_mb,
        "valid_auc": rounds[0].valid_auc,
        "valid_logloss": rounds[0].valid_logloss,
    }


def per_layer(untraced: list[RoundResult], traced: list[RoundResult],
              setups: list[dict]) -> dict[str, float]:
    med = statistics.median
    out = {key: med(r.layer[key] for r in traced) for key in traced[0].layer}
    out.update({
        "data.read_s": med(s["read_s"] for s in setups),
        "data.vocab_s": med(s["vocab_s"] for s in setups),
        "data.encode_s": med(s["encode_s"] for s in setups),
        "data.ingest_rows_per_s": med(
            s["rows"] / (s["read_s"] + s["vocab_s"] + s["encode_s"]) for s in setups),
        "training.eval_s": med(r.evals[0][0] for r in untraced),
        "training.eval_thread_speedup": (med(r.eval_1t_s for r in untraced)
                                         / med(r.eval_2t_s for r in untraced)),
        "checkpoint.save_s": med(r.save_s for r in untraced),
        "checkpoint.load_s": med(r.load_s for r in untraced),
        "checkpoint.bytes": float(untraced[0].ckpt_bytes),
        "trace.overhead_share": 1.0 - train_rate(traced) / train_rate(untraced),
    })
    step_ms = [1000.0 * s for r in untraced for s, _ in r.steps]
    value, pct, n = tail(step_ms)
    out["training.step_ms_p50"] = med(step_ms)
    out["training.step_ms_tail"] = value
    out["training.step_ms_tail_pct"] = pct
    out["training.step_ms_samples"] = float(n)
    return out


# -- self-checks across rounds and runs --------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(checks: Checks, key: str, rounds: list[RoundResult]) -> None:
    """Counts must repeat exactly across traced rounds and across runs."""
    counts = {k: rounds[0].layer[k] for k in EXACT_COUNTS}
    for r in rounds[1:]:
        checks.expect({k: r.layer[k] for k in EXACT_COUNTS} == counts,
                      "benchmark fault: counts differ between traced rounds")
    STATE_FILE.parent.mkdir(parents=True, exist_ok=True)
    try:
        state = json.loads(STATE_FILE.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        state = {}
    seen = state.setdefault(key, counts)
    drift = {k: (seen.get(k), v) for k, v in counts.items() if seen.get(k) != v}
    checks.expect(not drift, f"benchmark fault: counts drifted from an earlier "
                             f"run of this code: {drift}")
    tmp = STATE_FILE.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, STATE_FILE)


# -- environment record -------------------------------------------------------


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def blas_info() -> dict:
    """BLAS name and thread count, read from the loaded library."""
    info = {"name": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "steal_ticks_before": steal_ticks(),
        "blas": blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


# -- main -------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the self-test")
    return p.parse_args(argv)


def run(argv=None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the check messages."""

    args = parse_args(argv)
    table = workloads.TINY if args.size == "tiny" else workloads.FULL
    if args.workload not in table:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(table)}")
    wl = table[args.workload]
    env = env_record()
    work = WORK_DIR / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        inputs = workloads.make_inputs(wl, args.seed, work)
        bench = Bench(wl, inputs, args.seed, work, checks)
        rounds: list[RoundResult] = []
        setups: list[dict] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(bench.round(traced))
            setups.append(rounds[-1].setup)
            # After the round, so the first round's peak RSS is unaffected.
            spent = 0.0
            while spent < SETUP_SLICE_S:
                setups.append(bench.setup()[1])
                spent += setups[-1]["setup_s"]
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.run_s for r in rounds)
            enough = not args.trace or rounds[-1].traced
            if enough and elapsed + typical > args.seconds:
                break
        while len(setups) < MIN_SETUPS:
            setups.append(bench.setup()[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = rounds[0]
    for r in rounds[1:]:
        checks.expect(r.losses == first.losses,
                      "traced loss sequence differs from untraced" if r.traced
                      else "rerun loss sequence differs (not deterministic)")
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    if args.trace:
        metrics = per_layer(untraced, traced, setups)
        check_counts(checks, f"{wl.name}:{args.size}:{args.seed}:{env['source_digest']}",
                     traced)
        specs = PER_LAYER
    else:
        metrics = end_to_end(untraced, setups)
        specs = [(n, u, b) for n, u, b, _ in END_TO_END]
    env.update(loadavg_after=os.getloadavg(), steal_ticks_after=steal_ticks(),
               rounds=len(rounds), traced_rounds=len(traced),
               steps_per_round=len(first.steps), oracle_auc=inputs.oracle_auc,
               auc_floor=inputs.oracle_auc - wl.auc_margin,
               failed_op_share=checks.failed / max(checks.attempted, 1))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(np.float64(metrics[name])), "unit": unit}
                    for name, unit, _ in specs},
    }
    lines = [f"{name:34s} {metrics[name]:>16.6g} {unit:8s} ({better} is better)"
             for name, unit, better in specs]
    lines.append(f"{'failed_op_share':34s} {env['failed_op_share']:>16.6g} "
                 f"{'ratio':8s} (lower is better)")
    lines.append("env " + json.dumps(env, sort_keys=True))
    lines.extend(f"check failed: {m}" for m in checks.messages)
    return result, lines


def run_all(argv: list[str]) -> int:
    """``--workload all``: every workload in a process of its own, in turn.

    Separate processes keep each workload's peak RSS its own.  The last
    line merges the results, with metrics named ``<workload>.<metric>``.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    at = argv.index("--workload") + 1
    for name in workloads.FULL:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               *argv[:at], name, *argv[at + 1:]]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name:10s} {line}")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name:10s} no result (exit code {proc.returncode})")
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    _import_program()
    argv = sys.argv[1:] if argv is None else list(argv)
    if parse_args(argv).workload == "all":
        return run_all(argv)
    result, lines = run(argv)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
