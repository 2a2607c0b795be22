"""Command-line entry points: train, evaluate, ablate, sweep, gradcheck, synth."""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .attention import ABLATION_ROWS
from .config import RunConfig, load_run_config, load_schema, load_synth_spec
from .data import (SPLITS, Batch, FieldSchema, Vocabulary, build_vocab_rows, encode_rows,
                   hash_split, read_table, synth_generate, synth_write_csv)
from .errors import CheckpointError, ConfigError, DataError, MMBAttnError, naming, reading
from .gradcheck import run_gradcheck
from .model import Model, build
from .seeding import derive_seed
from .training import EvalReport, evaluate, train

GRADCHECK_TOL = 1e-4


@dataclass
class PreparedData:
    schema: FieldSchema
    vocab: Vocabulary
    train: Batch
    valid: Batch
    test: Batch

    def digests(self) -> dict[str, str]:
        return {split: getattr(self, split).digest() for split in SPLITS}


def prepare_data(cfg: RunConfig) -> PreparedData:
    """Load the configured splits; refuse a valid or test split AUC cannot score."""
    if cfg.values["data.synth"] is not None:
        sources = (cfg.path("data.synth"),) * 3
        spec = load_synth_spec(sources[0])
        with naming(sources[0]):
            *splits, _ = synth_generate(spec)
        prepared = PreparedData(spec.schema(), spec.vocabulary(), *splits)
    else:
        schema = load_schema(cfg.path("data.schema"))
        if cfg.values["data.file"] is not None:
            sources = (cfg.path("data.file"),) * 3
            header, rows = read_table(sources[0], schema.delimiter)
            parts = [(header, rows.take(idx)) for idx in hash_split(len(rows))]
        else:  # each pre-split file is read by its own header
            sources = tuple(cfg.path(f"data.{split}") for split in SPLITS)
            parts = [read_table(path, schema.delimiter) for path in sources]
        for source, split, (_, rows) in zip(sources, SPLITS, parts):
            if not rows:
                raise DataError(f"{source}: the {split} split has no rows")
        with naming(sources[0]):
            vocab = build_vocab_rows(*parts[0], schema)
        splits = []
        for source, part in zip(sources, parts):
            with naming(source):
                splits.append(encode_rows(*part, schema, vocab))
        prepared = PreparedData(schema, vocab, *splits)
    for source, split in zip(sources[1:], SPLITS[1:]):
        if np.unique(getattr(prepared, split).labels).size < 2:
            raise DataError(f"{source}: the {split} split needs both label classes "
                            f"for AUC")
    return prepared


# -- single run ------------------------------------------------------------


def _build_model(cfg: RunConfig, seed: int, prepared: PreparedData) -> Model:
    return build(prepared.schema, prepared.vocab, cfg.embedding_dim,
                 cfg.attn, cfg.tower, derive_seed(seed, "model-init"))


def run_single(cfg: RunConfig, seed: int, out_dir: Path,
               prepared: PreparedData) -> EvalReport:
    """Train one seed; writes metrics.jsonl, checkpoint.mmbc, run_info.json.

    ``metrics.jsonl`` is rewritten whole after each record, so a killed run
    leaves every record emitted so far."""
    out_dir.mkdir(parents=True, exist_ok=True)
    model = _build_model(cfg, seed, prepared)
    lines: list[str] = []

    def emit(record: dict) -> None:
        lines.append(json.dumps(record, sort_keys=True) + "\n")
        ckpt.write_atomic(out_dir / "metrics.jsonl", "".join(lines).encode("utf-8"))

    report = train(model, prepared.train, prepared.valid, prepared.test,
                   cfg.train, run_seed=seed, emit=emit)
    digest = cfg.digest(seed)
    ckpt.save_checkpoint(out_dir / "checkpoint.mmbc", model.registry, digest)
    info = {
        "seed": seed,
        "config_digest": digest.hex(),
        "canonical_config": cfg.canonical_lines((seed,)),
        "data_digest": prepared.digests(),
        "test_auc": report.auc,
        "test_logloss": report.logloss,
    }
    ckpt.write_atomic(out_dir / "run_info.json",
                      (json.dumps(info, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return report


def _write_csv(path: Path, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    ckpt.write_atomic(path, buf.getvalue().encode("utf-8"))


def _out_dir(cfg: RunConfig, args) -> Path:
    if cfg.out is not None:
        p = Path(cfg.out)
        return p if p.is_absolute() else Path.cwd() / p
    return Path.cwd() / "runs" / Path(args.config).stem


def _check_out(dirs, seeds) -> None:
    """Refuse, before any data is read, an output path where a seed's run
    directory under one of ``dirs`` cannot be made, raising the OSError
    ``mkdir`` would.  Nothing is made, so a run that fails on its data
    leaves no directory behind."""
    for path in (d / f"seed_{seed}" for d in dirs for seed in seeds):
        for p in (path, *path.parents):
            if p.exists():
                if not p.is_dir():
                    code = errno.EEXIST if p == path else errno.ENOTDIR
                    raise OSError(code, os.strerror(code), str(path))
                break


def _summarize(reports: dict[int, EvalReport]) -> dict[str, float]:
    aucs = np.array([r.auc for r in reports.values()])
    lls = np.array([r.logloss for r in reports.values()])
    return {"auc_mean": float(aucs.mean()),
            "auc_std": float(aucs.std()),
            "logloss_mean": float(lls.mean()),
            "logloss_std": float(lls.std())}


def _run_grid(cfg: RunConfig, args, runs) -> tuple[Path, list[dict[int, EvalReport]]]:
    """Train every seed of each ``(subdirectory, config)`` run on data
    prepared once from ``cfg``; returns the output directory and each run's
    reports by seed.  An output path where a run directory cannot be made is
    refused before any data is read.  No run's overrides may affect data
    preparation."""
    out_dir = _out_dir(cfg, args)
    _check_out([out_dir / sub for sub, _ in runs], cfg.seeds)
    prepared = prepare_data(cfg)
    return out_dir, [{seed: run_single(run_cfg, seed, out_dir / sub / f"seed_{seed}", prepared)
                      for seed in cfg.seeds} for sub, run_cfg in runs]


# -- commands ---------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.override, args.seed, args.out)
    out_dir, (reports,) = _run_grid(cfg, args, [("", cfg)])
    for seed, rep in reports.items():
        print(f"seed {seed}: test auc {rep.auc:.5f} logloss {rep.logloss:.5f}")
    s = _summarize(reports)
    print(f"test auc {s['auc_mean']:.5f} ± {s['auc_std']:.5f} | "
          f"logloss {s['logloss_mean']:.5f} ± {s['logloss_std']:.5f} "
          f"({len(reports)} seeds)")
    _write_csv(out_dir / "summary.csv", [
        ["seed", "test_auc", "test_logloss"],
        *([seed, repr(rep.auc), repr(rep.logloss)] for seed, rep in reports.items()),
        ["mean", repr(s["auc_mean"]), repr(s["logloss_mean"])],
        ["std", repr(s["auc_std"]), repr(s["logloss_std"])]])
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_run_config(args.config, args.override, args.seed, args.out)
    if args.checkpoint:
        if len(cfg.seeds) > 1:
            raise ConfigError(f"--checkpoint names one checkpoint, so it takes one "
                              f"seed, got {len(cfg.seeds)}")
        paths = [Path(args.checkpoint)]
    else:
        paths = [_out_dir(cfg, args) / f"seed_{seed}" / "checkpoint.mmbc"
                 for seed in cfg.seeds]
    checkpoints = [ckpt.load_checkpoint(path) for path in paths]
    infos = [] if args.force else [path.parent / "run_info.json" for path in paths]
    trained_on = [_train_digest(info) for info in infos]
    prepared = prepare_data(cfg)
    current = prepared.train.digest()
    for info, recorded in zip(infos, trained_on):
        if recorded != current:
            raise CheckpointError(f"{info}: train split digest mismatch: checkpoint "
                                  f"trained on {recorded} vs current {current} "
                                  f"(use --force to load anyway)")
    for seed, checkpoint in zip(cfg.seeds, checkpoints):
        model = _build_model(cfg, seed, prepared)
        ckpt.restore_model(model, checkpoint, expected_digest=cfg.digest(seed),
                           force=args.force)
        report = evaluate(model, prepared.test)
        print(json.dumps({"seed": seed, "split": "test", "auc": report.auc,
                          "logloss": report.logloss, "n": report.n}, sort_keys=True))
    return 0


def _train_digest(info_path: Path) -> str:
    """The train split digest a run recorded in its ``run_info.json``."""
    with reading(info_path, CheckpointError):
        text = info_path.read_text(encoding="utf-8")
    try:
        return json.loads(text)["data_digest"]["train"]
    except (ValueError, KeyError, TypeError):
        raise CheckpointError(f"{info_path}: no data_digest.train recorded") from None


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, args.override, args.seed, args.out)
    out_dir, grid = _run_grid(cfg, args, [
        (slug, cfg.override({
            key: "true" if on else "false"
            for key, on in zip(("attn.use_max", "attn.use_mean", "attn.use_bitwise"),
                               toggles)}))
        for _, slug, toggles in ABLATION_ROWS])
    rows = []
    base_auc = None
    for (display, slug, _), reports in zip(ABLATION_ROWS, grid):
        s = _summarize(reports)
        if slug == "base":
            base_auc = s["auc_mean"]
            impr = "Base"
        else:
            impr = f"{(s['auc_mean'] - base_auc) / base_auc * 100.0:.2f}%"
        rows.append({"model": display, "slug": slug, "impr": impr, **s})
    width = max(len(r["model"]) for r in rows)
    print(f"{'Model':<{width}}  {'AUC':>8}  {'Impr.':>7}  {'LogLoss':>8}")
    for r in rows:
        print(f"{r['model']:<{width}}  {r['auc_mean']:>8.5f}  {r['impr']:>7}  "
              f"{r['logloss_mean']:>8.5f}")
    _write_csv(out_dir / "ablation.csv", [
        ["model", "auc_mean", "auc_std", "impr", "logloss_mean", "logloss_std"],
        *([r["model"], repr(r["auc_mean"]), repr(r["auc_std"]),
           r["impr"], repr(r["logloss_mean"]), repr(r["logloss_std"])] for r in rows)])
    return 0


_SWEEP_KEYS = {"reduction_ratio": "attn.reduction_ratio",
               "embedding_dim": "model.embedding_dim"}


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config, args.override, args.seed, args.out)
    key = _SWEEP_KEYS[args.axis]
    values = [part.strip() for part in args.values.split(",") if part.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    runs = []
    for value in values:
        with naming(f"{args.config}: --values {value}"):
            run_cfg = cfg.override({key: value})
            if any(run_cfg.values[key] == c.values[key] for _, c in runs):
                raise ConfigError("repeats an earlier value")
            runs.append((f"{args.axis}_{value}", run_cfg))
    out_dir, grid = _run_grid(cfg, args, runs)
    rows = [{"value": value, **_summarize(reports)} for value, reports in zip(values, grid)]
    print(f"{args.axis:>16}  {'AUC':>8}  {'LogLoss':>8}")
    for r in rows:
        print(f"{r['value']:>16}  {r['auc_mean']:>8.5f}  {r['logloss_mean']:>8.5f}")
    _write_csv(out_dir / "sweep.csv", [
        [args.axis, "auc_mean", "auc_std", "logloss_mean", "logloss_std"],
        *([r["value"], repr(r["auc_mean"]), repr(r["auc_std"]),
           repr(r["logloss_mean"]), repr(r["logloss_std"])] for r in rows)])
    return 0


def cmd_gradcheck(args) -> int:
    cfg = load_run_config(args.config, args.override, args.seed)
    prepared = prepare_data(cfg)
    if prepared.schema.n_fields > 4:
        raise ConfigError("gradcheck needs a tiny model: at most 4 fields")
    if cfg.embedding_dim > 3:
        raise ConfigError("gradcheck needs a tiny model: embedding_dim at most 3")
    batch = prepared.train.take(slice(0, min(8, prepared.train.n)))
    worst: dict[str, float] = {}
    for seed in cfg.seeds:
        for name, err in run_gradcheck(prepared.schema, prepared.vocab, batch,
                                       cfg.embedding_dim, cfg.tower,
                                       cfg.attn.reduction_ratio, seed).items():
            worst[name] = max(worst.get(name, 0.0), err)
    overall = 0.0
    for name in sorted(worst):
        print(f"{name:<24} max relative error {worst[name]:.3e}")
        overall = max(overall, worst[name])
    ok = overall < GRADCHECK_TOL
    print(f"overall max relative error {overall:.3e} "
          f"({'PASS' if ok else 'FAIL'}, tolerance {GRADCHECK_TOL:.0e})")
    return 0 if ok else 1


def cmd_synth(args) -> int:
    spec = load_synth_spec(args.spec)
    with naming(args.spec):
        counts = synth_write_csv(spec, args.out)
    print(f"wrote {counts['train']}/{counts['valid']}/{counts['test']} "
          f"train/valid/test rows to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    cp = ckpt.load_checkpoint(args.checkpoint)
    print(f"checkpoint {args.checkpoint}")
    print(f"config digest {cp.digest.hex()}")
    print(f"{len(cp.entries)} parameters, {cp.payload.size} values")
    for name, shape, offset in cp.entries:
        print(f"  {name:<24} shape {str(tuple(shape)):<16} offset {offset}")
    return 0


# -- parser -----------------------------------------------------------------


def _add_run_flags(sp) -> None:
    sp.add_argument("--config", required=True, help="run config file")
    sp.add_argument("--seed", type=int, action="append",
                    help="override run.seeds (repeatable)")
    sp.add_argument("--override", action="append", default=[],
                    metavar="SECTION.KEY=VALUE", help="config override (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmbattn",
        description="CTR prediction with max-mean and bit-wise attention")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func in (("train", cmd_train), ("evaluate", cmd_evaluate),
                       ("ablate", cmd_ablate), ("sweep", cmd_sweep),
                       ("gradcheck", cmd_gradcheck)):
        sp = sub.add_parser(name)
        _add_run_flags(sp)
        if name != "gradcheck":
            sp.add_argument("--out", default=None, help="output directory")
        if name == "evaluate":
            sp.add_argument("--checkpoint", default=None,
                            help="checkpoint path for a single seed "
                                 "(default: <out>/seed_<s>/checkpoint.mmbc per seed)")
            sp.add_argument("--force", action="store_true",
                            help="ignore config and train split digest mismatches")
        if name == "sweep":
            sp.add_argument("--axis", required=True, choices=sorted(_SWEEP_KEYS))
            sp.add_argument("--values", required=True,
                            help="comma-separated values to sweep")
        sp.set_defaults(func=func)

    sp = sub.add_parser("synth")
    sp.add_argument("--spec", required=True, help="synthetic-data spec file")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("inspect-checkpoint")
    sp.add_argument("checkpoint", help="checkpoint file to inspect")
    sp.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MMBAttnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # e.g. an --out path that is a regular file
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
