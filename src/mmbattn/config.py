"""Flat ``section.key = value`` config files, resolution, canonical digests.

One config format serves run configs, field schemas, and synthetic-data
specs: UTF-8 text, ``#`` comments, one ``section.key = value`` pair per
line, no nesting beyond the single dot.  Digests are taken over the
resolved config rendered in canonical form, so key order in the file
never matters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .attention import MMBAttnConfig
from .data import FieldSchema, SynthSpec
from .errors import ConfigError, check_memory, naming, reading
from .model import TowerConfig
from .training import TrainConfig


def parse_kv(path) -> dict[str, str]:
    """Parse a key-value config file into an ordered dict."""
    with reading(path, ConfigError):
        text = Path(path).read_text(encoding="utf-8-sig")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.count(".") != 1:
            raise ConfigError(f"{path}:{lineno}: key {key!r} must be 'section.key'")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


# -- typed value parsing ---------------------------------------------------


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(int(part) for part in items)


def _parse_delimiter(raw: str) -> str:
    if len(raw) != 1 and raw != "tab":
        raise ValueError(f"expected one character or 'tab', got {raw!r}")
    return "\t" if raw == "tab" else raw


def _canon(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_canon(v) for v in value)
    return str(value)


_REQUIRED = object()


def _read_keys(kv: dict[str, str], keys: dict[str, tuple]) -> dict:
    """Parse ``kv`` by a table of ``key: (parser, default | _REQUIRED)``."""
    unknown = [k for k in kv if k not in keys]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    values = {}
    for key, (parser, default) in keys.items():
        if key not in kv:
            if default is _REQUIRED:
                raise ConfigError(f"{key} is required")
            values[key] = default
            continue
        try:
            values[key] = parser(kv[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    return values


# parser, default (None = key absent unless set).  A key that feeds a
# dataclass field takes that field's default.
_RUN_KEYS: dict[str, tuple] = {
    "run.seeds": (_parse_int_list, (0,)),
    "run.out": (str, None),
    "data.schema": (str, None),
    "data.train": (str, None),
    "data.valid": (str, None),
    "data.test": (str, None),
    "data.file": (str, None),
    "data.synth": (str, None),
    "model.embedding_dim": (int, 10),
    "model.hidden_sizes": (_parse_int_list, TowerConfig.hidden_sizes),
    "attn.use_max": (_parse_bool, MMBAttnConfig.use_max),
    "attn.use_mean": (_parse_bool, MMBAttnConfig.use_mean),
    "attn.use_bitwise": (_parse_bool, MMBAttnConfig.use_bitwise),
    "attn.reduction_ratio": (int, MMBAttnConfig.reduction_ratio),
    "train.learning_rate": (float, TrainConfig.learning_rate),
    "train.batch_size": (int, TrainConfig.batch_size),
    "train.max_epochs": (int, TrainConfig.max_epochs),
    "train.patience": (int, TrainConfig.patience),
}

# The data.* keys a run config may set together: one set per data source.
_DATA_SOURCES = ({"data.synth"}, {"data.file", "data.schema"},
                 {"data.train", "data.valid", "data.test", "data.schema"})


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run configuration.

    ``values`` maps every known key to its parsed value; digests are taken
    over their canonical rendering.  ``attn``, ``tower`` and ``train`` are
    the objects built from them.  Paths stay as written in the file and are
    resolved against ``base_dir`` when used.
    """

    values: dict
    base_dir: Path
    attn: MMBAttnConfig
    tower: TowerConfig
    train: TrainConfig

    # -- typed accessors ------------------------------------------------

    @property
    def seeds(self) -> tuple[int, ...]:
        return self.values["run.seeds"]

    @property
    def out(self) -> str | None:
        return self.values["run.out"]

    @property
    def embedding_dim(self) -> int:
        return self.values["model.embedding_dim"]

    def path(self, key: str) -> Path:
        p = Path(self.values[key])
        return p if p.is_absolute() else self.base_dir / p

    # -- canonical form and digests --------------------------------------

    def canonical_lines(self, seeds: tuple[int, ...] | None = None) -> list[str]:
        # run.out is I/O plumbing: it never affects the computation, so it
        # stays out of the canonical form and the digest.
        rendered = {k: _canon(v) for k, v in self.values.items()
                    if v is not None and k != "run.out"}
        if seeds is not None:
            rendered["run.seeds"] = _canon(tuple(seeds))
        return [f"{key} = {rendered[key]}" for key in sorted(rendered)]

    def digest(self, seed: int | None = None) -> bytes:
        seeds = (seed,) if seed is not None else None
        text = "\n".join(self.canonical_lines(seeds))
        return hashlib.sha256(text.encode("utf-8")).digest()

    def override(self, updates: dict[str, str]) -> "RunConfig":
        """A new config with the given raw-string updates applied."""
        merged = {k: _canon(v) for k, v in self.values.items() if v is not None}
        merged.update(updates)
        return _resolve_run(merged, self.base_dir)


def _resolve_run(kv: dict[str, str], base_dir: Path) -> RunConfig:
    values = _read_keys(kv, _RUN_KEYS)
    cfg = RunConfig(
        values=values, base_dir=base_dir,
        attn=MMBAttnConfig(use_max=values["attn.use_max"],
                           use_mean=values["attn.use_mean"],
                           use_bitwise=values["attn.use_bitwise"],
                           reduction_ratio=values["attn.reduction_ratio"]),
        tower=TowerConfig(values["model.hidden_sizes"]),
        train=TrainConfig(learning_rate=values["train.learning_rate"],
                          batch_size=values["train.batch_size"],
                          max_epochs=values["train.max_epochs"],
                          patience=values["train.patience"]))
    if values["model.embedding_dim"] < 1:
        raise ConfigError("model.embedding_dim must be >= 1")
    seeds = values["run.seeds"]
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise ConfigError(f"run.seeds lists seed {repeated[0]} more than once")

    given = [k for k in _RUN_KEYS if k.startswith("data.") and values[k] is not None]
    if set(given) not in _DATA_SOURCES:
        raise ConfigError(f"set exactly one data source: data.synth, data.file with "
                          f"data.schema, or data.train/valid/test with data.schema "
                          f"(got {', '.join(given) or 'none'})")
    for key in given:
        if not cfg.path(key).exists():
            raise ConfigError(f"{key} refers to a missing file: {cfg.path(key)}")
    return cfg


def load_run_config(path, overrides=(), seeds=None, out=None) -> RunConfig:
    """Load a run config file and apply CLI-level overrides.

    Errors name the file, and the overrides too when any are given."""
    kv = parse_kv(path)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        kv[key] = value
    if seeds:
        kv["run.seeds"] = ",".join(str(s) for s in seeds)
    if out is not None:
        kv["run.out"] = str(out)
    where = path
    if overrides:
        where = f"{path} with " + " ".join(f"--override {item}" for item in overrides)
    with naming(where):
        return _resolve_run(kv, Path(path).resolve().parent)


# -- schema files ----------------------------------------------------------

_SCHEMA_KEYS: dict[str, tuple] = {
    "schema.label": (str, _REQUIRED),
    "schema.min_count": (int, FieldSchema.min_count),
    "schema.buckets": (int, FieldSchema.buckets),
    "schema.delimiter": (_parse_delimiter, FieldSchema.delimiter),
}


def load_schema(path) -> FieldSchema:
    """Schema file: ``schema.*`` options plus ordered ``field.<name> = kind``."""
    kv = parse_kv(path)
    with naming(path):
        fields = tuple((key[len("field."):], kv.pop(key))
                       for key in [k for k in kv if k.startswith("field.")])
        options = _read_keys(kv, _SCHEMA_KEYS)
        return FieldSchema(fields=fields,
                           label_column=options["schema.label"],
                           min_count=options["schema.min_count"],
                           buckets=options["schema.buckets"],
                           delimiter=options["schema.delimiter"])


# -- synthetic-data spec files ----------------------------------------------

_SYNTH_KEYS: dict[str, tuple] = {
    "synth.rows": (int, _REQUIRED),
    "synth.fields": (int, _REQUIRED),
    "synth.cardinality": (_parse_int_list, (8,)),
    "synth.informative": (_parse_int_list, _REQUIRED),
    "synth.weight_scale": (float, SynthSpec.weight_scale),
    "synth.seed": (int, SynthSpec.seed),
}


def load_synth_spec(path) -> SynthSpec:
    kv = parse_kv(path)
    with naming(path):
        values = _read_keys(kv, _SYNTH_KEYS)
        rows, n_fields = values["synth.rows"], values["synth.fields"]
        cards = values["synth.cardinality"]
        # Bounded before anything is allocated, each key adding what it
        # costs: the logit vector, the int64 value table, and one vocabulary
        # entry per value.
        need = 8 * rows
        check_memory("synth.rows", need, "the synthetic data")
        need += 8 * rows * n_fields
        check_memory("synth.fields", need, "the synthetic data")
        if len(cards) == 1:
            cards *= n_fields
        if len(cards) != n_fields:
            raise ConfigError("synth.cardinality must have one entry or one per field")
        check_memory("synth.cardinality", need + 8 * sum(cards), "the synthetic data")
        return SynthSpec(n_rows=rows, cardinalities=cards,
                         informative=values["synth.informative"],
                         weight_scale=values["synth.weight_scale"],
                         seed=values["synth.seed"])
