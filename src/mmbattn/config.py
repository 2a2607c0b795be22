"""Flat ``section.key = value`` config files, resolution, canonical digests.

One config format serves run configs, field schemas, and synthetic-data
specs: UTF-8 text, ``#`` comments, one ``section.key = value`` pair per
line, no nesting beyond the single dot.  Digests are taken over the
resolved config rendered in canonical form, so key order in the file
never matters.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .attention import MMBAttnConfig
from .data import CATEGORICAL, NUMERIC, FieldSchema, SynthSpec
from .errors import ConfigError, MMBAttnError
from .training import TrainConfig


def parse_kv(source) -> dict[str, str]:
    """Parse a key-value config file (or text) into an ordered dict."""
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        origin = str(source)
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{origin}: not UTF-8 text ({exc.reason})") from None
        except OSError as exc:
            raise ConfigError(f"{origin}: cannot read ({exc.strerror or exc})") from None
    else:
        text = str(source)
        origin = "<string>"
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.count(".") != 1:
            raise ConfigError(f"{origin}:{lineno}: key {key!r} must be 'section.key'")
        if key in out:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@contextmanager
def _naming(path):
    """Prefix errors raised while interpreting a parsed file with its path."""
    try:
        yield
    except MMBAttnError as exc:
        raise type(exc)(f"{path}: {exc}") from None


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


def _canon(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_canon(v) for v in value)
    return str(value)


# parser, default (None = key absent unless set)
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
    "model.hidden_sizes": (_parse_int_list, (400, 400, 400)),
    "model.seed": (int, None),
    "attn.use_max": (_parse_bool, True),
    "attn.use_mean": (_parse_bool, True),
    "attn.use_bitwise": (_parse_bool, True),
    "attn.reduction_ratio": (int, 3),
    "train.learning_rate": (float, 1e-3),
    "train.batch_size": (int, 4096),
    "train.max_epochs": (int, 10),
    "train.patience": (int, 2),
}

_PATH_KEYS = ("data.schema", "data.train", "data.valid", "data.test",
              "data.file", "data.synth")


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run configuration.

    ``resolved`` maps every known key to its canonical string value;
    digests are taken over that rendering.  Paths stay as written in the
    file and are resolved against ``base_dir`` when used.
    """

    values: dict
    resolved: dict[str, str]
    base_dir: Path

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

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return self.values["model.hidden_sizes"]

    @property
    def model_seed(self) -> int | None:
        return self.values["model.seed"]

    def attn_config(self) -> MMBAttnConfig:
        return MMBAttnConfig(
            use_max=self.values["attn.use_max"],
            use_mean=self.values["attn.use_mean"],
            use_bitwise=self.values["attn.use_bitwise"],
            reduction_ratio=self.values["attn.reduction_ratio"],
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.values["train.learning_rate"],
            batch_size=self.values["train.batch_size"],
            max_epochs=self.values["train.max_epochs"],
            patience=self.values["train.patience"],
        )

    def path(self, key: str) -> Path:
        raw = self.values[key]
        if raw is None:
            raise ConfigError(f"config key {key} is not set")
        p = Path(raw)
        return p if p.is_absolute() else self.base_dir / p

    # -- canonical form and digests --------------------------------------

    def canonical_lines(self, seeds: tuple[int, ...] | None = None) -> list[str]:
        # run.out is I/O plumbing: it never affects the computation, so it
        # stays out of the canonical form and the digest.
        rendered = {k: v for k, v in self.resolved.items() if k != "run.out"}
        if seeds is not None:
            rendered["run.seeds"] = _canon(tuple(seeds))
        return [f"{key} = {rendered[key]}" for key in sorted(rendered)]

    def digest(self, seed: int | None = None) -> bytes:
        seeds = (seed,) if seed is not None else None
        text = "\n".join(self.canonical_lines(seeds))
        return hashlib.sha256(text.encode("utf-8")).digest()

    def override(self, updates: dict[str, str]) -> "RunConfig":
        """A new config with the given raw-string updates applied."""
        merged = {k: v for k, v in self.resolved.items()}
        merged.update(updates)
        return _resolve_run(merged, self.base_dir)


def _resolve_run(kv: dict[str, str], base_dir: Path) -> RunConfig:
    unknown = [k for k in kv if k not in _RUN_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    values: dict = {}
    resolved: dict[str, str] = {}
    for key, (parser, default) in _RUN_KEYS.items():
        if key in kv:
            try:
                value = parser(kv[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from None
        else:
            value = default
        values[key] = value
        if value is not None:
            resolved[key] = _canon(value)
    if not values["run.seeds"]:
        raise ConfigError("run.seeds must be non-empty")

    cfg = RunConfig(values=values, resolved=resolved, base_dir=base_dir)
    cfg.attn_config()
    cfg.train_config()
    if values["model.embedding_dim"] < 1:
        raise ConfigError("model.embedding_dim must be >= 1")

    synth = values["data.synth"]
    single = values["data.file"]
    presplit = values["data.train"]
    modes = sum(x is not None for x in (synth, single, presplit))
    if modes != 1:
        raise ConfigError("exactly one of data.synth, data.file, or "
                          "data.train/valid/test must be set")
    if presplit is not None:
        if values["data.valid"] is None or values["data.test"] is None:
            raise ConfigError("data.train requires data.valid and data.test")
        if values["data.schema"] is None:
            raise ConfigError("CSV data requires data.schema")
    if single is not None and values["data.schema"] is None:
        raise ConfigError("CSV data requires data.schema")
    for key in _PATH_KEYS:
        if values[key] is not None and not cfg.path(key).exists():
            raise ConfigError(f"{key} refers to a missing file: {cfg.path(key)}")
    return cfg


def load_run_config(path, overrides=(), seeds=None, out=None) -> RunConfig:
    """Load a run config file and apply CLI-level overrides."""
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
    with _naming(path):
        return _resolve_run(kv, Path(path).resolve().parent)


# -- schema files ----------------------------------------------------------

_SCHEMA_KEYS = {"schema.label", "schema.min_count", "schema.buckets",
                "schema.delimiter"}
_KINDS = {"categorical": CATEGORICAL, "numeric": NUMERIC}


def load_schema(path) -> FieldSchema:
    """Schema file: ``schema.*`` options plus ordered ``field.<name> = kind``."""
    kv = parse_kv(path)
    with _naming(path):
        fields = []
        options: dict[str, str] = {}
        for key, value in kv.items():
            if key.startswith("field."):
                name = key[len("field."):]
                if value not in _KINDS:
                    raise ConfigError(f"field {name!r}: unknown kind {value!r} "
                                      f"(expected categorical or numeric)")
                fields.append((name, _KINDS[value]))
            elif key in _SCHEMA_KEYS:
                options[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r}")
        if "schema.label" not in options:
            raise ConfigError("schema.label is required")
        delimiter = options.get("schema.delimiter", ",")
        if delimiter == "tab":
            delimiter = "\t"
        counts = {}
        for key, default in (("schema.min_count", "1"), ("schema.buckets", "10")):
            raw = options.get(key, default)
            try:
                counts[key] = int(raw)
            except ValueError:
                raise ConfigError(f"{key} = {raw!r} is not an integer") from None
        return FieldSchema(fields=tuple(fields),
                           label_column=options["schema.label"],
                           min_count=counts["schema.min_count"],
                           buckets=counts["schema.buckets"],
                           delimiter=delimiter)


# -- synthetic-data spec files ----------------------------------------------

_SYNTH_KEYS = {"synth.rows", "synth.fields", "synth.cardinality",
               "synth.informative", "synth.weight_scale", "synth.seed"}


def load_synth_spec(path) -> SynthSpec:
    kv = parse_kv(path)
    with _naming(path):
        unknown = [k for k in kv if k not in _SYNTH_KEYS]
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}")
        for required in ("synth.rows", "synth.fields", "synth.informative"):
            if required not in kv:
                raise ConfigError(f"{required} is required")
        try:
            n_fields = int(kv["synth.fields"])
            cards = _parse_int_list(kv.get("synth.cardinality", "8"))
            informative = _parse_int_list(kv["synth.informative"])
            n_rows = int(kv["synth.rows"])
            weight_scale = float(kv.get("synth.weight_scale", "2.0"))
            seed = int(kv.get("synth.seed", "0"))
        except ValueError as exc:
            raise ConfigError(f"bad synth spec value: {exc}") from None
        if len(cards) == 1:
            cards = cards * n_fields
        if len(cards) != n_fields:
            raise ConfigError("synth.cardinality must have one entry or one per field")
        return SynthSpec(n_rows=n_rows, cardinalities=cards, informative=informative,
                         weight_scale=weight_scale, seed=seed)
