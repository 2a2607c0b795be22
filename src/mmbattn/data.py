"""Field schemas, vocabularies, CSV ingestion, synthetic data, and batching."""

from __future__ import annotations

import copy
import csv
import hashlib
import json
from array import array
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .autograd import stable_sigmoid
from .checkpoint import write_atomic
from .errors import ConfigError, ContractError, DataError, check_memory, reading
from .seeding import derive_seed

CATEGORICAL = "categorical"
NUMERIC = "numeric"
SPLITS = ("train", "valid", "test")
CSV_CHUNK_ROWS = 8192  # rows per block synth_write_csv formats at once


@dataclass(frozen=True)
class FieldSchema:
    """Ordered feature fields plus the label column.

    Numeric fields are quantile-bucketized into ``buckets`` bins at vocab
    build time and treated as categorical afterwards, so the model stays
    purely embedding based.
    """

    fields: tuple[tuple[str, str], ...]
    label_column: str
    min_count: int = 1
    buckets: int = 10
    delimiter: str = ","

    def __post_init__(self):
        if len(self.fields) < 1:
            raise ConfigError("schema needs at least one feature field")
        names = [n for n, _ in self.fields]
        if len(set(names)) != len(names):
            raise ConfigError("field names must be unique")
        if self.label_column in names:
            raise ConfigError(f"label column {self.label_column!r} is also a feature field")
        for name, kind in self.fields:
            if kind not in (CATEGORICAL, NUMERIC):
                raise ConfigError(f"field {name!r}: unknown kind {kind!r} "
                                  f"(expected categorical or numeric)")
        if self.min_count < 1:
            raise ConfigError("schema.min_count must be >= 1")
        if self.buckets < 1:
            raise ConfigError("schema.buckets must be >= 1")
        if any(kind == NUMERIC for _, kind in self.fields):
            check_memory("schema.buckets", 8 * self.buckets, "bucketing a numeric field")

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.fields)


class Vocabulary:
    """Per-field value -> index maps; index 0 is the shared OOV/padding slot.

    Categorical fields map raw strings.  Numeric fields map through the
    quantile bucket boundaries recorded at build time; their ``maps``
    entry stays empty.  A numeric field with no finite train cell records
    None: an empty categorical field, size 1, every cell OOV.
    """

    def __init__(self, maps: Sequence[dict[str, int]],
                 boundaries: Sequence[np.ndarray | None]):
        if len(maps) != len(boundaries):
            raise ContractError("maps and boundaries must align per field")
        self.maps = list(maps)
        self.boundaries = list(boundaries)

    @property
    def sizes(self) -> list[int]:
        """Vocabulary size per field, OOV slot included."""
        out = []
        for m, b in zip(self.maps, self.boundaries):
            out.append(len(m) + 1 if b is None else len(b) + 2)
        return out


def check_labels(labels: np.ndarray) -> None:
    if labels.size and not np.isin(labels, (0.0, 1.0)).all():
        raise ContractError("labels must be 0 or 1")


@dataclass
class Batch:
    """Encoded index matrix (rows × fields) plus binary labels.

    The contract is checked once, when a batch is built from arrays;
    ``take`` skips it, since rows selected from a valid batch are valid.
    """

    indices: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.indices.ndim != 2:
            raise ContractError("indices must be 2-d (rows × fields)")
        kind = self.indices.dtype.kind
        if kind not in "iu":
            raise ContractError(f"indices must be integers, got dtype {self.indices.dtype}")
        if kind == "i" and self.indices.size and self.indices.min() < 0:
            raise ContractError("indices must be non-negative")
        if self.labels.shape != (self.indices.shape[0],):
            raise ContractError("labels length must match row count")
        check_labels(self.labels)

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    def take(self, sel) -> "Batch":
        out = copy.copy(self)
        out.indices = self.indices[sel]
        out.labels = self.labels[sel]
        return out

    def digest(self) -> str:
        """Content digest of the encoded data (split-isolation checks, run_info)."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.indices, dtype="<u4").tobytes())
        h.update(np.ascontiguousarray(self.labels, dtype="<u1").tobytes())
        return h.hexdigest()


# -- CSV ingestion ------------------------------------------------------


@dataclass(eq=False)
class Table:
    """CSV data rows, coded per column: ``codes[i, c]`` is row i's code in
    column c, numbering the column's distinct texts in first-seen order, and
    ``texts[c][k]`` is code k's text.  ``lines[i]`` is the file line where row
    i starts (the header is line 1; blank lines and quoted breaks count)."""

    codes: np.ndarray
    texts: list[list[str]]
    lines: np.ndarray

    def __len__(self) -> int:
        return len(self.lines)

    def take(self, idx) -> "Table":
        """The rows at ``idx``, in that order, with their codes and lines."""
        return Table(self.codes[idx], self.texts, self.lines[idx])


def read_table(path, delimiter: str = ",") -> tuple[list[str], Table]:
    """Read a CSV file into (header, table), refusing a blank header line and
    a row whose width is not the header's.  Each cell is coded as it is
    read, so the table holds 4 bytes per cell and each distinct text once."""
    codes, lines = array("I"), array("q")
    with reading(path, DataError), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            if not header:
                raise DataError(f"{path}: line 1: empty header")
            width = len(header)
            seen = [{} for _ in header]  # per column: text -> code
            start = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != width:
                        raise DataError(f"{path}: line {start}: expected {width} "
                                        f"columns, got {len(row)}")
                    codes.extend(map(dict.setdefault, seen, row, map(len, seen)))
                    lines.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not lines:
        raise DataError(f"{path}: no data rows after the header")
    return header, Table(np.frombuffer(codes, codes.typecode).reshape(-1, width),
                         [list(texts) for texts in seen],
                         np.frombuffer(lines, lines.typecode))


def _column_numbers(header: list[str], table: Table, schema: FieldSchema) -> list[int]:
    """The column of each schema field, then of the label, in ``header``."""
    if not isinstance(table, Table):
        raise ContractError("table must be the data.Table that read_table returns")
    names = (*schema.field_names, schema.label_column)
    for name in names:
        if name not in header:
            raise DataError(f"missing column {name!r} in header")
        if header.count(name) > 1:
            raise DataError(f"column {name!r} appears more than once in header")
    return [header.index(name) for name in names]


def _parse_floats(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of every cell, plus a mask of the cells that parse to a
    finite number; ``nan`` and ``±inf`` count as unparsed."""
    values = np.zeros(len(cells), dtype=np.float64)
    ok = np.ones(len(cells), dtype=bool)
    for i, raw in enumerate(cells):
        try:
            values[i] = float(raw)
        except ValueError:
            ok[i] = False
    ok &= np.isfinite(values)
    return values, ok


def build_vocab_rows(header: list[str], table: Table,
                     schema: FieldSchema) -> Vocabulary:
    mc = schema.min_count
    *cols, _ = _column_numbers(header, table, schema)
    maps: list[dict[str, int]] = []
    bounds: list[np.ndarray | None] = []
    for (_, kind), c in zip(schema.fields, cols):
        codes, texts = table.codes[:, c], table.texts[c]
        if kind == CATEGORICAL:
            # first-seen order in these rows; a hash split's part can differ from its file's
            seen, first, counts = np.unique(codes, return_index=True, return_counts=True)
            kept = seen[counts >= mc][np.argsort(first[counts >= mc])]
            maps.append({texts[k]: i for i, k in enumerate(kept.tolist(), start=1)})
            bounds.append(None)
        else:
            values, ok = _parse_floats(texts)
            vals = values[codes[ok[codes]]]
            qs = np.arange(1, schema.buckets) * (1.0 / schema.buckets)
            maps.append({})
            bounds.append(np.unique(np.quantile(vals, qs)) if vals.size else None)
    return Vocabulary(maps, bounds)


def encode_rows(header: list[str], table: Table,
                schema: FieldSchema, vocab: Vocabulary) -> Batch:
    """Encode one column at a time, looking up or parsing each distinct text once."""
    *cols, label_col = _column_numbers(header, table, schema)
    codes, texts = table.codes[:, label_col], table.texts[label_col]
    labels, ok = _parse_floats(texts)
    bad = (~ok | ((labels != 0.0) & (labels != 1.0)))[codes]
    if bad.any():
        r = int(np.argmax(bad))
        raw = texts[codes[r]]
        if not ok[codes[r]]:
            raise DataError(f"line {table.lines[r]}: label {raw!r} is not a number")
        raise DataError(f"line {table.lines[r]}: label must be 0 or 1, got {raw!r}")
    indices = np.empty((len(table), schema.n_fields), dtype=np.uint32)
    for f, c in enumerate(cols):
        edges, cells = vocab.boundaries[f], table.texts[c]
        if edges is None:
            lookup = np.fromiter(map(vocab.maps[f].get, cells, repeat(0)),
                                 dtype=np.uint32, count=len(cells))
        else:
            values, parsed = _parse_floats(cells)
            lookup = np.where(parsed, np.searchsorted(edges, values, side="right") + 1, 0)
        indices[:, f] = lookup[table.codes[:, c]]
    return Batch(indices, labels[codes])


# -- deterministic splitting and batching --------------------------------


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash_split(n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 8:1:1 split keyed on row number."""
    bucket = _splitmix64(np.arange(n_rows, dtype=np.uint64)) % np.uint64(10)
    return (np.nonzero(bucket < 8)[0],
            np.nonzero(bucket == 8)[0],
            np.nonzero(bucket == 9)[0])


def batches(data: Batch, batch_size: int, shuffle_seed: int | None = None,
            epoch: int = 0) -> Iterator[Batch]:
    """Deterministic mini-batches; the last partial batch is kept.

    The shuffle is keyed by (shuffle_seed, epoch); with ``shuffle_seed``
    None the dataset order is preserved (evaluation) and each batch holds
    views of ``data``'s arrays, not copies.
    """
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    order = None
    if shuffle_seed is not None:
        rng = np.random.default_rng(derive_seed(shuffle_seed, f"shuffle-epoch:{epoch}"))
        order = rng.permutation(data.n)
    for start in range(0, data.n, batch_size):
        rows = slice(start, start + batch_size)
        yield data.take(rows if order is None else order[rows])


# -- planted-importance synthetic data ------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic CTR data with known field importance.

    Labels are Bernoulli(sigmoid(sum over informative fields of a fixed
    per-value weight)); noise fields are drawn independently of the label.
    """

    n_rows: int
    cardinalities: tuple[int, ...]
    informative: tuple[int, ...]
    weight_scale: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n_rows < 10:
            raise ConfigError("n_rows must be at least 10")
        if not self.cardinalities:
            raise ConfigError("need at least one field")
        if any(not 2 <= c < 2 ** 32 for c in self.cardinalities):  # 1-based uint32 indices
            raise ConfigError("synth.cardinality: every field cardinality must be >= 2 "
                              f"and at most {2 ** 32 - 1:,}, the largest uint32 index")
        if not self.informative:
            raise ConfigError("label rule needs at least one informative field")
        if len(set(self.informative)) != len(self.informative):
            raise ConfigError("duplicate informative field index")
        if not all(0 <= f < self.n_fields for f in self.informative):
            raise ConfigError("informative field index out of range")
        if not self.weight_scale > 0:
            raise ConfigError("weight_scale must be positive")

    @property
    def n_fields(self) -> int:
        return len(self.cardinalities)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f"f{i}" for i in range(self.n_fields))

    def schema(self) -> FieldSchema:
        return FieldSchema(fields=tuple((n, CATEGORICAL) for n in self.field_names),
                           label_column="label")

    @property
    def sizes(self) -> list[int]:
        """Vocabulary size per field, OOV slot included, as ``Vocabulary.sizes``."""
        return [c + 1 for c in self.cardinalities]


@dataclass(frozen=True)
class SynthTruth:
    """Ground truth of the generating rule, for recovery scoring."""

    importance: tuple[float, ...]  # per-field variance of the logit contribution
    bayes_auc: float
    base_rate: float


def _synth_weights(spec: SynthSpec) -> dict[int, np.ndarray]:
    out = {}
    for f in spec.informative:
        rng = np.random.default_rng(derive_seed(spec.seed, f"synth-weights:f{f}"))
        out[f] = rng.normal(0.0, spec.weight_scale, size=spec.cardinalities[f])
    return out


def mann_whitney(pos: np.ndarray, neg: np.ndarray) -> float:
    """AUC from each distinct score's positive and negative mass, scores ascending."""
    below = np.cumsum(neg) - neg  # negative mass strictly below each score
    num = float(np.sum(pos * below) + 0.5 * np.sum(pos * neg))
    return num / float(pos.sum() * neg.sum())


def synth_truth(spec: SynthSpec) -> SynthTruth:
    """Field importances, base rate and exact Bayes AUC of the generating rule."""
    # click probability of every informative-value combination (all equally likely)
    n_combos = 1
    for f in spec.informative:
        n_combos *= spec.cardinalities[f]
    if n_combos > 2_000_000:  # checked before the weights are drawn
        raise ConfigError("too many value combinations for exact Bayes computation")
    weights = _synth_weights(spec)
    logits = np.zeros(1)
    for f in spec.informative:
        logits = (logits[:, None] + weights[f][None, :]).ravel()
    probs = stable_sigmoid(logits)
    uniq, counts = np.unique(probs, return_counts=True)  # ascending
    importance = tuple(
        float(np.var(weights[f])) if f in weights else 0.0
        for f in range(spec.n_fields))
    return SynthTruth(importance=importance,
                      bayes_auc=mann_whitney(counts * uniq, counts * (1.0 - uniq)),
                      base_rate=float(np.mean(probs)))


def synth_table(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Generate encoded value indices (n × F uint32, 1-based) and labels."""
    values = np.empty((spec.n_rows, spec.n_fields), dtype=np.uint32)
    for f in range(spec.n_fields):
        rng = np.random.default_rng(derive_seed(spec.seed, f"synth-values:f{f}"))
        values[:, f] = rng.integers(1, spec.cardinalities[f] + 1, size=spec.n_rows)
    weights = _synth_weights(spec)
    logits = np.zeros(spec.n_rows)
    for f in spec.informative:
        logits += weights[f][values[:, f] - 1]
    rng = np.random.default_rng(derive_seed(spec.seed, "synth-labels"))
    labels = (rng.random(spec.n_rows) < stable_sigmoid(logits)).astype(np.float64)
    return values, labels


def synth_generate(spec: SynthSpec) -> tuple[Batch, Batch, Batch, SynthTruth]:
    """Generate encoded train/valid/test splits (8:1:1) plus ground truth."""
    truth = synth_truth(spec)
    if not 0.05 < truth.base_rate < 0.95:
        raise ConfigError(f"label base rate {truth.base_rate:.4f} outside (0.05, 0.95); "
                           "reduce weight_scale or reseed")
    full = Batch(*synth_table(spec))
    n_train = int(spec.n_rows * 0.8)
    n_valid = int(spec.n_rows * 0.1)
    train = full.take(slice(0, n_train))
    valid = full.take(slice(n_train, n_train + n_valid))
    test = full.take(slice(n_train + n_valid, spec.n_rows))
    return train, valid, test, truth


def _csv_chunks(header: str, batch: Batch) -> Iterator[bytes]:
    """``batch`` as CSV text: the header line, then blocks of ``CSV_CHUNK_ROWS`` rows."""
    yield (header + "\n").encode("utf-8")
    for part in batches(batch, CSV_CHUNK_ROWS):
        yield "".join(",".join([*(f"v{i - 1}" for i in idx), str(int(label))]) + "\n"
                      for idx, label in zip(part.indices.tolist(),
                                            part.labels.tolist())).encode("utf-8")


def synth_write_csv(spec: SynthSpec, out_dir) -> dict[str, int]:
    """Write train/valid/test CSVs plus ground truth atomically; returns row counts."""
    *splits, truth = synth_generate(spec)  # first, so a refused spec makes no directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ",".join((*spec.field_names, "label"))
    for split, batch in zip(SPLITS, splits):
        write_atomic(out / f"{split}.csv", _csv_chunks(header, batch))
    truth_doc = {
        "fields": list(spec.field_names),
        "informative": list(spec.informative),
        "importance": [float(x) for x in truth.importance],
        "bayes_auc": truth.bayes_auc,
        "base_rate": truth.base_rate,
    }
    write_atomic(out / "ground_truth.json",
                 ((json.dumps(truth_doc, indent=2, sort_keys=True) + "\n").encode("utf-8"),))
    return {split: batch.n for split, batch in zip(SPLITS, splits)}
