import re
from pathlib import Path

import numpy as np
import pytest

from mmbattn.data import (CATEGORICAL, NUMERIC, Batch, FieldSchema, Rows, SynthSpec,
                          batches, build_vocab_rows, encode_rows, hash_split,
                          read_table, synth_generate,
                          synth_table, synth_truth, synth_write_csv)
from mmbattn.errors import ConfigError, ContractError, DataError


def one_field_schema():
    return FieldSchema(fields=(("f", CATEGORICAL),), label_column="y")


@pytest.fixture
def csv_file(tmp_path):
    """Write CSV text to a fresh file under tmp_path and return its path."""
    made = []

    def write(text):
        path = tmp_path / f"data{len(made)}.csv"
        path.write_text(text, encoding="utf-8")
        made.append(path)
        return path
    return write


def vocab_from(path, schema):
    return build_vocab_rows(*read_table(path, schema.delimiter), schema)


def encode_file(path, schema, vocab):
    return encode_rows(*read_table(path, schema.delimiter), schema, vocab)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            FieldSchema(fields=(("a", CATEGORICAL), ("a", CATEGORICAL)),
                        label_column="y")

    def test_label_among_fields_rejected(self):
        with pytest.raises(ConfigError):
            FieldSchema(fields=(("y", CATEGORICAL),), label_column="y")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            FieldSchema(fields=(("a", "weird"),), label_column="y")


class TestBuildVocab:
    def test_first_seen_order(self, csv_file):
        vocab = vocab_from(csv_file("f,y\na,1\nb,0\na,1\n"), one_field_schema())
        assert vocab.maps[0] == {"a": 1, "b": 2}
        assert vocab.sizes == [3]  # OOV included

    def test_min_count_threshold(self, csv_file):
        schema = FieldSchema(fields=(("f", CATEGORICAL),), label_column="y",
                             min_count=2)
        vocab = vocab_from(csv_file("f,y\na,1\nb,0\na,1\n"), schema)
        assert vocab.maps[0] == {"a": 1}
        assert vocab.index_of(0, "b") == 0

    def test_missing_column_named(self, csv_file):
        with pytest.raises(DataError, match="'f'"):
            vocab_from(csv_file("g,y\na,1\n"), one_field_schema())

    def test_empty_stream(self, csv_file):
        for text in ("", "f,y\n"):
            path = csv_file(text)
            with pytest.raises(DataError, match=re.escape(f"{path}: ")):
                vocab_from(path, one_field_schema())

    def test_order_stable(self, csv_file):
        text = "f,y\n" + "\n".join(f"v{i % 17},{i % 2}" for i in range(100)) + "\n"
        a = vocab_from(csv_file(text), one_field_schema())
        b = vocab_from(csv_file(text), one_field_schema())
        assert a.maps == b.maps

    def test_numeric_bucketization(self, csv_file):
        schema = FieldSchema(fields=(("x", NUMERIC),), label_column="y", buckets=4)
        rows = "\n".join(f"{i},0" for i in range(1, 101))
        vocab = vocab_from(csv_file("x,y\n" + rows), schema)
        assert vocab.sizes == [4 + 1]
        # quantile edges put roughly a quarter of the data in each bucket
        assert vocab.index_of(0, "1") == 1
        assert vocab.index_of(0, "100") == 4
        assert vocab.index_of(0, "not-a-number") == 0

    def test_nan_cell_does_not_move_numeric_edges(self, csv_file):
        schema = FieldSchema(fields=(("x", NUMERIC),), label_column="y", buckets=4)
        rows = [f"{i},0" for i in range(1, 41)]
        plain = vocab_from(csv_file("x,y\n" + "\n".join(rows)), schema)
        with_nan = vocab_from(csv_file("x,y\n" + "\n".join([*rows, "nan,1"])), schema)
        assert plain.boundaries[0].tolist() == [10.75, 20.5, 30.25]
        assert with_nan.boundaries[0].tolist() == plain.boundaries[0].tolist()

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_infinite_cell_does_not_move_numeric_edges(self, csv_file, cell):
        schema = FieldSchema(fields=(("x", NUMERIC),), label_column="y", buckets=4)
        rows = [f"{i},{i % 2}" for i in range(1, 5)]
        plain = vocab_from(csv_file("x,y\n" + "\n".join(rows)), schema)
        path = csv_file("x,y\n" + "\n".join([*rows, f"{cell},1"]))
        with_inf = vocab_from(path, schema)
        assert plain.boundaries[0].tolist() == [1.75, 2.5, 3.25]
        assert with_inf.boundaries[0].tolist() == plain.boundaries[0].tolist()
        # the infinite cell takes the OOV index, in encoding and in the oracle
        assert encode_file(path, schema, with_inf).indices[:, 0].tolist() == [1, 2, 3, 4, 0]
        assert with_inf.index_of(0, cell) == 0

    def test_numeric_column_without_a_finite_cell_encodes_to_oov(self, csv_file):
        schema = FieldSchema(fields=(("x", NUMERIC),), label_column="y", buckets=4)
        path = csv_file("x,y\nnan,0\ninf,1\n,0\nabc,1\n")
        vocab = vocab_from(path, schema)
        assert vocab.boundaries[0] is None and vocab.sizes == [1]
        assert encode_file(path, schema, vocab).indices[:, 0].tolist() == [0, 0, 0, 0]
        # the field is empty: a finite valid cell has no trained row to go to
        valid = encode_file(csv_file("x,y\n3.5,0\n-7,1\n"), schema, vocab)
        assert valid.indices[:, 0].tolist() == [0, 0]
        assert [vocab.index_of(0, cell) for cell in ("3.5", "-7")] == [0, 0]


class TestEncode:
    def test_all_unseen_maps_to_zero(self, csv_file):
        vocab = vocab_from(csv_file("f,y\na,1\n"), one_field_schema())
        batch = encode_file(csv_file("f,y\nzzz,0\n"), one_field_schema(), vocab)
        assert batch.indices.tolist() == [[0]]

    def test_label_strings_parse_and_bad_label_names_row(self, csv_file):
        vocab = vocab_from(csv_file("f,y\na,1\n"), one_field_schema())
        batch = encode_file(csv_file("f,y\na,1\na,0\n"), one_field_schema(), vocab)
        assert batch.labels.tolist() == [1.0, 0.0]
        with pytest.raises(DataError, match="line 3: label must be 0 or 1, got '2'"):
            encode_file(csv_file("f,y\na,1\na,2\n"), one_field_schema(), vocab)

    def test_fuzz_indices_always_in_range(self, csv_file):
        rng = np.random.default_rng(99)
        schema = FieldSchema(fields=(("a", CATEGORICAL), ("b", CATEGORICAL)),
                             label_column="y", min_count=2)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            make = lambda: "\n".join(
                f"t{rng.integers(20)},u{rng.integers(30)},{rng.integers(2)}"
                for _ in range(n))
            vocab = vocab_from(csv_file("a,b,y\n" + make()), schema)
            batch = encode_file(csv_file("a,b,y\n" + make()), schema, vocab)
            assert (batch.indices < np.array(vocab.sizes)).all()


MIXED_CSV = """\
city,temp,y
paris,1.5,1
rome,abc,0
paris,nan,1.0
oslo, 7,0
rome,1e0, 0
paris,,1
lima,3,0
rome,-2,1.0
"""


def mixed_schema():
    return FieldSchema(fields=(("city", CATEGORICAL), ("temp", NUMERIC)),
                       label_column="y", min_count=2, buckets=3)


class TestColumnwiseIngest:
    def test_every_index_matches_per_value_reference(self, csv_file):
        schema = mixed_schema()
        header, rows = read_table(csv_file(MIXED_CSV))
        vocab = build_vocab_rows(header, rows, schema)
        # first-seen order; oslo and lima fall below min_count
        assert list(vocab.maps[0]) == ["paris", "rome"]
        assert vocab.maps[0] == {"paris": 1, "rome": 2}
        batch = encode_rows(header, rows, schema, vocab)
        expected = [[vocab.index_of(f, row[f]) for f in range(2)] for row in rows]
        assert batch.indices.tolist() == expected
        assert batch.indices.dtype == np.uint32
        assert [row[0] for row in batch.indices.tolist()] == [1, 2, 1, 0, 2, 1, 0, 2]
        temp = batch.indices[:, 1].tolist()
        assert temp[1] == 0 and temp[5] == 0  # cells that do not parse
        assert temp[2] == 0  # "nan" counts as unparsed
        assert batch.labels.tolist() == [1, 0, 1, 0, 0, 1, 0, 1]

    @pytest.mark.parametrize("fn", [build_vocab_rows, encode_rows])
    def test_short_row_named(self, fn, csv_file):
        # read_table refuses the row, so neither stage ever sees it
        schema = mixed_schema()
        path = csv_file("city,temp,y\na,1,0\nb,2,1\nc,3\n")
        extra = () if fn is build_vocab_rows else (vocab_from(csv_file(MIXED_CSV), schema),)
        with pytest.raises(DataError,
                           match=re.escape(f"{path}: line 4: expected 3 columns, got 2")):
            fn(*read_table(path, schema.delimiter), schema, *extra)

    def test_non_numeric_label_named(self, csv_file):
        schema = mixed_schema()
        vocab = vocab_from(csv_file(MIXED_CSV), schema)
        with pytest.raises(DataError, match="line 3: label 'yes' is not a number"):
            encode_file(csv_file("city,temp,y\na,1,0\nb,2,yes\nc,3,2\n"), schema, vocab)

    def test_nan_label_is_not_a_number(self, csv_file):
        schema = mixed_schema()
        vocab = vocab_from(csv_file(MIXED_CSV), schema)
        with pytest.raises(DataError, match="line 3: label 'nan' is not a number"):
            encode_file(csv_file("city,temp,y\na,1,0\nb,2,nan\n"), schema, vocab)

    def test_inf_label_is_not_a_number(self, csv_file):
        schema = mixed_schema()
        vocab = vocab_from(csv_file(MIXED_CSV), schema)
        with pytest.raises(DataError, match="line 3: label 'inf' is not a number"):
            encode_file(csv_file("city,temp,y\na,1,0\nb,2,inf\n"), schema, vocab)

    def test_label_line_counts_quoted_break_and_blank_line(self, csv_file):
        schema = one_field_schema()
        vocab = vocab_from(csv_file("f,y\na,1\n"), schema)
        with pytest.raises(DataError, match="^line 5: label must be 0 or 1, got '2'$"):
            encode_file(csv_file('f,y\n"a\nb",1\n\nc,2\n'), schema, vocab)

    def test_plain_list_rows_rejected(self):
        with pytest.raises(ContractError, match="Rows"):
            build_vocab_rows(["f", "y"], [["a", "1"], ["b"]], one_field_schema())

    def test_label_two_named(self, csv_file):
        schema = mixed_schema()
        vocab = vocab_from(csv_file(MIXED_CSV), schema)
        with pytest.raises(DataError, match="line 4: label must be 0 or 1, got '2'"):
            encode_file(csv_file("city,temp,y\na,1,0\nb,2, 1\nc,3,2\n"), schema, vocab)


class TestReadTable:
    def test_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("f,y\ncaf\u00e9,1\n".encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv: not UTF-8"):
            read_table(path)

    def test_directory_names_path(self, tmp_path):
        with pytest.raises(DataError, match=re.escape(str(tmp_path))):
            read_table(tmp_path)

    def test_empty_file_names_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty.csv: empty file$"):
            read_table(path)

    def test_blank_first_line_is_an_empty_header(self, csv_file):
        path = csv_file("\nf,y\na,1\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 1: empty header") + "$"):
            read_table(path)

    def test_equal_cells_share_one_string(self, csv_file):
        _, rows = read_table(csv_file("f,g,y\nab,ab,1\ncd,ab,0\nab,cd,1\n"))
        assert rows == [["ab", "ab", "1"], ["cd", "ab", "0"], ["ab", "cd", "1"]]
        cells = [cell for row in rows for cell in row]
        assert len({id(c) for c in cells}) == len(set(cells)) == 4
        assert rows[0][0] is rows[2][0] and rows[0][2] is rows[2][2]

    def test_header_only_file_names_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("f,y\n\n")
        with pytest.raises(DataError, match="header.csv: no data rows"):
            read_table(path)

    def test_short_row_named(self, csv_file):
        path = csv_file("city,temp,y\na,1,0\nb,2,1\nc,3\n")
        with pytest.raises(DataError,
                           match=re.escape(f"{path}: line 4: expected 3 columns, got 2")):
            read_table(path)

    def test_quoted_break_and_blank_line_count_toward_short_row_line(self, csv_file):
        path = csv_file('f,y\n"a\nb",1\n\nc\n')
        with pytest.raises(DataError,
                           match=re.escape(f"{path}: line 5: expected 2 columns, got 1")):
            read_table(path)

    def test_rows_keep_their_start_lines(self, csv_file):
        header, rows = read_table(csv_file('f,y\n"a\nb",1\n\nc,0\nd,1\n'))
        assert header == ["f", "y"]
        assert rows == [["a\nb", "1"], ["c", "0"], ["d", "1"]]
        assert rows.lines == [2, 5, 6]

    def test_byte_order_mark_is_not_part_of_the_header(self, csv_file):
        # a UTF-8 BOM, as some spreadsheet exports write, leaves the first
        # column's name and every row's line number as without it
        header, rows = read_table(csv_file('\ufefff,y\n"a\nb",1\n\nc,0\nd,1\n'))
        assert header == ["f", "y"]
        assert rows == [["a\nb", "1"], ["c", "0"], ["d", "1"]]
        assert rows.lines == [2, 5, 6]
        assert vocab_from(csv_file("\ufefff,y\na,1\nb,0\n"), one_field_schema()).sizes == [3]
        path = csv_file("\ufefff,y\na,1\n\nb\n")
        with pytest.raises(DataError,
                           match=re.escape(f"{path}: line 4: expected 2 columns, got 1")):
            read_table(path)

    def test_take_keeps_each_rows_line(self, csv_file):
        _, rows = read_table(csv_file("f,y\na,1\n\nb,0\nc,1\n"))
        picked = rows.take(np.array([2, 0]))
        assert isinstance(picked, Rows)
        assert picked == [["c", "1"], ["a", "1"]]
        assert picked.lines == [5, 2]
        assert rows.lines == [2, 4, 5]


class TestBatch:
    def test_binary_labels_enforced(self):
        with pytest.raises(ContractError, match="^labels must be 0 or 1$"):
            Batch(np.zeros((2, 1), dtype=np.uint32), np.array([0.5, 1.0]))

    def test_shape_checks(self):
        with pytest.raises(ContractError):
            Batch(np.zeros(3, dtype=np.uint32), np.zeros(3))

    def test_negative_index_rejected(self):
        # lookup would silently read the table's last row for -1
        with pytest.raises(ContractError, match="non-negative"):
            Batch(np.array([[-1]]), [1.0])

    def test_float_indices_rejected(self):
        with pytest.raises(ContractError, match="integers"):
            Batch(np.array([[1.0]]), [1.0])


class TestBatches:
    def make(self, n=10):
        return Batch(np.arange(n, dtype=np.uint32).reshape(n, 1),
                     np.zeros(n))

    def test_partial_batch_kept(self):
        sizes = [b.n for b in batches(self.make(10), 4)]
        assert sizes == [4, 4, 2]

    def test_in_order_batches_are_views_in_dataset_order(self):
        data = self.make(10)
        parts = list(batches(data, 4))
        assert np.concatenate([b.indices[:, 0] for b in parts]).tolist() == list(range(10))
        assert all(np.shares_memory(b.indices, data.indices)
                   and np.shares_memory(b.labels, data.labels) for b in parts)

    def test_same_seed_same_sequence(self):
        a = [b.indices.copy() for b in batches(self.make(20), 6, shuffle_seed=5, epoch=1)]
        b = [b.indices.copy() for b in batches(self.make(20), 6, shuffle_seed=5, epoch=1)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = [b.indices.copy() for b in batches(self.make(20), 6, shuffle_seed=5, epoch=2)]
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_union_equals_dataset_exactly_once(self):
        data = self.make(23)
        seen = np.concatenate([b.indices[:, 0]
                               for b in batches(data, 5, shuffle_seed=1, epoch=3)])
        assert sorted(seen.tolist()) == list(range(23))

    def test_bad_batch_size(self):
        with pytest.raises(ContractError):
            next(batches(self.make(4), 0))


class TestHashSplit:
    def test_deterministic_and_partition(self):
        tr, va, te = hash_split(10000)
        tr2, _, _ = hash_split(10000)
        assert np.array_equal(tr, tr2)
        merged = np.sort(np.concatenate([tr, va, te]))
        assert np.array_equal(merged, np.arange(10000))
        assert 0.75 < len(tr) / 10000 < 0.85
        assert 0.07 < len(va) / 10000 < 0.13


class TestSynth:
    def test_all_noise_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_rows=100, cardinalities=(4, 4), informative=())

    def test_bad_informative_index(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_rows=100, cardinalities=(4,), informative=(3,))

    def test_too_many_combinations_refused_before_weights_are_drawn(self):
        # 3,000,000 informative values pass the 2M cap; drawing their
        # weights first would take 24 MB
        import tracemalloc
        spec = SynthSpec(n_rows=100, cardinalities=(3_000_000, 2), informative=(0,))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="too many value combinations"):
                synth_truth(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_same_seed_byte_identical(self, tmp_path):
        spec = SynthSpec(n_rows=200, cardinalities=(4, 4), informative=(0,), seed=5)
        synth_write_csv(spec, tmp_path / "a")
        synth_write_csv(spec, tmp_path / "b")
        for name in ("train.csv", "valid.csv", "test.csv", "ground_truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_failed_write_keeps_previous_csv(self, tmp_path, monkeypatch):
        spec = SynthSpec(n_rows=200, cardinalities=(4, 4), informative=(0,), seed=5)
        synth_write_csv(spec, tmp_path)
        before = (tmp_path / "train.csv").read_bytes()

        def half_then_fail(self, data):
            with open(self, "wb") as fh:
                fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        with pytest.raises(OSError, match="No space"):
            synth_write_csv(SynthSpec(n_rows=200, cardinalities=(4, 4),
                                      informative=(0,), seed=6), tmp_path)
        monkeypatch.undo()
        assert (tmp_path / "train.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ground_truth.json", "test.csv", "train.csv", "valid.csv"]

    def test_split_sizes(self):
        spec = SynthSpec(n_rows=1000, cardinalities=(4, 4), informative=(0,), seed=1)
        train, valid, test, _ = synth_generate(spec)
        assert (train.n, valid.n, test.n) == (800, 100, 100)

    def test_near_deterministic_binary_field(self):
        # weight 10 on a binary field: labels almost deterministic in that
        # field; exact Bayes AUC of the generating rule is over 0.995
        spec = SynthSpec(n_rows=5000, cardinalities=(2,), informative=(0,),
                         weight_scale=10.0, seed=7)
        truth = synth_truth(spec)
        assert truth.bayes_auc > 0.995
        assert 0.05 < truth.base_rate < 0.95

    def test_bayes_auc_against_sampled_oracle(self):
        # oracle: empirical AUC of the true probability as the score over a
        # large sample of rows with freshly drawn labels
        from mmbattn.training import auc as auc_fn
        spec = SynthSpec(n_rows=200_000, cardinalities=(6, 6, 5),
                         informative=(0, 1), weight_scale=2.0, seed=3)
        truth = synth_truth(spec)
        values, labels = synth_table(spec)
        from mmbattn.autograd import stable_sigmoid
        from mmbattn.data import _synth_weights
        weights = _synth_weights(spec)
        logits = np.zeros(spec.n_rows)
        for f in spec.informative:
            logits += weights[f][values[:, f]]
        empirical = auc_fn(stable_sigmoid(logits), labels)
        assert abs(empirical - truth.bayes_auc) < 0.005

    def test_importance_is_contribution_variance(self):
        from mmbattn.data import _synth_weights
        spec = SynthSpec(n_rows=100, cardinalities=(4, 3, 5), informative=(0, 2),
                         weight_scale=2.0, seed=9)
        truth = synth_truth(spec)
        weights = _synth_weights(spec)
        assert truth.importance[0] == pytest.approx(float(np.var(weights[0])))
        assert truth.importance[1] == 0.0
        assert truth.importance[2] == pytest.approx(float(np.var(weights[2])))

    def test_noise_field_mutual_information_small(self):
        # invariant: MI(noise field; label) below 0.01 nats on >= 100k rows
        spec = SynthSpec(n_rows=120_000, cardinalities=(4, 8), informative=(0,),
                         weight_scale=2.0, seed=1)
        values, labels = synth_table(spec)
        v = values[:, 1]
        mi = 0.0
        n = len(v)
        for val in range(8):
            for lab in (0.0, 1.0):
                joint = np.sum((v == val) & (labels == lab)) / n
                if joint > 0:
                    mi += joint * np.log(joint / ((np.sum(v == val) / n)
                                                  * (np.sum(labels == lab) / n)))
        assert mi < 0.01

    def test_csv_counts_and_base_rate(self, tmp_path):
        spec = SynthSpec(n_rows=1000, cardinalities=(4, 4), informative=(0,),
                         weight_scale=2.0, seed=2)
        counts = synth_write_csv(spec, tmp_path)
        assert counts == {"train": 800, "valid": 100, "test": 100}
        import json
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        assert 0.05 < truth["base_rate"] < 0.95
        header = (tmp_path / "train.csv").read_text().splitlines()[0]
        assert header == "f0,f1,label"
