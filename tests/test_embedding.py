import numpy as np
import pytest

from mmbattn.attention import MMBAttnConfig
from mmbattn.autograd import Graph, Tensor
from mmbattn.data import CATEGORICAL, Batch, FieldSchema, Vocabulary
from mmbattn.embedding import EmbeddingTable, lookup
from mmbattn.errors import ConfigError, ContractError
from mmbattn.model import TowerConfig, build
from mmbattn.seeding import derive_seed


def schema_of(n_fields):
    return FieldSchema(fields=tuple((f"f{i}", CATEGORICAL) for i in range(n_fields)),
                       label_column="y")


def vocab_of(sizes):
    return Vocabulary([{f"v{k}": k + 1 for k in range(s - 1)} for s in sizes],
                      [None] * len(sizes))


def initial_tables(schema, vocab, d, seed):
    """``build``'s initial embedding tables, keyed by registry name."""
    attn = MMBAttnConfig(use_max=False, use_mean=False, use_bitwise=False)
    model = build(schema, vocab, d, attn, TowerConfig((1,)), seed)
    return {name: t.data for name, t in model.registry.items() if name.startswith("embed.")}


def batch_of(indices):
    idx = np.asarray(indices, dtype=np.uint32)
    return Batch(idx, np.zeros(idx.shape[0]))


class TestLookup:
    def test_row_gather(self):
        emb = EmbeddingTable(("f0",), [2], Tensor([[0.0, 0.0], [1.0, 2.0]]))
        out = lookup(Graph(), emb, batch_of([[1]]))
        assert out.data.tolist() == [[[1.0, 2.0]]]

    def test_scatter_add_counts_multiplicity(self):
        table = Tensor(np.zeros((3, 2)))
        emb = EmbeddingTable(("f0",), [table.shape[0]], table)
        g = Graph()
        out = lookup(g, emb, batch_of([[1], [1], [2]]))
        s = g.reduce_mean(g.reduce_mean(g.reduce_mean(out, 2), 1), 0)
        g.backward(s)
        # each of the 6 output values carries gradient 1/6
        assert np.allclose(table.grad, np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]]) / 6)

    def test_equivalent_to_onehot_matmul(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(6, 3))
        emb = EmbeddingTable(("f0",), [6], Tensor(w))
        idx = rng.integers(0, 6, size=(10, 1)).astype(np.uint32)
        got = lookup(Graph(), emb, batch_of(idx)).data[:, 0, :]
        onehot = np.zeros((10, 6))
        onehot[np.arange(10), idx[:, 0]] = 1.0
        assert np.array_equal(got, onehot @ w)

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64, np.uint64])
    def test_any_integer_index_dtype_gathers_the_same_rows(self, dtype):
        table = Tensor(np.arange(10.0).reshape(5, 2))
        emb = EmbeddingTable(("f0", "f1"), [2, 3], table)
        g = Graph()
        out = lookup(g, emb, Batch(np.array([[1, 2], [0, 0]], dtype=dtype), np.zeros(2)))
        assert out.data.tolist() == [[[2.0, 3.0], [8.0, 9.0]], [[0.0, 1.0], [4.0, 5.0]]]
        g.backward(g.reduce_mean(g.reduce_mean(g.reduce_mean(out, 2), 1), 0))
        assert (table.grad[:, 0] != 0).tolist() == [True, True, True, False, True]

    def test_out_of_range_contract_error(self):
        emb = EmbeddingTable(("f0",), [2], Tensor(np.zeros((2, 2))))
        with pytest.raises(ContractError, match="f0"):
            lookup(Graph(), emb, batch_of([[5]]))

    def test_index_past_field_rows_names_field(self):
        # index 2 in field 0 would be field 1's row 0 in the stacked table
        table = Tensor(np.arange(10.0).reshape(5, 2))
        emb = EmbeddingTable(("f0", "f1"), [2, 3], table)
        assert lookup(Graph(), emb, batch_of([[1, 0]])).data.tolist() == [[[2.0, 3.0],
                                                                           [4.0, 5.0]]]
        with pytest.raises(ContractError, match="'f0'"):
            lookup(Graph(), emb, batch_of([[2, 0]]))
        with pytest.raises(ContractError, match="'f1'"):
            lookup(Graph(), emb, batch_of([[0, 3]]))

    def test_matches_per_field_loop_bit_for_bit(self):
        rng = np.random.default_rng(3)
        sizes = [4, 2, 5]
        table = Tensor(rng.normal(size=(sum(sizes), 3)))
        emb = EmbeddingTable(("f0", "f1", "f2"), sizes, table)
        idx = np.stack([rng.integers(0, n, size=64) for n in sizes], axis=1)
        upstream = rng.normal(size=(64, 3, 3))
        g = Graph()
        out = lookup(g, emb, batch_of(idx))
        g.backward(g.reduce_mean(g.reduce_mean(g.reduce_mean(
            g.mul(out, Tensor(upstream)), 2), 1), 0))
        starts = np.cumsum(sizes) - sizes
        per_field = [table.data[lo:lo + n] for lo, n in zip(starts, sizes)]
        want = np.stack([t[idx[:, f]] for f, t in enumerate(per_field)], axis=1)
        assert out.data.tobytes() == want.tobytes()
        for f, (lo, n) in enumerate(zip(starts, sizes)):
            want_grad = np.zeros((n, 3))
            np.add.at(want_grad, idx[:, f], out.grad[:, f, :])
            assert table.grad[lo:lo + n].tobytes() == want_grad.tobytes()

    def test_gradient_sparsity(self):
        rng = np.random.default_rng(1)
        table = Tensor(rng.normal(size=(10, 3)))
        emb = EmbeddingTable(("f0",), [table.shape[0]], table)
        g = Graph()
        out = lookup(g, emb, batch_of([[2], [7]]))
        g.backward(g.reduce_mean(g.reduce_mean(g.reduce_mean(g.mul(out, out), 2), 1), 0))
        touched = {2, 7}
        for row in range(10):
            if row in touched:
                assert np.any(table.grad[row] != 0)
            else:
                assert np.all(table.grad[row] == 0)

    def test_linearity_in_table(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(5, 4))
        idx = batch_of(rng.integers(0, 5, size=(8, 1)))
        one = lookup(Graph(), EmbeddingTable(("f0",), [5], Tensor(w)), idx).data
        scaled = lookup(Graph(), EmbeddingTable(("f0",), [5], Tensor(3.0 * w)), idx).data
        assert np.allclose(scaled, 3.0 * one)


class TestInit:
    def test_same_seed_identical(self):
        schema, vocab = schema_of(2), vocab_of([5, 7])
        a = initial_tables(schema, vocab, 3, seed=4)
        b = initial_tables(schema, vocab, 3, seed=4)
        assert list(a) == list(b) == ["embed.f0", "embed.f1"]
        assert all(np.array_equal(a[name], b[name]) for name in a)
        c = initial_tables(schema, vocab, 3, seed=5)
        assert not np.array_equal(a["embed.f0"], c["embed.f0"])

    def test_statistics(self):
        # 10k entries ~ N(0, 0.01^2): sample mean within 3 sigma of zero, and
        # sample std within 5% of 0.01 (its standard error is about 0.7%)
        vocab = vocab_of([2500])
        table = initial_tables(schema_of(1), vocab, 4, seed=0)["embed.f0"]
        assert table.shape == (2500, 4)
        assert abs(table.mean()) < 3 * 0.01 / np.sqrt(10000)
        assert abs(table.std() - 0.01) < 0.05 * 0.01

    def test_each_field_draws_from_its_own_stream(self):
        # a field's table is its own ``init:embed.<field>`` draw, so adding a
        # field or resizing another leaves it unchanged
        one = initial_tables(schema_of(1), vocab_of([4]), 3, seed=6)
        two = initial_tables(schema_of(2), vocab_of([4, 9]), 3, seed=6)
        rng = np.random.default_rng(derive_seed(6, "init:embed.f0"))
        assert np.array_equal(one["embed.f0"], rng.normal(0.0, 0.01, size=(4, 3)))
        assert np.array_equal(one["embed.f0"], two["embed.f0"])
        assert not np.array_equal(two["embed.f0"], two["embed.f1"][:4])

    def test_d_one_runs(self):
        tables = initial_tables(schema_of(2), vocab_of([3, 3]), 1, seed=1)
        emb = EmbeddingTable(("f0", "f1"), [3, 3],
                             Tensor(np.concatenate(list(tables.values()))))
        out = lookup(Graph(), emb, batch_of([[1, 2]]))
        assert out.shape == (1, 2, 1)

    def test_bad_dimension(self):
        with pytest.raises(ConfigError):
            initial_tables(schema_of(1), vocab_of([3]), 0, seed=1)
