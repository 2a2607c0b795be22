import numpy as np
import pytest

from mmbattn.autograd import Graph, Tensor
from mmbattn.data import CATEGORICAL, Batch, FieldSchema, Vocabulary
from mmbattn.embedding import EmbeddingTable, init_embeddings, lookup
from mmbattn.errors import ConfigError, ContractError


def schema_of(n_fields):
    return FieldSchema(fields=tuple((f"f{i}", CATEGORICAL) for i in range(n_fields)),
                       label_column="y")


def vocab_of(sizes):
    return Vocabulary([{f"v{k}": k + 1 for k in range(s - 1)} for s in sizes],
                      [None] * len(sizes))


def batch_of(indices):
    idx = np.asarray(indices, dtype=np.uint32)
    return Batch(idx, np.zeros(idx.shape[0]))


class TestLookup:
    def test_row_gather(self):
        emb = EmbeddingTable(("f0",), [Tensor([[0.0, 0.0], [1.0, 2.0]])])
        out = lookup(Graph(), emb, batch_of([[1]]))
        assert out.data.tolist() == [[[1.0, 2.0]]]

    def test_scatter_add_counts_multiplicity(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        emb = EmbeddingTable(("f0",), [table])
        g = Graph()
        out = lookup(g, emb, batch_of([[1], [1], [2]]))
        s = g.reduce_mean(g.reduce_mean(g.reduce_mean(out, 2), 1), 0)
        g.backward(s)
        # each of the 6 output values carries gradient 1/6
        assert np.allclose(table.grad, np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]]) / 6)

    def test_equivalent_to_onehot_matmul(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(6, 3))
        emb = EmbeddingTable(("f0",), [Tensor(w)])
        idx = rng.integers(0, 6, size=(10, 1)).astype(np.uint32)
        got = lookup(Graph(), emb, batch_of(idx)).data[:, 0, :]
        onehot = np.zeros((10, 6))
        onehot[np.arange(10), idx[:, 0]] = 1.0
        assert np.array_equal(got, onehot @ w)

    def test_out_of_range_contract_error(self):
        emb = EmbeddingTable(("f0",), [Tensor(np.zeros((2, 2)))])
        with pytest.raises(ContractError, match="f0"):
            lookup(Graph(), emb, batch_of([[5]]))

    def test_gradient_sparsity(self):
        rng = np.random.default_rng(1)
        table = Tensor(rng.normal(size=(10, 3)), requires_grad=True)
        emb = EmbeddingTable(("f0",), [table])
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
        one = lookup(Graph(), EmbeddingTable(("f0",), [Tensor(w)]), idx).data
        scaled = lookup(Graph(), EmbeddingTable(("f0",), [Tensor(3.0 * w)]), idx).data
        assert np.allclose(scaled, 3.0 * one)


class TestInit:
    def test_same_seed_identical(self):
        schema, vocab = schema_of(2), vocab_of([5, 7])
        a = init_embeddings(schema, vocab, 3, seed=4)
        b = init_embeddings(schema, vocab, 3, seed=4)
        for ta, tb in zip(a.tables, b.tables):
            assert np.array_equal(ta.data, tb.data)
        c = init_embeddings(schema, vocab, 3, seed=5)
        assert not np.array_equal(a.tables[0].data, c.tables[0].data)

    def test_statistics(self):
        # 10k entries ~ N(0, 0.01^2): sample mean within 3 sigma of zero
        vocab = vocab_of([2500])
        table = init_embeddings(schema_of(1), vocab, 4, seed=0).tables[0]
        assert table.data.shape == (2500, 4)
        assert abs(table.data.mean()) < 3 * 0.01 / np.sqrt(10000)

    def test_d_one_runs(self):
        emb = init_embeddings(schema_of(2), vocab_of([3, 3]), 1, seed=1)
        out = lookup(Graph(), emb, batch_of([[1, 2]]))
        assert out.shape == (1, 2, 1)

    def test_bad_dimension(self):
        with pytest.raises(ConfigError):
            init_embeddings(schema_of(1), vocab_of([3]), 0, seed=1)
