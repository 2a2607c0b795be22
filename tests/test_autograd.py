import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from mmbattn.attention import MMBAttnConfig
from mmbattn.autograd import Graph, Tensor, accumulate_grad, stable_sigmoid
from mmbattn.data import SynthSpec, synth_generate
from mmbattn.errors import ContractError
from mmbattn.model import TowerConfig, build
from mmbattn.training import bce_with_logits


def fd_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar fn over array x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6))


class TestMatmul:
    def test_identity(self):
        g = Graph()
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(g.matmul(a, b).data, [[3.0, 4.0], [5.0, 6.0]])

    def test_one_by_one(self):
        g = Graph()
        out = g.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = Graph().matmul(Tensor(a), Tensor(b)).data
        assert rel_err(got, want) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 3\)"):
            Graph().matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_backward(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))

        def loss():
            g = Graph(record=False)
            return float(g.reduce_mean(g.reduce_mean(g.matmul(a, b), 1), 0).data)

        g = Graph()
        g.backward(g.reduce_mean(g.reduce_mean(g.matmul(a, b), 1), 0))
        assert rel_err(a.grad, fd_grad(loss, a.data)) < 1e-6
        assert rel_err(b.grad, fd_grad(loss, b.data)) < 1e-6


class TestElementwise:
    def test_mul_zero_annihilator(self):
        g = Graph()
        out = g.mul(Tensor([1.0, 2.0, 3.0]), Tensor([0.0, 0.0, 0.0]))
        assert out.data.tolist() == [0.0, 0.0, 0.0]

    def test_mul_broadcast_scalar_per_row(self):
        g = Graph()
        out = g.mul(Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                    Tensor([[2.0], [10.0]]))
        assert out.data.tolist() == [[2.0, 4.0, 6.0], [40.0, 50.0, 60.0]]

    def test_add_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(4, 3)))

        def loss():
            g = Graph(record=False)
            out = g.mul(g.add(a, b), g.add(a, b))
            return float(g.reduce_mean(g.reduce_mean(out, 1), 0).data)

        g = Graph()
        out = g.mul(g.add(a, b), g.add(a, b))
        g.backward(g.reduce_mean(g.reduce_mean(out, 1), 0))
        assert rel_err(a.grad, fd_grad(loss, a.data)) < 1e-6
        assert rel_err(b.grad, fd_grad(loss, b.data)) < 1e-6

    def test_broadcast_backward_reduces(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor([[2.0], [3.0]])
        g = Graph()
        g.backward(g.reduce_mean(g.reduce_mean(g.mul(a, b), 1), 0))
        assert np.allclose(b.grad, [[(0.0 + 1.0 + 2.0) / 6], [(3.0 + 4.0 + 5.0) / 6]])

    def test_trailing_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor([1.0, 2.0, 3.0])
        g = Graph()
        out = g.add(a, b)
        assert out.data.tolist() == [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]]
        g.backward(g.reduce_mean(g.reduce_mean(out, 1), 0))
        assert np.allclose(b.grad, [2.0 / 6] * 3)

    def test_non_broadcastable_shapes(self):
        with pytest.raises(ContractError):
            Graph().add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))
        with pytest.raises(ContractError):
            Graph().mul(Tensor(np.ones((2,))), Tensor(np.ones((3, 2))))


class TestReduce:
    def test_mean(self):
        out = Graph().reduce_mean(Tensor([1.0, 2.0, 3.0]), 0)
        assert float(out.data) == 2.0

    def test_max_backward_routes_to_argmax(self):
        g = Graph()
        a = Tensor([1.0, 5.0, 3.0])
        m = g.reduce_max(a, 0)
        assert float(m.data) == 5.0
        g.backward(m)
        assert a.grad.tolist() == [0.0, 1.0, 0.0]

    def test_max_tie_goes_to_lowest_index(self):
        # one-sided subgradient convention; FD equality does not hold at a tie
        g = Graph()
        a = Tensor([4.0, 4.0])
        g.backward(g.reduce_max(a, 0))
        assert a.grad.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 8, 10, 16, 64])
    def test_max_equals_numpy_max_bit_for_bit(self, d, record):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(6, 5, d))
        x[:3] = rng.integers(-3, 4, size=(3, 5, d)) / 2.0  # ties, but no -0.0
        x[3, 0] = np.nan
        x[3, 1, d // 2] = np.nan
        x[4, 0] = np.inf
        x[4, 1] = -np.inf
        x[4, 2, -1] = np.inf
        x[5, 3, 0] = -np.inf
        for axis in range(3):
            out = Graph(record=record).reduce_max(Tensor(x), axis)
            assert out.data.tobytes() == np.max(x, axis=axis).tobytes(), axis

    @pytest.mark.parametrize("row", [[0.0, -0.0], [-0.0, 0.0]])
    def test_signed_zero_tie_returns_the_element_its_gradient_goes_to(self, row):
        # np.max may return either zero of a tie; reduce_max reads the first
        g = Graph()
        a = Tensor(row)
        m = g.reduce_max(a, 0)
        assert np.signbit(m.data) == np.signbit(row[0])
        g.backward(m)
        assert a.grad.tolist() == [1.0, 0.0]

    def test_mean_backward_uniform(self):
        g = Graph()
        a = Tensor(np.arange(12.0).reshape(3, 4))
        g.backward(g.reduce_mean(g.reduce_mean(a, 1), 0))
        assert np.allclose(a.grad, 1.0 / 12)

    def test_axis_out_of_range(self):
        with pytest.raises(ContractError, match="axis 2"):
            Graph().reduce_mean(Tensor(np.ones((2, 3))), 2)


class TestActivations:
    def test_sigmoid_zero(self):
        assert float(Graph().sigmoid(Tensor(0.0)).data) == 0.5

    def test_relu(self):
        out = Graph().relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_extreme_negative_stays_positive(self):
        val = float(Graph().sigmoid(Tensor(-1000.0)).data)
        assert 0.0 < val <= 1e-300
        assert np.isfinite(val)

    def test_sigmoid_matches_stable_branch_oracle(self):
        x = np.arange(101) * 0.6 - 30  # -30 to 30 in steps of 0.6
        # oracle: explicit branch split, no clamping needed on this range
        want = np.where(x >= 0, 1 / (1 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1 + np.exp(-np.abs(x))))
        assert rel_err(Graph().sigmoid(Tensor(x)).data, want) < 1e-15

    def test_relu_gradient_zero_at_kink(self):
        g = Graph()
        a = Tensor([0.0])
        g.backward(g.reduce_mean(g.relu(a), 0))
        assert a.grad.tolist() == [0.0]

    @pytest.mark.parametrize("shape", [(), (128, 8), (4096, 100)])
    def test_sigmoid_kernel_equals_masked_formula_bit_for_bit(self, shape):
        def masked(x):  # the two-pass form the kernel replaced
            flat = x.ravel()
            out = np.empty_like(flat)
            pos = flat >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
            ex = np.exp(flat[~pos])
            out[~pos] = ex / (1.0 + ex)
            lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
            return np.clip(out, lo, hi).reshape(x.shape)

        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 1e308, -1e308]
        size = int(np.prod(shape, dtype=np.int64))
        rng = np.random.default_rng(size)
        for value in special + [None]:
            x = rng.normal(scale=10.0, size=shape)
            if value is not None:
                x.ravel()[::7] = value
            got, want = stable_sigmoid(x), masked(x)
            in_place = x.copy()
            assert stable_sigmoid(in_place, out=in_place) is in_place
            assert got.shape == want.shape == shape
            for result in (got, in_place):
                assert np.array_equal(result.view(np.uint64), want.view(np.uint64)), value

    def test_sigmoid_backward(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=7))

        def loss():
            g = Graph(record=False)
            return float(g.reduce_mean(g.sigmoid(a), 0).data)

        g = Graph()
        g.backward(g.reduce_mean(g.sigmoid(a), 0))
        assert rel_err(a.grad, fd_grad(loss, a.data)) < 1e-6


class TestBackward:
    def test_sum_gives_all_ones(self):
        g = Graph()
        w = Tensor(np.arange(6.0).reshape(2, 3))
        # the sum of w's entries as ones(1,2) · w · ones(3,1)
        g.backward(g.matmul(g.matmul(Tensor(np.ones((1, 2))), w), Tensor(np.ones((3, 1)))))
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        g = Graph()
        w = Tensor([1.0, -2.0])
        g.backward(g.reduce_mean(g.mul(w, w), 0))
        assert w.grad.tolist() == [1.0, -2.0]

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        w = Tensor([1.0, 2.0])
        out = g.mul(w, w)
        with pytest.raises(ContractError, match="scalar"):
            g.backward(out)

    def test_multi_consumer_gradients_sum(self):
        # w feeds two consumers; grad equals the sum of single-consumer grads
        w = Tensor([1.0, 2.0, 3.0])
        g = Graph()
        a = g.mul(w, Tensor([2.0, 2.0, 2.0]))
        b = g.mul(w, Tensor([5.0, 5.0, 5.0]))
        g.backward(g.reduce_mean(g.add(a, b), 0))
        assert np.allclose(w.grad, [7.0 / 3] * 3)

    def test_second_backward_on_a_graph_raises(self):
        w = Tensor([1.0, 2.0])
        g = Graph()
        loss = g.reduce_mean(g.sigmoid(g.mul(w, w)), 0)
        g.backward(loss)
        first = w.grad.copy()
        with pytest.raises(ContractError, match="already ran"):
            g.backward(loss)
        assert np.array_equal(w.grad, first)

    def test_gradients_accumulate_across_reuse(self):
        w = Tensor([3.0])
        g = Graph()
        g.backward(g.reduce_mean(g.mul(w, w), 0))
        assert w.grad.tolist() == [6.0]


class TestTapeRelease:
    """``backward`` drops each node once it has run."""

    def model_and_batch(self):
        spec = SynthSpec(n_rows=200, cardinalities=(3, 4, 5), informative=(0,), seed=2)
        train, *_ = synth_generate(spec)
        model = build(spec.schema(), spec, 3, MMBAttnConfig(reduction_ratio=2),
                      TowerConfig((6, 4)), seed=1)
        return model, train.take(slice(0, 64))

    def test_backward_empties_the_tape_and_frees_activations(self):
        model, batch = self.model_and_batch()
        products = []

        class Recording(Graph):
            def matmul(self, a, b):
                out = super().matmul(a, b)
                products.append(weakref.ref(out.data))
                return out

        g = Recording()
        logits = model.forward_logits(g, batch)
        loss = bce_with_logits(g, logits, batch.labels)
        assert products and all(ref() is not None for ref in products)
        g.backward(loss)
        assert g._nodes == []
        assert [ref() for ref in products] == [None] * len(products)
        assert logits.grad is not None  # a tensor the caller holds keeps its gradient

    def test_a_node_lets_go_of_its_output_before_its_backward_runs(self):
        x = Tensor(np.ones(3))
        seen = []

        def backward(grad):
            seen.append(ref())  # None once the tape no longer holds the output
            accumulate_grad(x, grad)

        g = Graph()
        out = g.record_op(x.data * 2.0, (x,), backward)
        ref = weakref.ref(out.data)
        loss = g.reduce_mean(out, 0)
        del out  # the caller keeps no reference
        g.backward(loss)
        assert seen == [None]
        assert x.grad.tolist() == [1 / 3] * 3

    def test_gradients_match_a_walk_over_the_kept_tape(self):
        def kept(g, loss):  # the same walk, with every node left on the tape
            loss.grad = np.ones_like(loss.data)
            for out, bw in reversed(g._nodes):
                if out.grad is not None:
                    bw(out.grad)

        def grads(walk):
            model, batch = self.model_and_batch()
            # a leaf that is not a parameter
            x = Tensor(np.random.default_rng(0).normal(size=(batch.n, 2)))
            g = Graph()
            logits = g.add(model.forward_logits(g, batch),
                           g.reshape(g.reduce_mean(g.mul(x, x), 1), (batch.n,)))
            model.zero_grad()
            walk(g, bce_with_logits(g, logits, batch.labels))
            return model.grads.tobytes() + x.grad.tobytes()

        assert grads(Graph.backward) == grads(kept)


class TestProperties:
    def test_random_composite_gradients_match_fd(self):
        # 100 random points through a composite of every engine op,
        # away from relu kinks and max ties
        rng = np.random.default_rng(123)
        for _ in range(100):
            x = Tensor(rng.normal(size=(2, 3)) + 0.1)
            w = Tensor(rng.normal(size=(3, 3)))

            def forward(g):
                h = g.relu(g.matmul(x, w))
                s = g.sigmoid(g.add(h, x))
                m = g.reduce_max(g.reshape(s, (3, 2)), 1)
                return g.reduce_mean(g.mul(m, m), 0)

            g = Graph()
            g.backward(forward(g))
            for t in (x, w):
                got = t.grad
                want = fd_grad(lambda: float(forward(Graph(record=False)).data), t.data)
                assert rel_err(got, want) < 1e-4

    def test_forward_bit_identical_across_runs(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(16, 8))
        b = rng.normal(size=(8, 4))

        def run():
            g = Graph()
            out = g.sigmoid(g.matmul(Tensor(a), Tensor(b)))
            return out.data

        first = run()
        for _ in range(3):
            assert np.array_equal(run(), first)

    def test_reshape_round_trip(self):
        g = Graph()
        a = Tensor(np.arange(6.0))
        out = g.reshape(a, (2, 3))
        assert out.shape == (2, 3)
        g.backward(g.reduce_mean(g.reduce_mean(g.mul(out, out), 1), 0))
        assert np.allclose(a.grad, 2 * np.arange(6.0) / 6)
        with pytest.raises(ContractError):
            g.reshape(a, (4, 2))


# Each op with the inputs whose gradient its backward hands over.
HANDOVER_CASES = {
    "matmul": (((3, 4), (4, 2)), lambda g, a, b: g.matmul(a, b)),
    "add": (((3, 4), (3, 4)), lambda g, a, b: g.add(a, b)),
    "add_broadcast": (((3, 4), (1, 4)), lambda g, a, b: g.add(a, b)),
    "mul": (((3, 4), (3, 4)), lambda g, a, b: g.mul(a, b)),
    "mul_broadcast": (((3, 4), (4,)), lambda g, a, b: g.mul(a, b)),
    "reduce_mean": (((3, 4),), lambda g, a: g.reduce_mean(a, 0)),
    "reduce_max": (((3, 4),), lambda g, a: g.reduce_max(a, 1)),
    "relu": (((3, 4),), lambda g, a: g.relu(a)),
    "sigmoid": (((3, 4),), lambda g, a: g.sigmoid(a)),
    "reshape": (((3, 4),), lambda g, a: g.reshape(a, (2, 6))),
    "bce_with_logits": (((6,),), lambda g, a: bce_with_logits(
        g, a, np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]))),
}


class TestOwnership:
    """``accumulate_grad`` keeps the array it is given, so every backward
    rule hands over an array nothing else reads or writes."""

    @pytest.mark.parametrize("name", HANDOVER_CASES)
    def test_relu_output_input_matches_finite_differences(self, name):
        # relu's backward masks its gradient in place, so a read-only or
        # shared gradient handed to a relu output breaks the match
        shapes, op = HANDOVER_CASES[name]
        rng = np.random.default_rng(17)
        leaves = [Tensor(rng.normal(size=s)) for s in shapes]

        def forward(g):  # the loss head's backward hands over fresh arrays only
            out = op(g, *(g.relu(t) for t in leaves))
            return bce_with_logits(g, g.reshape(out, (out.size,)), np.arange(out.size) % 2)

        g = Graph()
        g.backward(forward(g))
        for t in leaves:
            want = fd_grad(lambda: float(forward(Graph(record=False)).data), t.data)
            assert rel_err(t.grad, want) < 1e-6

    def test_add_gives_each_leaf_its_own_gradient(self):
        x = Tensor(np.ones((3, 2)))
        y = Tensor(np.ones((3, 2)))
        g = Graph()
        g.backward(g.reduce_mean(g.reduce_mean(g.add(x, y), 1), 0))
        assert x.grad is not y.grad
        assert not np.shares_memory(x.grad, y.grad)
        assert np.array_equal(x.grad, np.full((3, 2), 1 / 6))
        x.grad += 1.0
        assert np.array_equal(y.grad, np.full((3, 2), 1 / 6))

    def test_add_of_a_tensor_to_itself_doubles(self):
        x = Tensor([1.0, -2.0, 3.0])
        g = Graph()
        g.backward(g.reduce_mean(g.add(x, x), 0))
        assert np.array_equal(x.grad, np.full(3, 2 / 3))

    def test_mul_of_a_tensor_with_itself(self):
        x = Tensor([1.5, -2.0, 0.25])
        g = Graph()
        g.backward(g.reduce_mean(g.sigmoid(g.mul(x, x)), 0))
        y = stable_sigmoid(x.data * x.data)
        assert rel_err(x.grad, 2 * x.data * y * (1 - y) / 3) < 1e-15

    def test_scalar_operand_gradient_is_an_array(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        s = Tensor(2.0)
        g = Graph()
        g.backward(g.reduce_mean(g.reduce_mean(g.relu(g.mul(x, g.relu(s))), 1), 0))
        assert isinstance(s.grad, np.ndarray) and s.grad.shape == ()
        assert float(s.grad) == 2.5

    def test_tensor_feeding_relu_and_add_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 3)) + 0.05)
        w = Tensor(rng.normal(size=(3, 3)))

        def forward(g):
            h = g.matmul(x, w)
            out = g.mul(g.add(g.relu(h), h), g.sigmoid(h))
            return g.reduce_mean(g.reduce_mean(out, 1), 0)

        g = Graph()
        g.backward(forward(g))
        for t in (x, w):
            want = fd_grad(lambda: float(forward(Graph(record=False)).data), t.data)
            assert rel_err(t.grad, want) < 1e-6

    def test_forward_only_graph_matches_recording_graph_bit_for_bit(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(5, 6)))
        w = Tensor(rng.normal(size=(6, 6)))

        def forward(g):
            h = g.relu(g.matmul(x, w))
            s = g.sigmoid(g.add(h, x))
            m = g.reduce_max(g.reshape(g.mul(s, h), (5, 3, 2)), 2)
            return g.add(m, g.reduce_mean(g.reshape(s, (5, 3, 2)), 2))

        g, g_plain = Graph(), Graph(record=False)
        recorded, plain = forward(g), forward(g_plain)
        assert np.array_equal(recorded.data.view(np.uint64), plain.data.view(np.uint64))
        assert len(g._nodes) == 10 and g_plain._nodes == []  # one node per op

    def test_constant_on_a_recording_graph_gets_its_exact_gradient(self):
        # one switch: a recording graph differentiates every tensor it touches
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        w = Tensor([[0.5], [-1.0]])
        g = Graph()
        g.backward(g.reduce_mean(g.reshape(g.matmul(x, w), (2,)), 0))
        assert x.grad.tolist() == [[0.25, -0.5], [0.25, -0.5]]
        assert w.grad.tolist() == [[2.0], [3.0]]

    def test_tensor_takes_data_only(self):
        with pytest.raises(TypeError):
            Tensor([1.0], requires_grad=False)
        with pytest.raises(AttributeError):
            Tensor([1.0]).requires_grad = False
        assert Tensor.__slots__ == ("data", "grad")


def fresh_product(g):
    """A (3, 4) matmul result: the graph's in-place target until another op runs."""
    rng = np.random.default_rng(5)
    return g.matmul(Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=(2, 4))))


def used_product(use):
    def make(g):
        t = fresh_product(g)
        use(g, t)
        return t
    return make


# Each makes a (3, 4) tensor that an in-place add, relu or sigmoid must not
# overwrite.
NOT_FREE = {
    "leaf": lambda g: Tensor(np.ones((3, 4))),
    "parameter": lambda g: Tensor(np.zeros(20)[4:16].reshape(3, 4)),
    "matmul_left_operand": used_product(lambda g, t: g.matmul(t, Tensor(np.ones((4, 2))))),
    "matmul_right_operand": used_product(lambda g, t: g.matmul(Tensor(np.ones((2, 3))), t)),
    "mul_operand": used_product(lambda g, t: g.mul(t, Tensor(np.ones(4)))),
    "mul_second_operand": used_product(lambda g, t: g.mul(Tensor(np.ones((3, 4))), t)),
    "reshape_source": used_product(lambda g, t: g.reshape(t, (4, 3))),
    "relu_output": lambda g: g.relu(fresh_product(g)),
    "relu_output_in_place": lambda g: g.relu(fresh_product(g), inplace=True),
    "sigmoid_output": lambda g: g.sigmoid(fresh_product(g)),
    "sigmoid_output_in_place": lambda g: g.sigmoid(fresh_product(g), inplace=True),
    "record_op_input": used_product(
        lambda g, t: g.record_op(t.data.sum(), (t,), lambda grad: None)),
    "written_by_add": used_product(lambda g, t: g.add(t, Tensor(np.ones(4)), inplace=True)),
    "written_by_relu": used_product(lambda g, t: g.relu(t, inplace=True)),
    "written_by_sigmoid": used_product(lambda g, t: g.sigmoid(t, inplace=True)),
}


def in_place(g, op, t):
    """``op`` with ``inplace=True`` on a (3, 4) tensor ``t``."""
    if op == "add":
        return g.add(t, Tensor(np.ones(4)), inplace=True)
    return getattr(g, op)(t, inplace=True)


class TestInPlace:
    """``inplace=True`` writes into the first operand's buffer only when it is
    the result of the graph's last op, a matmul, mul or add."""

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("op", ["add", "relu", "sigmoid"])
    @pytest.mark.parametrize("case", NOT_FREE)
    def test_refuses_a_tensor_that_is_not_free(self, case, op, record):
        g = Graph(record=record)
        t = NOT_FREE[case](g)
        before = t.data.copy()
        with pytest.raises(ContractError, match=f"{op} cannot write in place"):
            in_place(g, op, t)
        assert t.data.tobytes() == before.tobytes()

    @pytest.mark.parametrize("op", ["add", "relu", "sigmoid"])
    def test_a_mul_result_is_a_free_target(self, op):
        # its backward reads the operands, which stay refused, not the result
        g = Graph()
        a, b = fresh_product(g), Tensor(np.full((3, 4), 0.5))
        m = g.mul(a, b)
        assert in_place(g, op, m).data is m.data
        for operand in (a, b):
            with pytest.raises(ContractError, match=f"{op} cannot write in place"):
                in_place(g, op, operand)

    def test_add_and_relu_reuse_the_product_buffer(self):
        g = Graph()
        h = fresh_product(g)
        s = g.add(h, Tensor(np.ones(4)), inplace=True)
        r = g.relu(s, inplace=True)
        assert r.data is s.data is h.data
        assert r is not s and len(g._nodes) == 3  # one node per op

    def test_relu_in_place_masks_a_nan_like_its_input(self):
        g = Graph()
        h = g.matmul(Tensor([[1.0]]), Tensor([[np.nan, -1.0, 0.0, 2.0]]))
        g.backward(g.reduce_mean(g.reduce_mean(g.relu(h, inplace=True), 1), 0))
        assert h.grad.tolist() == [[0.0, 0.0, 0.0, 0.25]]

    @pytest.mark.parametrize("op", ["add", "relu", "sigmoid"])
    @pytest.mark.parametrize("read", [
        lambda g, h: g.reduce_max(h, 1),
        lambda g, h: g.reduce_mean(h, 0),
        lambda g, h: g.sigmoid(h),
        lambda g, h: g.relu(h),
        lambda g, h: g.add(h, Tensor(np.ones(4))),
    ], ids=["reduce_max", "reduce_mean", "sigmoid", "relu", "add"])
    def test_a_result_another_op_has_read_is_refused(self, read, op):
        # even where that op's backward reads no input: only the last
        # op's result is a target
        g = Graph()
        h = fresh_product(g)
        read(g, h)
        with pytest.raises(ContractError, match=f"{op} cannot write in place"):
            in_place(g, op, h)

    @pytest.mark.parametrize("op", ["add", "relu", "sigmoid"])
    def test_an_earlier_product_is_refused_once_another_op_has_run(self, op):
        g = Graph()
        first = fresh_product(g)
        fresh_product(g)
        with pytest.raises(ContractError, match=f"{op} cannot write in place"):
            in_place(g, op, first)

    def test_another_graphs_ops_are_not_seen(self):
        g = Graph()
        h = fresh_product(g)
        fresh_product(Graph())
        assert in_place(g, "add", h).data is h.data

    def test_in_place_layer_matches_out_of_place_bit_for_bit(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(6, 5)))
        w = Tensor(rng.normal(size=(5, 4)))
        b = Tensor(rng.normal(size=4))

        def run(inplace):
            for t in (x, w, b):
                t.grad = None
            g = Graph()
            h = g.relu(g.add(g.matmul(x, w), b, inplace=inplace), inplace=inplace)
            out = g.mul(h, h)
            g.backward(g.reduce_mean(g.reduce_mean(out, 1), 0))
            return [t.tobytes() for t in (h.data, x.grad, w.grad, b.grad)]

        assert run(True) == run(False)

    def test_in_place_sigmoid_matches_out_of_place_bit_for_bit(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(6, 5)))
        w = Tensor(rng.normal(scale=300.0, size=(5, 4)))  # some logits saturate

        def run(inplace):
            for t in (x, w):
                t.grad = None
            g = Graph()
            s = g.sigmoid(g.matmul(x, w), inplace=inplace)
            g.backward(g.reduce_mean(g.reduce_mean(g.mul(s, s), 1), 0))
            return [t.tobytes() for t in (s.data, x.grad, w.grad)]

        assert run(True) == run(False)


class TestSurface:
    def test_every_public_graph_method_has_a_production_caller(self):
        # the engine carries only what the package uses; an op that only
        # tests call should be deleted, not kept
        pkg = Path(__file__).resolve().parent.parent / "src" / "mmbattn"
        sources = "\n".join(p.read_text(encoding="utf-8") for p in sorted(pkg.glob("*.py"))
                            if p.name != "autograd.py")
        public = sorted(name for name, member in vars(Graph).items()
                        if not name.startswith("_") and callable(member))
        unused = [name for name in public
                  if not re.search(rf"\.{name}\(", sources)]
        assert public and not unused, f"Graph methods with no caller in src: {unused}"
