"""Gradient-engine tests: finite-difference oracles and op contracts."""

import numpy as np
import pytest

from loggate import autodiff as ad
from loggate.autodiff import ShapeError, Tensor

from helpers import check_gradients, op_cases


class TestTensorBasics:
    def test_values_are_float64(self):
        t = Tensor([1, 2, 3])
        assert t.values.dtype == np.float64

    def test_parameter_copies_input(self):
        raw = np.ones(3)
        p = ad.parameter(raw)
        raw[0] = 5.0
        assert p.values[0] == 1.0

    def test_glorot_is_deterministic_and_bounded(self):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        a = ad.glorot(rng1, 10, 20)
        b = ad.glorot(rng2, 10, 20)
        np.testing.assert_array_equal(a.values, b.values)
        limit = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(a.values) <= limit)
        assert a.values.shape == (10, 20)


class TestDtypeFollowsOperands:
    def test_floating_values_keep_their_dtype(self):
        assert Tensor(np.ones(2, dtype=np.float32)).values.dtype == np.float32
        assert Tensor(np.float32(1.5)).values.dtype == np.float32
        assert Tensor(np.ones(2, dtype=bool)).values.dtype == np.float64

    def test_parameters_are_float64(self):
        assert ad.parameter(np.ones(2, dtype=np.float32)).values.dtype == np.float64
        assert ad.zeros(3).values.dtype == np.float64

    def test_scalar_operands_take_the_tensor_dtype(self):
        # NumPy 2 promotes float32 with a NumPy float64 scalar or array to
        # float64; every non-tensor operand, scalar, array or bool mask, on
        # either side, must instead be cast to the tensor's dtype
        rng = np.random.default_rng(44)
        square = rng.standard_normal((2, 2))
        others = (3, 0.5, np.float64(0.5), np.float32(0.5), np.int64(3),
                  square, square.astype(np.float32), square > 0)
        for dtype in (np.float32, np.float64):
            t = Tensor(rng.standard_normal((2, 2)).astype(dtype))
            for other in others:
                c = np.asarray(other, dtype=dtype)
                outs = [(t + other, t.values + c), (t - other, t.values - c),
                        (t * other, t.values * c), (ad.add(other, t), c + t.values),
                        (ad.mul(other, t), c * t.values)]
                if np.ndim(other):
                    outs += [(t @ other, t.values @ c),
                             (ad.matmul(other, t), c @ t.values)]
                outs += [(other + t, c + t.values), (other * t, c * t.values)]
                for out, expect in outs:
                    assert out.values.dtype == dtype, (dtype, other)
                    np.testing.assert_array_equal(out.values, expect)

    def test_every_op_case_stays_float32_on_float32_operands(self, monkeypatch):
        rng = np.random.default_rng(32)
        for name, params, build in op_cases(rng):
            # cast every leaf of the graph, parameters and constants alike
            stack, leaves = [build()], []
            while stack:
                node = stack.pop()
                stack.extend(node._parents)
                if not node._parents:
                    leaves.append(node)
            for leaf in leaves:
                leaf.values = leaf.values.astype(np.float32)
            made = []
            record = Tensor._result
            monkeypatch.setattr(Tensor, "_result", staticmethod(
                lambda values, parents, backward: made.append(values.dtype)
                or record(values, parents, backward)))
            loss = build()
            monkeypatch.undo()
            assert made and set(made) == {np.dtype(np.float32)}, (name, set(made))
            assert loss.values.dtype == np.float32, name

    def test_a_view_gradient_is_copied_in_its_own_layout(self):
        p = ad.parameter(np.arange(6.0).reshape(2, 3))
        ad.total(ad.mul(ad.transpose(p), Tensor(np.ones((3, 2))))).backward()
        assert p.grad.flags.owndata and p.grad.flags.f_contiguous


class TestElementwiseExamples:
    def test_sigmoid_at_zero(self):
        assert float(ad.sigmoid(Tensor(0.0)).values) == 0.5

    def test_sigmoid_extreme_inputs_do_not_overflow(self):
        out = ad.sigmoid(Tensor([-1000.0, 1000.0])).values
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_relu_examples(self):
        out = ad.relu(Tensor([-3.0, 3.0])).values
        np.testing.assert_array_equal(out, [0.0, 3.0])

    def test_sigmoid_gradient_at_zero_is_quarter(self):
        p = ad.parameter(0.0)
        ad.total(ad.sigmoid(p)).backward()
        assert abs(float(p.grad) - 0.25) < 1e-12

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestMatmulExamples:
    def test_identity(self):
        x = np.arange(4.0).reshape(2, 2)
        out = ad.matmul(Tensor(np.eye(2)), Tensor(x)).values
        np.testing.assert_array_equal(out, x)

    def test_arithmetic(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]])).values
        np.testing.assert_array_equal(out, [[11.0]])

    def test_gradient_matches_finite_differences_tightly(self):
        rng = np.random.default_rng(11)
        a = ad.parameter(rng.standard_normal((3, 4)))
        b = ad.parameter(rng.standard_normal((4, 2)))
        const = Tensor(rng.standard_normal((3, 2)))
        worst = check_gradients(
            {"a": a, "b": b},
            lambda: ad.total(ad.mul(ad.matmul(a, b), const)))
        assert worst < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax_rows(Tensor([[0.0, 0.0]])).values
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_shift_invariance_no_overflow(self):
        out = ad.softmax_rows(Tensor([[1000.0, 1000.0]])).values
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_matches_high_precision_direct_computation(self):
        from decimal import Decimal, getcontext
        getcontext().prec = 50
        row = [1.0, 2.0, 3.0]
        out = ad.softmax_rows(Tensor([row])).values[0]
        exps = [Decimal(v).exp() for v in row]
        norm = sum(exps)
        expected = [float(e / norm) for e in exps]
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((40, 9)) * 20)
        out = ad.softmax_rows(x).values
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out > 0).all()

    def test_mask_zeroes_excluded_columns(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 6)))
        valid = np.array([True, False, True, True, False, True])
        out = ad.softmax_rows(x, valid=valid).values
        assert (out[:, ~valid] == 0.0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_all_masked_rejected(self):
        with pytest.raises(ShapeError):
            ad.softmax_rows(Tensor(np.ones((2, 3))), valid=np.zeros(3, bool))


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss = ad.cross_entropy(Tensor(np.zeros((6, 4))), np.zeros(6, np.int64))
        assert abs(float(loss.values) - np.log(4.0)) < 1e-12

    def test_large_margin_drives_loss_to_zero(self):
        logits = np.full((3, 3), -100.0)
        logits[np.arange(3), np.arange(3)] = 100.0
        loss = ad.cross_entropy(Tensor(logits), np.arange(3))
        assert float(loss.values) < 1e-12

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        rng = np.random.default_rng(7)
        logits = ad.parameter(rng.standard_normal((5, 3)))
        labels = rng.integers(0, 3, size=5)
        ad.cross_entropy(logits, labels).backward()
        shifted = logits.values - logits.values.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        probs[np.arange(5), labels] -= 1.0
        np.testing.assert_allclose(logits.grad, probs / 5.0, atol=1e-12)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_no_rows_raises(self):
        with pytest.raises(ShapeError, match="no rows"):
            ad.cross_entropy(Tensor(np.zeros((0, 3))), np.zeros(0, np.int64))


class TestEmbedding:
    def test_ids_outside_the_table_raise(self):
        table = ad.parameter(np.arange(12.0).reshape(4, 3))
        for ids, bad in (([[0, -3]], -3), ([1, 4], 4)):
            with pytest.raises(ShapeError, match=f"id {bad} outside"):
                ad.embedding(table, np.array(ids))

    def test_zero_size_ids_give_no_rows(self):
        table = ad.parameter(np.ones((4, 3)))
        out = ad.embedding(table, np.zeros((2, 0), np.int64))
        assert out.shape == (2, 0, 3)


class TestBackward:
    def test_sum_of_parameters_gives_unit_grads(self):
        p = ad.parameter(np.arange(6.0).reshape(2, 3))
        ad.total(p).backward()
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_unreached_parameter_has_no_contribution(self):
        used = ad.parameter([1.0])
        unused = ad.parameter([1.0])
        ad.total(used).backward()
        assert unused.grad is None  # treated as zero by the optimizer

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ShapeError, match="scalar"):
            ad.parameter([1.0, 2.0]).backward()

    def test_repeated_backward_accumulates_exactly(self):
        p = ad.parameter(np.array([[0.3, -0.7]]))
        w = ad.parameter(np.array([[1.2], [0.4]]))
        loss = ad.total(ad.square(ad.matmul(p, w)))
        loss.backward()
        once_p, once_w = p.grad.copy(), w.grad.copy()
        loss.backward()
        np.testing.assert_allclose(p.grad, 2.0 * once_p, atol=1e-14)
        np.testing.assert_allclose(w.grad, 2.0 * once_w, atol=1e-14)

    def test_shared_subexpression_matches_tree_expansion_oracle(self):
        rng = np.random.default_rng(9)
        x_values = rng.standard_normal((2, 3))
        w_values = rng.standard_normal((3, 3))

        x, w = ad.parameter(x_values), ad.parameter(w_values)
        h = ad.matmul(x, w)  # consumed twice: DAG with a shared node
        ad.add(ad.total(ad.square(h)), ad.total(ad.sigmoid(h))).backward()

        # Oracle: evaluate each consumer as its own tree and sum grads.
        xa, wa = ad.parameter(x_values), ad.parameter(w_values)
        ad.total(ad.square(ad.matmul(xa, wa))).backward()
        xb, wb = ad.parameter(x_values), ad.parameter(w_values)
        ad.total(ad.sigmoid(ad.matmul(xb, wb))).backward()

        np.testing.assert_allclose(x.grad, xa.grad + xb.grad, atol=1e-12)
        np.testing.assert_allclose(w.grad, wa.grad + wb.grad, atol=1e-12)


class TestFiniteDifferenceSuite:
    def test_every_op_matches_central_differences(self):
        rng = np.random.default_rng(2024)
        for trial in range(5):
            for name, params, build in op_cases(rng):
                worst = check_gradients(params, build)
                assert worst < 1e-4, f"{name} trial {trial}: rel err {worst:.2e}"

    def test_broadcast_gradients_unbroadcast_correctly(self):
        rng = np.random.default_rng(31)
        row = ad.parameter(rng.standard_normal(4))
        mat = ad.parameter(rng.standard_normal((5, 4)))
        worst = check_gradients(
            {"row": row, "mat": mat},
            lambda: ad.total(ad.square(ad.add(mat, row))))
        assert worst < 1e-4


class TestOperatorSugar:
    def test_expression_composition(self):
        a = ad.parameter([[1.0, -2.0]])
        out = (1.0 + a - a * 0.5).values
        np.testing.assert_allclose(out, [[1.5, 0.0]], atol=1e-15)

    def test_matmul_and_transpose_operators(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal((a @ a.T).values,
                                      a.values @ a.values.T)
