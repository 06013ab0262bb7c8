"""Adam optimizer contracts: hand-computed steps, determinism, the loop oracle."""

import numpy as np
import pytest

from loggate import autodiff as ad
from loggate.optim import Adam

from helpers import ReferenceAdam


def test_zero_grads_leave_parameters_unchanged():
    p = ad.parameter([1.0, 2.0])
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.values, [1.0, 2.0])


def test_missing_grad_is_skipped():
    p = ad.parameter([3.0])
    opt = Adam({"p": p}, lr=0.5)
    opt.step()
    np.testing.assert_array_equal(p.values, [3.0])


def test_first_step_matches_hand_computation():
    # g=1, lr=0.1: mhat=1, vhat=1 -> step = 0.1 / (1 + eps), slightly
    # under 0.1 because of the stability constant.
    p = ad.parameter([1.0])
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.values, [expected], atol=1e-16)
    assert abs(float(p.values[0]) - 0.9) < 1e-8


def test_second_step_matches_hand_computation():
    p = ad.parameter([0.0])
    opt = Adam({"p": p}, lr=0.01)
    m = v = 0.0
    value = 0.0
    for t, g in ((1, 0.5), (2, -0.25)):
        p.grad = np.array([g])
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        value -= 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        p.zero_grad()
    np.testing.assert_allclose(p.values, [value], atol=1e-15)


def test_same_inputs_same_trajectory():
    def run():
        rng = np.random.default_rng(17)
        p = ad.parameter(rng.standard_normal((3, 3)))
        opt = Adam({"p": p}, lr=0.05)
        for _ in range(20):
            opt.zero_grad()
            ad.total(ad.square(p)).backward()
            opt.step()
        return p.values

    np.testing.assert_array_equal(run(), run())


def test_zero_grad_clears_every_parameter():
    a, b = ad.parameter([1.0]), ad.parameter([2.0])
    a.grad = np.ones(1)
    b.grad = np.ones(1)
    Adam({"a": a, "b": b}).zero_grad()
    assert a.grad is None and b.grad is None


# Parameter shapes the random tables draw from: 0-d and zero-size included.
SHAPES = [(), (0,), (1,), (3,), (2, 3), (0, 4), (4, 1, 2)]


def test_flat_adam_matches_the_per_parameter_loop_bit_for_bit():
    rng = np.random.Generator(np.random.PCG64(23))
    for trial in range(20):
        count = int(rng.integers(1, 7))
        shapes = [SHAPES[int(i)] for i in rng.integers(0, len(SHAPES), count)]
        init = [rng.standard_normal(shape) for shape in shapes]
        names = [f"p{i}" for i in range(count)]
        flat = {n: ad.parameter(x.copy()) for n, x in zip(names, init)}
        loop = {n: ad.parameter(x.copy()) for n, x in zip(names, init)}
        lr = float(rng.uniform(1e-3, 0.5))
        opt, ref = Adam(flat, lr=lr), ReferenceAdam(loop, lr=lr)
        # Parameter 0 takes a gradient, then none, then one again.
        pattern = {0: True, 1: False, 2: True}
        for step in range(50):
            for i, name in enumerate(names):
                live = pattern.get(step, True) if i == 0 else rng.random() < 0.7
                g = rng.standard_normal(shapes[i]) * 10.0 ** rng.integers(-3, 3)
                flat[name].grad = g.copy() if live else None
                loop[name].grad = g.copy() if live else None
            opt.step()
            ref.step()
            where = f"trial {trial} step {step}"
            for name in names:
                assert np.array_equal(flat[name].values, loop[name].values), where
            assert np.array_equal(opt.m, np.concatenate(
                [ref.m[n].reshape(-1) for n in names])), where
            assert np.array_equal(opt.v, np.concatenate(
                [ref.v[n].reshape(-1) for n in names])), where


@pytest.mark.parametrize("grad", [np.float64(1.0), np.ones((2, 1)), np.ones(3)],
                         ids=["scalar", "column", "longer"])
def test_gradient_of_another_shape_is_refused(grad):
    p, q = ad.parameter([1.0]), ad.parameter([1.0, 2.0])
    opt = Adam({"p": p, "q": q}, lr=0.1)
    p.grad = np.ones(1)
    q.grad = np.asarray(grad)
    with pytest.raises(ValueError, match="'q'"):
        opt.step()
    np.testing.assert_array_equal(p.values, [1.0])
    np.testing.assert_array_equal(q.values, [1.0, 2.0])


def test_flat_step_matches_the_per_parameter_loop_bit_for_bit():
    rng = np.random.Generator(np.random.PCG64(29))
    for trial in range(20):
        count = int(rng.integers(1, 7))
        shapes = [SHAPES[int(i)] for i in rng.integers(0, len(SHAPES), count)]
        names = [f"p{i}" for i in range(count)]
        loop = {n: ad.parameter(rng.standard_normal(s)) for n, s in zip(names, shapes)}
        lr = float(rng.uniform(1e-3, 0.5))
        opt = Adam({n: ad.parameter(p.values) for n, p in loop.items()}, lr=lr)
        ref = ReferenceAdam(loop, lr=lr)
        for step in range(50):
            for i, name in enumerate(names):
                g = rng.standard_normal(shapes[i]) * 10.0 ** rng.integers(-3, 3)
                opt.grad_views[name][...] = g
                loop[name].grad = g
            opt.step_flat()
            ref.step()
            where = f"trial {trial} step {step}"
            for name in names:
                assert np.array_equal(opt.params[name].values, loop[name].values), where
            assert np.array_equal(opt.m, np.concatenate(
                [ref.m[n].reshape(-1) for n in names])), where
            assert np.array_equal(opt.v, np.concatenate(
                [ref.v[n].reshape(-1) for n in names])), where


def test_building_adam_lays_every_parameter_out_in_its_value_vector():
    rng = np.random.Generator(np.random.PCG64(31))
    for trial in range(20):
        count = int(rng.integers(1, 7))
        shapes = [SHAPES[int(i)] for i in rng.integers(0, len(SHAPES), count)]
        init = [rng.standard_normal(shape) for shape in shapes]
        names = [f"p{i}" for i in range(count)]
        flat = {n: ad.parameter(x.copy()) for n, x in zip(names, init)}
        loop = {n: ad.parameter(x.copy()) for n, x in zip(names, init)}
        lr = float(rng.uniform(1e-3, 0.5))
        opt, ref = Adam(flat, lr=lr), ReferenceAdam(loop, lr=lr)
        where = f"trial {trial}"
        # the numbers stay, and each parameter is its slice of `values`
        assert np.array_equal(opt.values, np.concatenate(
            [x.reshape(-1) for x in init])), where
        start = 0
        for name, x in zip(names, init):
            values = flat[name].values
            assert values.base is opt.values and values.shape == x.shape, where
            assert np.array_equal(values, x), where
            offset = (values.__array_interface__["data"][0]
                      - opt.values.__array_interface__["data"][0])
            # a zero-size view holds no memory, so it has no offset to check
            assert offset == start * opt.values.itemsize or not x.size, where
            grad = opt.grad_views[name]
            assert grad.base is opt.grads and grad.shape == x.shape, where
            start += x.size
        for step in range(20):
            for i, name in enumerate(names):
                g = rng.standard_normal(shapes[i]) * 10.0 ** rng.integers(-3, 3)
                live = rng.random() < 0.7
                flat[name].grad = g.copy() if live else None
                loop[name].grad = g.copy() if live else None
            opt.step()
            ref.step()
            for name in names:
                assert np.array_equal(flat[name].values, loop[name].values), where
                assert flat[name].values.base is opt.values, where
            assert np.array_equal(opt.values, ref.values), where
