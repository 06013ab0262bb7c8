"""Adam optimizer contracts: hand-computed steps, determinism."""

import numpy as np

from loggate import autodiff as ad
from loggate.optim import Adam


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

