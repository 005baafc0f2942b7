import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsynth import models, nn
from dpsynth.errors import ShapeError, UsageError
from dpsynth.nn import IDENTITY, LEAKY_RELU, DenseLayer
from naive_models import (
    naive_disc_loss_grads,
    naive_discriminator,
    naive_generator,
    naive_generator_grad,
    naive_subgen,
)
from oracles import grad_check, group_lasso, objective_delta, penalized_objective


def zero_subgen(j, width=3):
    return models.SubGenerator(
        j,
        np.zeros((j, width)),
        np.zeros(j),
        DenseLayer(np.zeros((width, width)), np.zeros(width), LEAKY_RELU),
        DenseLayer(np.zeros((1, width)), np.zeros(1), IDENTITY),
        np.zeros(j, dtype=bool),
    )


def sample_one(g, z):
    """One synthetic row through the batched path."""
    return models.sample_batch(g, np.asarray(z, dtype=np.float64)[None])[0]


def critic(f, X):
    return models.disc_forward_batch(f, X)[0]


def test_subgen_zero_parameters_output_zero():
    g = models.SequentialGenerator([zero_subgen(1)])
    assert sample_one(g, [0.7])[0] == 0.0


def test_subgen_skip_only_path():
    # column 1 is the constant 5 (output bias only); column 2 reads it
    # through the skip path alone, plus its own constant bias path
    first = zero_subgen(1)
    first.out.bias[0] = 5.0
    s = zero_subgen(2)
    s.skip[:] = (1.0, 0.0)
    s.hidden.bias[:] = (0.3, -0.5, 0.2)
    s.out.weight[0] = (1.0, 1.0, 1.0)
    s.out.bias[0] = 0.05
    g = models.SequentialGenerator([first, s])
    bias_path = sum(b if b >= 0 else 0.2 * b for b in (0.3, -0.5, 0.2)) + 0.05
    for z in (0.0, -2.0, 13.7):
        got = sample_one(g, [0.0, z])
        assert got[0] == 5.0
        assert abs(got[1] - (5.0 + bias_path)) < 1e-15


def test_subgen_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = models.random_generator(3, rng, width=4)
        Z = rng.standard_normal((1, 3))
        X = models.sample_batch(g, Z)
        got = X[0, 2]
        want = naive_subgen(g.subs[2], X[0, :2], Z[0, 2])
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_generator_sample_zero_model():
    g = models.SequentialGenerator([zero_subgen(j) for j in (1, 2, 3)])
    np.testing.assert_array_equal(sample_one(g, [1.0, -4.0, 9.0]), np.zeros(3))


def test_generator_sample_sequential_oracle():
    rng = np.random.default_rng(11)
    g = models.random_generator(3, rng)
    Z = rng.standard_normal((5, 3))
    X = models.sample_batch(g, Z)
    for i in range(5):
        want = naive_generator(g, Z[i])
        np.testing.assert_allclose(X[i], want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))
    # column j depends on the sub-generators up to j only: the first j
    # sub-generators on their own reproduce the first j columns bit for bit
    for j in (1, 2):
        prefix = models.SequentialGenerator(copy.deepcopy(g.subs[:j]))
        np.testing.assert_array_equal(models.sample_batch(prefix, Z[:, :j]), X[:, :j])


def test_generator_causality_bit_exact():
    rng = np.random.default_rng(13)
    for make in (models.random_generator, models.new_generator):
        g = make(6, rng)
        Z = rng.standard_normal(6)
        base = sample_one(g, Z)
        for k in range(6):
            Z2 = Z.copy()
            Z2[k] += 1.9
            bumped = sample_one(g, Z2)
            np.testing.assert_array_equal(bumped[:k], base[:k])
            assert bumped[k] != base[k] or make is models.new_generator


def test_discriminator_zero_net_outputs_zero():
    layers = [
        DenseLayer(np.zeros((4, 4)), np.zeros(4), LEAKY_RELU),
        DenseLayer(np.zeros((2, 4)), np.zeros(2), LEAKY_RELU),
        DenseLayer(np.zeros((1, 2)), np.zeros(1), IDENTITY),
    ]
    f = models.Discriminator(layers, 1.0)
    X = np.random.default_rng(0).standard_normal((5, 4))
    np.testing.assert_array_equal(critic(f, X), np.zeros(5))


def test_discriminator_matches_layer_oracle():
    rng = np.random.default_rng(17)
    f = models.new_discriminator(5, 0.5, rng)
    X = rng.standard_normal((10, 5))
    got = critic(f, X)
    for i in range(10):
        want = naive_discriminator(f, X[i])
        assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want))


def interval_output_bound(f, xmax):
    """Interval arithmetic through the critic for inputs with |x_i| <= xmax."""
    lo = np.full(f.in_dim, -xmax)
    hi = np.full(f.in_dim, xmax)
    for layer in f.layers:
        center = layer.weight @ ((lo + hi) / 2) + layer.bias
        radius = np.abs(layer.weight) @ ((hi - lo) / 2)
        lo, hi = center - radius, center + radius
        if layer.activation == LEAKY_RELU:
            lo = np.where(lo >= 0, lo, nn.SLOPE * lo)
            hi = np.where(hi >= 0, hi, nn.SLOPE * hi)
    return float(max(abs(lo[0]), abs(hi[0])))


def test_discriminator_small_clamp_bounded():
    rng = np.random.default_rng(19)
    f = models.new_discriminator(6, 0.01, rng)
    models.clip_weights(f)
    bound = interval_output_bound(f, 1.0)
    assert bound < 1.0
    X = rng.uniform(-1, 1, size=(200, 6))
    assert np.abs(critic(f, X)).max() <= bound + 1e-12


def test_batched_paths_match_per_vector():
    rng = np.random.default_rng(23)
    g = models.random_generator(4, rng)
    f = models.new_discriminator(4, 0.5, rng)
    Zb = rng.standard_normal((9, 4))
    Xb = models.sample_batch(g, Zb)
    for i in range(9):
        np.testing.assert_allclose(Xb[i], naive_generator(g, Zb[i]), rtol=0, atol=1e-13)
    vals, _ = models.disc_forward_batch(f, Xb)
    for i in range(9):
        assert abs(vals[i] - naive_discriminator(f, Xb[i])) < 1e-12


def test_group_lasso_hand_values():
    assert group_lasso(np.zeros((4, 3))) == 0.0
    assert group_lasso(np.array([[3.0, 4.0]])) == 0.0  # noise row only
    W = np.array([[3.0, 4.0], [0.0, 0.0], [5.0, 12.0]])
    assert abs(group_lasso(W) - 5.0) < 1e-15  # last row is never counted


def test_group_lasso_subgrad_rows():
    W = np.array([[3.0, 4.0], [0.0, 0.0], [5.0, 12.0]])
    sub = models.group_lasso_subgrad(W)
    np.testing.assert_allclose(sub[0], [0.6, 0.8])
    np.testing.assert_array_equal(sub[1], [0.0, 0.0])
    np.testing.assert_array_equal(sub[2], [0.0, 0.0])  # noise row excluded


def test_group_lasso_subgrad_is_fd_gradient_off_origin():
    rng = np.random.default_rng(29)
    W = rng.standard_normal((4, 3))
    sub = models.group_lasso_subgrad(W)
    eps = 1e-7
    for k in range(3):
        for l in range(3):
            Wp, Wm = W.copy(), W.copy()
            Wp[k, l] += eps
            Wm[k, l] -= eps
            fd = (group_lasso(Wp) - group_lasso(Wm)) / (2 * eps)
            assert abs(fd - sub[k, l]) < 1e-6


@given(st.floats(-10, 10), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_group_lasso_scales_absolutely_homogeneously(c, seed):
    W = np.random.default_rng(seed).standard_normal((3, 2))
    got = group_lasso(c * W)
    want = abs(c) * group_lasso(W)
    assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_penalized_objective_adds_hand_penalty():
    rng = np.random.default_rng(31)
    g = models.random_generator(3, rng)
    f = models.new_discriminator(3, 0.5, rng)
    X = rng.standard_normal((6, 3))
    Z = rng.standard_normal((4, 3))
    lam = np.array([0.01, 0.02, 0.03])
    groups = [np.column_stack([s.w_in, s.skip]) for s in g.subs]
    penalty = sum(lam[j] * group_lasso(groups[j]) for j in range(3))
    base = objective_delta(f, g, X, Z)
    got = penalized_objective(f, g, X, Z, lam)
    assert abs(got - (base + penalty)) < 1e-14


def test_generator_grad_matches_finite_differences():
    rng = np.random.default_rng(37)
    g = models.random_generator(3, rng, width=4)
    f = models.new_discriminator(3, 0.5, rng)
    X = rng.standard_normal((5, 3))
    Z = rng.standard_normal((4, 3))
    lam = 0.01 * np.arange(1, 4) ** 0.5

    def fn(theta):
        g.theta[:] = theta
        val = penalized_objective(f, g, X, Z, lam)
        return val, models.generator_grad(f, g, Z, lam)

    assert grad_check(fn, g.theta.copy()) < 1e-6


@pytest.mark.parametrize("lam,frozen", [(0.0, False), (0.0, True), (0.01, True)])
def test_generator_grad_hand_cases_match_finite_differences(lam, frozen):
    # lam = 0 skips the penalty term; a frozen slot must get zero gradient,
    # so the oracle holds frozen rows at zero and its differences vanish there
    rng = np.random.default_rng(59)
    g = models.random_generator(4, rng, width=3)
    f = models.new_discriminator(4, 0.5, rng)
    if frozen:
        g.subs[2].frozen[1] = g.subs[3].frozen[0] = True
    X = rng.standard_normal((5, 4))
    Z = rng.standard_normal((6, 4))
    weights = lam * np.arange(1, 5) ** 0.5

    def fn(theta):
        g.theta[:] = theta
        for s in g.subs:
            s.w_in[s.frozen] = 0.0
            s.skip[s.frozen] = 0.0
        val = penalized_objective(f, g, X, Z, weights)
        return val, models.generator_grad(f, g, Z, weights)

    assert grad_check(fn, g.theta.copy()) < 1e-6
    if frozen:
        sl = flat_slices(g)[2]
        w_row = slice(sl["w_in"][0] + 3, sl["w_in"][0] + 6)
        grad = models.generator_grad(f, g, Z, weights)
        np.testing.assert_array_equal(grad[w_row], np.zeros(3))
        assert grad[sl["skip"][0] + 1] == 0.0


def test_disc_per_example_grad_matches_finite_differences():
    rng = np.random.default_rng(41)
    g = models.random_generator(3, rng, width=4)
    f = models.new_discriminator(3, 0.5, rng)
    X = rng.standard_normal((4, 3))
    Z = rng.standard_normal((4, 3))
    fakes = models.sample_batch(g, Z)

    for i in range(4):

        def fn(nu):
            f.nu[:] = nu
            val = -(critic(f, X[i : i + 1])[0] - critic(f, fakes[i : i + 1])[0])
            return val, models.disc_loss_grads_batch(f, X, fakes)[i]

        assert grad_check(fn, f.nu.copy()) < 1e-6


def test_batch_disc_grads_match_per_example():
    rng = np.random.default_rng(43)
    g = models.random_generator(4, rng)
    f = models.new_discriminator(4, 0.5, rng)
    X = rng.standard_normal((6, 4))
    Z = rng.standard_normal((6, 4))
    fakes = models.sample_batch(g, Z)
    grads = models.disc_loss_grads_batch(f, X, fakes)
    for i in range(6):
        single = models.disc_loss_grads_batch(f, X[i : i + 1], fakes[i : i + 1])
        np.testing.assert_allclose(grads[i], single[0], rtol=0, atol=1e-12)


def test_disc_grads_reuse_one_buffer_bit_for_bit():
    rng = np.random.default_rng(44)
    g = models.random_generator(5, rng)
    f = models.new_discriminator(5, 0.5, rng)
    X = rng.standard_normal((12, 5))
    fakes = models.sample_batch(g, rng.standard_normal((12, 5)))
    buf = np.full((16, f.nu.size), np.nan)
    for B in (7, 3, 8):
        fresh = models.disc_loss_grads_batch(f, X[:B], fakes[:B])
        got = models.disc_loss_grads_batch(f, X[:B], fakes[:B], out=buf)
        np.testing.assert_array_equal(got.view(np.uint64), fresh.view(np.uint64))
        assert np.shares_memory(got, buf)
    with pytest.raises(ShapeError):  # 2 x 12 rows are past the block's 16
        models.disc_loss_grads_batch(f, X, fakes, out=buf)


@pytest.mark.parametrize("d", [1, 2, 5, 10, 30])
def test_stacked_disc_grads_match_the_two_pass_oracle_bit_for_bit(d):
    rng = np.random.default_rng(45 + d)
    g = models.random_generator(d, rng)
    f = models.new_discriminator(d, 0.5, rng)
    for B in (1, 2, 3, 7, 50, 64):
        X = rng.standard_normal((B, d))
        fakes = models.sample_batch(g, rng.standard_normal((B, d)))
        got = models.disc_loss_grads_batch(f, X, fakes)
        want = naive_disc_loss_grads(f, X, fakes)
        if B > 1:
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        else:  # a one-row product goes to gemv, whose last bits may differ
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_disc_grads_take_one_forward_and_one_backward(monkeypatch):
    calls = {"forward": 0, "backward": 0}
    for name in calls:
        original = getattr(nn, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(nn, name, counted)
    rng = np.random.default_rng(46)
    f = models.new_discriminator(4, 0.5, rng)
    buf = np.empty((24, f.nu.size))
    for B in (1, 9, 12):
        before = dict(calls)
        models.disc_loss_grads_batch(f, rng.standard_normal((B, 4)), rng.standard_normal((B, 4)), out=buf)
        assert {k: calls[k] - before[k] for k in calls} == {"forward": 1, "backward": 1}


def _grad_cases(d, rng):
    """Generators whose gradients exercise every branch of the penalty and
    freeze pass: random, with all-zero groups, pruned, and loaded from a
    checkpoint whose freeze mask also holds some noise slots."""
    g = models.random_generator(d, rng)
    f = models.new_discriminator(d, 0.5, rng)
    yield "random", g, f
    zeroed = models.random_generator(d, rng)
    for s in zeroed.subs[1::2]:
        s.w_in[0] = 0.0
        s.skip[0] = 0.0
    yield "zero groups", zeroed, f
    yield "new", models.new_generator(d, rng), f  # every prefix group starts at norm 0
    norms = np.concatenate(models.row_norms(g))
    pruned, mask = models.prune(g, float(np.median(norms)) if norms.size else 0.0)  # about half the prefix slots
    assert sum(int(m.sum()) for m in mask) >= norms.size // 2
    yield "pruned", pruned, f
    payload = models.checkpoint_dict(pruned, f)
    for jj, m in enumerate(payload["freeze_mask"]):
        if jj % 2 == 0:
            m[-1] = True
    loaded, f2 = models.from_checkpoint_dict(payload)
    assert loaded.subs[0].frozen[-1]
    yield "noise frozen", loaded, f2


@pytest.mark.parametrize("d", [1, 2, 5, 30])
@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_generator_grad_matches_per_column_oracle_bit_for_bit(d, lam):
    rng = np.random.default_rng(100 + d)
    weights = lam * np.arange(1, d + 1) ** 0.3
    for name, g, f in _grad_cases(d, rng):
        Z = rng.standard_normal((17, d))
        got = models.generator_grad(f, g, Z, weights)
        want = naive_generator_grad(f, g, Z, weights)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=name)


def flat_slices(g):
    out, pos = [], 0
    for s in g.subs:
        entry = {}
        for nm, arr in (
            ("w_in", s.w_in),
            ("skip", s.skip),
            ("hw", s.hidden.weight),
            ("hb", s.hidden.bias),
            ("ow", s.out.weight),
            ("ob", s.out.bias),
        ):
            entry[nm] = (pos, pos + arr.size)
            pos += arr.size
        out.append(entry)
    return out


def test_frozen_slots_get_zero_gradient():
    rng = np.random.default_rng(47)
    g = models.random_generator(4, rng, width=3)
    f = models.new_discriminator(4, 0.5, rng)
    g.subs[2].frozen[1] = True
    g.subs[2].w_in[1] = 0.0
    g.subs[2].skip[1] = 0.0
    Z = rng.standard_normal((5, 4))
    grad = models.generator_grad(f, g, Z, np.full(4, 0.01))
    with pytest.raises(ShapeError):  # one strength per column
        models.generator_grad(f, g, Z, np.full(3, 0.01))
    sl = flat_slices(g)[2]
    width = 3
    w_start = sl["w_in"][0]
    np.testing.assert_array_equal(grad[w_start + width : w_start + 2 * width], np.zeros(width))
    assert grad[sl["skip"][0] + 1] == 0.0
    assert np.abs(grad).sum() > 0  # everything else still learns


def test_penalty_group_is_input_row_plus_skip_entry():
    # Column 2's dependence on column 1 is (w_in[0], skip[0]) = ((3, 0), 4),
    # whose group norm is 5; column 1 has only its noise slot.
    lam = 0.02
    rng = np.random.default_rng(53)
    g = models.random_generator(2, rng, width=2)
    f = models.new_discriminator(2, 0.5, rng)
    s = g.subs[1]
    s.w_in[0] = [3.0, 0.0]
    s.skip[0] = 4.0
    X = rng.standard_normal((5, 2))
    Z = rng.standard_normal((5, 2))
    weights = np.full(2, lam)
    penalty = penalized_objective(f, g, X, Z, weights) - objective_delta(f, g, X, Z)
    assert abs(penalty - 5 * lam) < 1e-14

    sl = flat_slices(g)[1]
    w_row = slice(sl["w_in"][0], sl["w_in"][0] + 2)
    skip_k = sl["skip"][0]
    pen_grad = models.generator_grad(f, g, Z, weights) - models.generator_grad(f, g, Z, np.zeros(2))
    assert abs(pen_grad[skip_k] - lam * 4 / 5) < 1e-14
    np.testing.assert_allclose(pen_grad[w_row], [lam * 3 / 5, 0.0], rtol=0, atol=1e-14)

    s.frozen[0] = True
    pen_grad = models.generator_grad(f, g, Z, weights) - models.generator_grad(f, g, Z, np.zeros(2))
    assert pen_grad[skip_k] == 0.0
    np.testing.assert_array_equal(pen_grad[w_row], [0.0, 0.0])


def test_theta_layout_documented_order():
    width = 2
    s1 = models.SubGenerator(
        1,
        np.array([[1.0, 2.0]]),
        np.array([3.0]),
        DenseLayer(np.array([[4.0, 5.0], [6.0, 7.0]]), np.array([8.0, 9.0]), LEAKY_RELU),
        DenseLayer(np.array([[10.0, 11.0]]), np.array([12.0]), IDENTITY),
        np.zeros(1, dtype=bool),
    )
    s2 = models.SubGenerator(
        2,
        np.array([[13.0, 14.0], [15.0, 16.0]]),
        np.array([17.0, 18.0]),
        DenseLayer(np.array([[19.0, 20.0], [21.0, 22.0]]), np.array([23.0, 24.0]), LEAKY_RELU),
        DenseLayer(np.array([[25.0, 26.0]]), np.array([27.0]), IDENTITY),
        np.zeros(2, dtype=bool),
    )
    g = models.SequentialGenerator([s1, s2])
    np.testing.assert_array_equal(g.theta, np.arange(1.0, 28.0))


def gen_params(g):
    return [a for s in g.subs for a in (s.w_in, s.skip, s.hidden.weight, s.hidden.bias, s.out.weight, s.out.bias)]


def test_parameter_arrays_are_views_of_theta_and_nu(tmp_path):
    rng = np.random.default_rng(89)
    models.save_checkpoint(tmp_path / "m.json", models.random_generator(3, rng), models.new_discriminator(3, 0.5, rng))
    g_loaded, f_loaded = models.load_checkpoint(tmp_path / "m.json")
    generators = {
        "new_generator": models.new_generator(3, rng),
        "random_generator": models.random_generator(3, rng),
        "hand-built": models.SequentialGenerator([zero_subgen(j) for j in (1, 2, 3)]),
        "prune": models.prune(models.random_generator(3, rng), 0.3)[0],
        "load_checkpoint": g_loaded,
    }
    Z = rng.standard_normal((4, 3))
    for name, g in generators.items():
        params = gen_params(g)
        assert all(np.shares_memory(a, g.theta) for a in params), name
        assert sum(a.size for a in params) == g.theta.size, name
        before = models.sample_batch(g, Z)
        g.theta += 0.5
        assert not np.array_equal(models.sample_batch(g, Z), before), name
    critics = {"new_discriminator": models.new_discriminator(3, 0.5, rng), "load_checkpoint": f_loaded}
    X = rng.standard_normal((4, 3))
    for name, f in critics.items():
        params = [a for layer in f.layers for a in (layer.weight, layer.bias)]
        assert all(np.shares_memory(a, f.nu) for a in params), name
        assert sum(a.size for a in params) == f.nu.size, name
        before = critic(f, X)
        f.nu += 0.5
        assert not np.array_equal(critic(f, X), before), name


def test_theta_nu_round_trip():
    rng = np.random.default_rng(53)
    g = models.random_generator(3, rng)
    f = models.new_discriminator(3, 0.5, rng)
    fresh = rng.standard_normal(g.theta.size)
    nu = rng.standard_normal(f.nu.size)
    payload = dict(models.checkpoint_dict(g, f), theta=fresh.tolist(), nu=nu.tolist())
    g2, f2 = models.from_checkpoint_dict(payload)
    np.testing.assert_array_equal(g2.theta, fresh)
    np.testing.assert_array_equal(f2.nu, nu)
    with pytest.raises(UsageError):
        models.from_checkpoint_dict(dict(payload, theta=fresh[:-1].tolist()))
    with pytest.raises(UsageError):
        models.from_checkpoint_dict(dict(payload, nu=nu[1:].tolist()))


def test_clip_weights_clamps_in_place():
    rng = np.random.default_rng(59)
    f = models.new_discriminator(4, 0.1, rng)
    f.layers[0].weight[0, 0] = 7.0
    f.layers[1].bias[0] = -3.0
    f.layers[2].weight[0, 0] = 0.04
    models.clip_weights(f)
    assert f.layers[0].weight[0, 0] == 0.1
    assert f.layers[1].bias[0] == -0.1
    assert f.layers[2].weight[0, 0] == 0.04
    for layer in f.layers:
        assert np.abs(layer.weight).max() <= 0.1
        assert np.abs(layer.bias).max() <= 0.1


def test_row_norms_hand_value():
    g = models.SequentialGenerator([zero_subgen(1, 2), zero_subgen(2, 2)])
    g.subs[1].w_in[0] = (3.0, 4.0)
    norms = models.row_norms(g)
    assert norms[0].size == 0
    np.testing.assert_allclose(norms[1], [5.0])


def test_prune_zeroes_and_freezes():
    rng = np.random.default_rng(61)
    g = models.random_generator(4, rng)
    g.subs[3].w_in[1] *= 1e-4  # push one row under the threshold
    pruned, mask = models.prune(g, 0.05)
    for s, m in zip(pruned.subs, mask):
        np.testing.assert_array_equal(s.frozen, m)
        assert not m[-1]  # noise slot never pruned
        for k in np.flatnonzero(m):
            assert np.all(s.w_in[k] == 0.0)
            assert s.skip[k] == 0.0
    assert pruned.subs[3].frozen[1]
    # the original model is untouched
    assert not g.subs[3].frozen.any()
    assert np.abs(g.subs[3].w_in[1]).sum() > 0


def test_prune_is_idempotent_and_keeps_existing_freezes():
    rng = np.random.default_rng(67)
    g = models.random_generator(5, rng)
    once, m1 = models.prune(g, 0.3)
    twice, m2 = models.prune(once, 0.3)
    np.testing.assert_array_equal(once.theta, twice.theta)
    for a, b in zip(m1, m2):
        assert np.all(a <= b)  # freezes only ever accumulate
    with pytest.raises(UsageError):
        models.prune(g, -1.0)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(71)
    g = models.random_generator(4, rng)
    f = models.new_discriminator(4, 0.25, rng)
    g, _ = models.prune(g, 0.2)
    path = tmp_path / "model.json"
    models.save_checkpoint(path, g, f)
    g2, f2 = models.load_checkpoint(path)
    np.testing.assert_array_equal(g.theta, g2.theta)
    np.testing.assert_array_equal(f.nu, f2.nu)
    assert f2.clamp == 0.25
    for a, b in zip(g.subs, g2.subs):
        np.testing.assert_array_equal(a.frozen, b.frozen)
    # behavioural identity
    Z = rng.standard_normal((3, 4))
    np.testing.assert_array_equal(models.sample_batch(g, Z), models.sample_batch(g2, Z))


def test_checkpoint_rejects_bad_payloads(tmp_path):
    rng = np.random.default_rng(73)
    g = models.random_generator(2, rng)
    f = models.new_discriminator(2, 0.5, rng)
    payload = models.checkpoint_dict(g, f)

    bad_format = dict(payload, format="other-format")
    with pytest.raises(UsageError):
        models.from_checkpoint_dict(bad_format)

    missing = dict(payload)
    del missing["theta"]
    with pytest.raises(UsageError):
        models.from_checkpoint_dict(missing)

    # JSON values of the wrong type, each of which numpy or float() would coerce
    mistyped = [
        ("d", 2.7), ("d", True), ("hidden_width", "10"), ("clamp", "0.5"), ("clamp", False),
        ("disc_widths", [2, True]), ("disc_widths", ["2", 1]), ("theta", ["0.5"] + payload["theta"][1:]),
        ("theta", [payload["theta"]]), ("nu", [True] + payload["nu"][1:]),
        ("freeze_mask", [["no"], ["no", "no"]]), ("freeze_mask", [[0], [0, 0]]),
    ]
    for key, value in mistyped:
        with pytest.raises(UsageError, match="wrong type"):
            models.from_checkpoint_dict(dict(payload, **{key: value}))
    for clamp in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(UsageError, match="clamp"):
            models.from_checkpoint_dict(dict(payload, clamp=clamp))

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(UsageError):
        models.load_checkpoint(garbled)

    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(payload))
    g2, f2 = models.load_checkpoint(ok)
    assert g2.d == 2 and f2.in_dim == 2
    assert models.checkpoint_dict(g2, f2) == payload


@pytest.mark.parametrize("d,width", [(1, 1), (2, 3), (5, 10), (7, 2)])
def test_checkpoint_size_check_agrees_with_the_built_model(d, width):
    rng = np.random.default_rng(d * 10 + width)
    payload = models.checkpoint_dict(models.random_generator(d, rng, width), models.new_discriminator(d, 0.5, rng))
    g, f = models.from_checkpoint_dict(payload)
    assert (g.d, g.subs[0].width) == (d, width)
    for field, value in (("theta", payload["theta"] + [0.0]), ("nu", payload["nu"][:-1]),
                         ("hidden_width", 0), ("disc_widths", [0] + payload["disc_widths"][1:])):
        with pytest.raises(UsageError):
            models.from_checkpoint_dict(dict(payload, **{field: value}))


def test_shape_errors():
    rng = np.random.default_rng(79)
    g = models.random_generator(3, rng)
    f = models.new_discriminator(3, 0.5, rng)
    with pytest.raises(ShapeError):
        models.sample_batch(g, np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        models.sample_batch(g, np.zeros(3))  # one row still needs a batch axis
    with pytest.raises(ShapeError):
        models.disc_forward_batch(f, np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        models.disc_loss_grads_batch(f, np.zeros((4, 3)), np.zeros((3, 3)))  # real/fake pairing
    with pytest.raises(ShapeError):
        models.new_generator(0, rng)
    with pytest.raises(ShapeError):
        models.SequentialGenerator([zero_subgen(1, 2), zero_subgen(2, 3)])  # widths differ
    for clamp in (0.0, math.inf, math.nan):
        with pytest.raises(UsageError):
            models.new_discriminator(3, clamp, rng)


def test_discriminator_default_widths():
    rng = np.random.default_rng(83)
    f = models.new_discriminator(10, 0.5, rng)
    assert [layer.out_dim for layer in f.layers] == [10, 5, 1]
    f3 = models.new_discriminator(3, 0.5, rng)
    assert [layer.out_dim for layer in f3.layers] == [3, 1, 1]
