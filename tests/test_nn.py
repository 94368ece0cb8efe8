import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim as fs
from fedsim import Dataset, NetworkSpec
from fedsim.nn import _descend, _gradients_into

from helpers import grad_rel_error, scalar_evaluate, scalar_loss


def small_batch(spec: NetworkSpec, seed: int, size: int) -> Dataset:
    ds = fs.synthetic(seed, max(size, spec.output_dim), spec.input_dim, spec.output_dim)
    return ds.subset(np.arange(size))


# --- network spec -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(fs.ContractError):
        NetworkSpec(0, (4,), 3)
    with pytest.raises(fs.ContractError):
        NetworkSpec(4, (0,), 3)
    with pytest.raises(fs.ContractError):
        NetworkSpec(4, (4,), 1)
    spec = NetworkSpec(4, (), 3)  # softmax regression is a valid single layer
    assert spec.layer_dims == ((4, 3),)
    assert spec.parameter_count == 4 * 3 + 3


def test_two_hidden_200_spec_is_expressible():
    spec = NetworkSpec(784, (200, 200), 10)
    assert spec.layer_dims == ((784, 200), (200, 200), (200, 10))


# --- init_weights -----------------------------------------------------------


def test_init_weights_deterministic():
    spec = NetworkSpec(12, (7,), 5)
    a = fs.init_weights(spec, 7)
    b = fs.init_weights(spec, 7)
    assert a.shape == (spec.parameter_count,)
    assert np.array_equal(a, b)


def test_init_weights_zero_biases():
    spec = NetworkSpec(6, (4, 3), 5)
    w = fs.init_weights(spec, 3)
    for _, b in fs.layer_views(spec, w):
        assert np.all(b == 0.0)


def test_init_weights_glorot_bound():
    spec = NetworkSpec(784, (200, 200), 10)
    (w0, _), (w1, _), _ = fs.layer_views(spec, fs.init_weights(spec, 123))
    bound = math.sqrt(6.0 / (784 + 200))
    assert np.all(np.abs(w0) <= bound)
    assert np.all(np.abs(w1) <= math.sqrt(6.0 / 400))


# --- layer_views ------------------------------------------------------------


@pytest.mark.parametrize("lead", [(), (3,)])
def test_layer_views_tile_the_vector_in_layer_order(lead):
    # Per layer: the weight matrix row-major, then the bias; every entry once.
    spec = NetworkSpec(4, (5, 2), 3)
    params = np.arange(np.prod(lead, dtype=int) * spec.parameter_count, dtype=np.float64)
    params = params.reshape(*lead, spec.parameter_count)
    views = fs.layer_views(spec, params)
    assert [(w.shape, b.shape) for w, b in views] == [
        ((*lead, fi, fo), (*lead, fo)) for fi, fo in spec.layer_dims
    ]
    pieces = [p for w, b in views for p in (w.reshape(*lead, -1), b)]
    assert np.array_equal(np.concatenate(pieces, axis=-1), params)
    for w, b in views:
        assert np.shares_memory(w, params) and np.shares_memory(b, params)
        w[...] = -1.0
        b[...] = -2.0
    assert np.all(params < 0)  # the writes went through to the vector


# --- forward ----------------------------------------------------------------


def test_forward_zero_weights_uniform():
    spec = NetworkSpec(5, (8,), 10)
    zeros = np.zeros(spec.parameter_count)
    batch = small_batch(spec, 2, 6)
    probs, loss = fs.forward(spec, zeros, batch)
    np.testing.assert_allclose(probs, 0.1, atol=1e-15)
    assert abs(loss - math.log(10)) < 1e-12


def test_forward_saturated_true_class_zero_loss():
    spec = NetworkSpec(2, (), 3)
    w = np.concatenate([np.zeros(2 * 3), [1000.0, 0.0, 0.0]])
    batch = Dataset(np.array([[0.3, -0.2]]), np.array([0]), 3)
    probs, loss = fs.forward(spec, w, batch)
    assert probs[0, 0] == 1.0
    assert loss == 0.0


def test_forward_matches_scalar_oracle():
    spec = NetworkSpec(7, (9, 5), 4)
    w = fs.init_weights(spec, 11)
    batch = small_batch(spec, 12, 9)
    _, loss = fs.forward(spec, w, batch)
    assert abs(loss - scalar_loss(spec, w, batch)) < 1e-12


def test_forward_probability_rows_sum_to_one_with_huge_logits():
    spec = NetworkSpec(3, (), 4)
    w = np.array(
        [800.0, -900.0, 50.0, 0.0, 0.0, 1000.0, -1000.0, 3.0, 1.0, 2.0, 3.0, 4.0]  # W row-major
        + [5.0, -5.0, 0.0, 1000.0]  # b
    )
    batch = Dataset(np.array([[1.0, 1.0, 1.0], [-1.0, 0.5, 2.0]]), np.array([0, 3]), 4)
    probs, loss = fs.forward(spec, w, batch)
    assert np.all(np.isfinite(probs))
    assert math.isfinite(loss)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forward_shape_mismatch_raises():
    spec = NetworkSpec(5, (4,), 3)
    w = fs.init_weights(spec, 1)
    bad = Dataset(np.zeros((2, 6)), np.array([0, 1]), 3)
    with pytest.raises(fs.ContractError):
        fs.forward(spec, w, bad)
    other = fs.init_weights(NetworkSpec(5, (9,), 3), 1)
    with pytest.raises(fs.ContractError):
        fs.forward(spec, other, small_batch(spec, 2, 2))


def test_forward_label_out_of_range_raises():
    spec = NetworkSpec(4, (), 3)
    w = fs.init_weights(spec, 1)
    with pytest.raises(fs.ContractError):
        fs.forward(spec, w, Dataset(np.zeros((1, 4)), np.array([3]), 4))


# --- gradients --------------------------------------------------------------


def test_gradients_match_finite_differences():
    spec = NetworkSpec(6, (8,), 4)
    w = fs.init_weights(spec, 5)
    batch = small_batch(spec, 6, 5)
    loss, grads = fs.compute_gradients(spec, w, batch)
    fd = fs.finite_diff_grad(spec, w, batch, 1e-5)
    assert grad_rel_error(grads, fd) <= 1e-6


def test_gradient_loss_bit_identical_to_forward():
    spec = NetworkSpec(5, (6, 6), 3)
    w = fs.init_weights(spec, 8)
    batch = small_batch(spec, 9, 7)
    _, forward_loss = fs.forward(spec, w, batch)
    grad_loss, _ = fs.compute_gradients(spec, w, batch)
    assert grad_loss == forward_loss


def test_duplicated_batch_same_gradients():
    spec = NetworkSpec(5, (6,), 3)
    w = fs.init_weights(spec, 4)
    batch = small_batch(spec, 3, 6)
    doubled = batch.subset(np.tile(np.arange(batch.n), 2))
    _, g1 = fs.compute_gradients(spec, w, batch)
    _, g2 = fs.compute_gradients(spec, w, doubled)
    np.testing.assert_allclose(g1, g2, rtol=1e-13, atol=1e-16)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n1=st.integers(1, 8),
    n2=st.integers(1, 8),
    input_dim=st.integers(2, 10),
    classes=st.integers(2, 6),
)
def test_gradient_linearity_property(seed, n1, n2, input_dim, classes):
    # grad(b1 u b2) == (n1 grad(b1) + n2 grad(b2)) / (n1 + n2)
    spec = NetworkSpec(input_dim, (5,), classes)
    w = fs.init_weights(spec, seed)
    ds = fs.synthetic(seed + 1, max(n1 + n2, classes), input_dim, classes)
    b1 = ds.subset(np.arange(n1))
    b2 = ds.subset(np.arange(n1, n1 + n2))
    union = ds.subset(np.arange(n1 + n2))
    _, g1 = fs.compute_gradients(spec, w, b1)
    _, g2 = fs.compute_gradients(spec, w, b2)
    _, gu = fs.compute_gradients(spec, w, union)
    np.testing.assert_allclose((n1 * g1 + n2 * g2) / (n1 + n2), gu, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    clients=st.integers(1, 5),
    size=st.integers(1, 12),
    input_dim=st.integers(1, 9),
    classes=st.integers(2, 6),
    hidden=st.sampled_from([(), (7,), (5, 4)]),
)
def test_stacked_gradients_equal_per_client_calls(seed, clients, size, input_dim, classes, hidden):
    # The round loop's core on layer views of a [K, P] stack and a [K, b, d]
    # batch gives each client exactly the loss and gradients of its own
    # checked call.
    spec = NetworkSpec(input_dim, hidden, classes)
    per_client = [fs.init_weights(spec, seed + k) for k in range(clients)]
    for k, w in enumerate(per_client):
        for _, b in fs.layer_views(spec, w):
            b[:] = np.linspace(-0.5, 0.5, b.size) * (k + 1)  # non-zero, distinct per client
    stacked = np.stack(per_client)
    grads = np.empty_like(stacked)
    ds = fs.synthetic(seed, max(clients * size, classes), input_dim, classes)
    features = ds.features[: clients * size].reshape(clients, size, input_dim)
    labels = ds.labels[: clients * size].reshape(clients, size)
    log_probs = _gradients_into(
        fs.layer_views(spec, stacked), fs.layer_views(spec, grads), features,
        np.eye(classes)[labels],
    )
    picked = np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0]
    losses = -picked.mean(axis=-1)
    for k, w in enumerate(per_client):
        loss, own = fs.compute_gradients(spec, w, ds.subset(np.arange(k * size, (k + 1) * size)))
        assert losses[k] == loss
        assert np.array_equal(grads[k], own)


def test_the_relu_mask_of_an_activation_is_the_mask_of_its_pre_activation():
    # _forward_core overwrites each hidden pre-activation z with max(z, 0),
    # and _gradients_into masks with that activation: a > 0 must be z > 0
    # for every float, signed zeros, NaNs, infinities and subnormals included.
    info = np.finfo(np.float64)
    edges = [0.0, np.nan, np.inf, info.smallest_subnormal, info.tiny, 1.0, info.max]
    z = np.array(edges + [-v for v in edges])
    a = z.copy()
    np.maximum(a, 0.0, out=a)
    assert np.array_equal(a > 0.0, z > 0.0)


def test_stacked_shapes_are_checked():
    # The checked engine takes one flat vector and a 2-D dataset, never a stack.
    spec = NetworkSpec(4, (5,), 3)
    w = fs.init_weights(spec, 1)
    stacked = np.stack([w, w])
    batch = small_batch(spec, 2, 3)
    for call in (fs.forward, fs.compute_gradients):
        with pytest.raises(fs.ContractError):
            call(spec, stacked, batch)  # a [K, P] stack is not one flat vector
    with pytest.raises(fs.ContractError):
        fs.finite_diff_grad(spec, stacked, batch, 1e-5)
    with pytest.raises(fs.DataError):
        Dataset(np.zeros((2, 3, 4)), np.zeros((2, 3), dtype=np.int64), 3)  # 3-D features
    for wrong in (w[:-1], np.append(w, 0.0), stacked[:, 1:], np.float64(0.0)):
        with pytest.raises(fs.ContractError):
            fs.layer_views(spec, wrong)  # wrong parameter count
    with pytest.raises(fs.ContractError):
        fs.compute_gradients(spec, w[1:], batch)


# --- sgd_step ---------------------------------------------------------------


def test_sgd_step_zero_eta_identity():
    spec = NetworkSpec(4, (5,), 3)
    w = fs.init_weights(spec, 2)
    _, g = fs.compute_gradients(spec, w, small_batch(spec, 3, 4))
    out = fs.sgd_step(w, g, 0.0)
    assert np.array_equal(w, out)


def test_sgd_step_arithmetic():
    w = np.ones(2 * 2 + 2)
    g = np.full(2 * 2 + 2, 0.5)
    out = fs.sgd_step(w, g, 0.1)
    np.testing.assert_allclose(out, 0.95, atol=1e-15)


def test_sgd_step_two_constant_steps_compose():
    spec = NetworkSpec(3, (), 3)
    w = fs.init_weights(spec, 6)
    g1 = np.full_like(w, 0.25)
    g2 = np.full_like(w, -0.5)
    stepped = fs.sgd_step(fs.sgd_step(w, g1, 0.2), g2, 0.2)
    np.testing.assert_allclose(stepped, w - 0.2 * (g1 + g2), atol=1e-15)


def test_sgd_step_in_place_matches_new_arrays():
    # The round loop steps its stack with _descend, the per-client reference
    # with sgd_step; the two must agree bit for bit.
    spec = NetworkSpec(4, (5,), 3)
    w = fs.init_weights(spec, 2)
    _, g = fs.compute_gradients(spec, w, small_batch(spec, 3, 4))
    fresh = fs.sgd_step(w, g, 0.3)
    work, scratch = w.copy(), g.copy()
    assert _descend(work, scratch, 0.3, out=work) is work
    assert np.array_equal(fresh, work)
    assert np.array_equal(0.3 * g, scratch)  # the gradients were scaled in place


def test_sgd_step_shape_mismatch_raises():
    spec = NetworkSpec(4, (5,), 3)
    w = fs.init_weights(spec, 2)
    g = fs.init_weights(NetworkSpec(4, (6,), 3), 2)
    with pytest.raises(fs.ContractError):
        fs.sgd_step(w, g, 0.1)
    with pytest.raises(fs.ContractError):
        fs.sgd_step(w, w, -0.1)


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), float("-inf"), -0.1])
def test_sgd_step_rejects_bad_learning_rates(eta):
    w = np.ones(6)
    with pytest.raises(fs.ContractError):
        fs.sgd_step(w, w, eta)


# --- finite differences -----------------------------------------------------


def test_finite_diff_matches_hand_derived_softmax_regression():
    # Single dense layer: grad_W = X^T (P - Y) / n, grad_b = mean(P - Y).
    spec = NetworkSpec(3, (), 2)
    weight = np.array([[0.2, -0.1], [0.4, 0.3], [-0.5, 0.1]])
    bias = np.array([0.05, -0.2])
    w = np.concatenate([weight.reshape(-1), bias])
    x = np.array([[1.0, 2.0, -1.0], [0.5, -0.5, 0.25]])
    y = np.array([0, 1])
    batch = Dataset(x, y, 2)
    logits = x @ weight + bias
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    onehot = np.eye(2)[y]
    hand_w = x.T @ (probs - onehot) / 2
    hand_b = (probs - onehot).mean(axis=0)

    hand = np.concatenate([hand_w.reshape(-1), hand_b])

    fd = fs.finite_diff_grad(spec, w, batch, 1e-6)
    np.testing.assert_allclose(fd, hand, atol=1e-9)

    _, analytic = fs.compute_gradients(spec, w, batch)
    np.testing.assert_allclose(analytic, hand, atol=1e-12)


def test_finite_diff_error_shrinks_with_eps():
    spec = NetworkSpec(4, (5,), 3)
    w = fs.init_weights(spec, 9)
    batch = small_batch(spec, 10, 6)
    _, analytic = fs.compute_gradients(spec, w, batch)
    err_coarse = grad_rel_error(fs.finite_diff_grad(spec, w, batch, 1e-2), analytic)
    err_fine = grad_rel_error(fs.finite_diff_grad(spec, w, batch, 5e-3), analytic)
    assert err_fine < err_coarse


def test_finite_diff_rejects_bad_eps():
    spec = NetworkSpec(3, (), 2)
    w = fs.init_weights(spec, 1)
    with pytest.raises(fs.ContractError):
        fs.finite_diff_grad(spec, w, small_batch(spec, 2, 2), 0.0)


# --- evaluate ---------------------------------------------------------------


def test_evaluate_zero_weights_balanced_set():
    spec = NetworkSpec(6, (4,), 10)
    zeros = np.zeros(spec.parameter_count)
    ds = fs.synthetic(3, 200, 6, 10)
    loss, accuracy = fs.evaluate(spec, zeros, ds)
    assert abs(loss - math.log(10)) < 1e-12
    # Uniform probabilities: argmax tie-break predicts class 0 everywhere.
    assert accuracy == float(np.mean(ds.labels == 0))


def test_evaluate_perfect_predictor():
    spec = NetworkSpec(3, (), 3)
    w = np.concatenate([(np.eye(3) * 200.0).reshape(-1), np.zeros(3)])
    ds = fs.Dataset(np.eye(3), np.array([0, 1, 2]), 3)
    loss, accuracy = fs.evaluate(spec, w, ds)
    assert accuracy == 1.0
    assert loss < 1e-12


def test_evaluate_matches_scalar_oracle():
    spec = NetworkSpec(5, (7,), 4)
    w = fs.init_weights(spec, 21)
    ds = fs.synthetic(22, 40, 5, 4)
    loss, accuracy = fs.evaluate(spec, w, ds)
    oracle_loss, oracle_accuracy = scalar_evaluate(spec, w, ds)
    assert abs(loss - oracle_loss) < 1e-12
    assert accuracy == oracle_accuracy


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf weights on purpose
def test_evaluate_non_finite_weights_raise():
    spec = NetworkSpec(3, (), 2)
    w = np.concatenate([np.full(3 * 2, np.inf), np.zeros(2)])
    ds = fs.Dataset(np.ones((2, 3)), np.array([0, 1]), 2)
    with pytest.raises(fs.ContractError):
        fs.evaluate(spec, w, ds)
