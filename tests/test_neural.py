import math
import re
import struct

import numpy as np
import pytest

from softcap import neural
from softcap.neural import AdamState, DenseParams, adam_step, backward, forward, init_params


def random_net(rng, sizes):
    return DenseParams(
        [rng.standard_normal((o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
        [rng.standard_normal(o) for o in sizes[1:]],
    )


# ---------------------------------------------------------------- forward
def test_forward_zero_params_gives_zero():
    params = DenseParams([np.zeros((3, 2)), np.zeros((1, 3))], [np.zeros(3), np.zeros(1)])
    out, _ = forward(params, np.ones((4, 2)))
    assert np.all(out == 0.0)


def test_forward_single_layer_relu_behaviour():
    # One hidden layer followed by an identity output layer exposes the ReLU.
    params = DenseParams([np.eye(3), np.eye(3)], [np.zeros(3), np.zeros(3)])
    x = np.array([[1.0, -2.0, 3.0]])
    out, _ = forward(params, x)
    assert np.allclose(out, [[1.0, 0.0, 3.0]])


def straight_line_forward(params, x):
    # Independent re-implementation: per-sample, per-unit loops.
    outs = []
    for sample in x:
        h = list(sample)
        for layer in range(params.n_layers):
            w, b = params.weights[layer], params.biases[layer]
            pre = []
            for j in range(w.shape[0]):
                acc = b[j]
                for k in range(w.shape[1]):
                    acc += w[j, k] * h[k]
                pre.append(acc)
            h = [max(p, 0.0) for p in pre] if layer < params.n_layers - 1 else pre
        outs.append(h)
    return np.array(outs)


def test_forward_matches_straight_line_oracle(rng):
    params = random_net(rng, [5, 7, 3])
    x = rng.standard_normal((8, 5))
    out, _ = forward(params, x)
    assert np.allclose(out, straight_line_forward(params, x), atol=1e-12)


def test_forward_shape_mismatch_rejected(rng):
    params = random_net(rng, [5, 4, 2])
    with pytest.raises(ValueError):
        forward(params, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        forward(params, np.zeros(5))


# ---------------------------------------------------------------- backward
def test_backward_zero_grad_gives_zero(rng):
    params = random_net(rng, [4, 6, 2])
    out, cache = forward(params, rng.standard_normal((5, 4)))
    grads, gin = backward(params, cache, np.zeros_like(out))
    assert all(np.all(w == 0.0) for w in grads.weights)
    assert np.all(gin == 0.0)


def test_backward_linear_single_layer():
    # Scalar loss = output of a 1-layer linear net: dL/dW = input.
    params = DenseParams([np.array([[2.0, -1.0, 0.5]])], [np.zeros(1)])
    x = np.array([[3.0, 4.0, 5.0]])
    out, cache = forward(params, x)
    grads, gin = backward(params, cache, np.ones_like(out))
    assert np.allclose(grads.weights[0], x)
    assert np.allclose(gin, params.weights[0])


def finite_difference_grads(loss_fn, params, h=1e-5):
    grads = DenseParams.zeros(params.layer_sizes)
    for store, gstore in ((params.weights, grads.weights), (params.biases, grads.biases)):
        for arr, garr in zip(store, gstore):
            flat, gflat = arr.ravel(), garr.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_fn()
                flat[i] = orig - h
                down = loss_fn()
                flat[i] = orig
                gflat[i] = (up - down) / (2.0 * h)
    return grads


def assert_grads_close(analytic: DenseParams, numeric: DenseParams, rtol=1e-4, floor=1e-8):
    for a, n in zip(analytic.weights + analytic.biases, numeric.weights + numeric.biases):
        scale = np.maximum(np.abs(n), floor)
        assert np.all(np.abs(a - n) <= rtol * scale + floor)


def test_backward_matches_finite_differences(rng):
    params = random_net(rng, [4, 6, 5, 3])
    x = rng.standard_normal((4, 4))
    target = rng.standard_normal((4, 3))

    def loss_fn():
        out, _ = forward(params, x)
        return 0.5 * float(np.sum((out - target) ** 2))

    out, cache = forward(params, x)
    analytic, _ = backward(params, cache, out - target)
    numeric = finite_difference_grads(loss_fn, params)
    assert_grads_close(analytic, numeric)


def test_backward_input_gradient_matches_finite_differences(rng):
    params = random_net(rng, [4, 6, 2])
    x = rng.standard_normal((3, 4))
    out, cache = forward(params, x)
    _, gin = backward(params, cache, np.ones_like(out))
    h = 1e-6
    for b in range(x.shape[0]):
        for i in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[b, i] += h
            xm[b, i] -= h
            up = float(np.sum(forward(params, xp)[0]))
            down = float(np.sum(forward(params, xm)[0]))
            assert abs(gin[b, i] - (up - down) / (2 * h)) < 1e-5


def test_backward_skipped_half_matches_full_pass(rng):
    params = random_net(rng, [4, 6, 5, 3])
    out, cache = forward(params, rng.standard_normal((5, 4)))
    grad_out = rng.standard_normal(out.shape)
    full_grads, full_gin = backward(params, cache, grad_out)
    grads, none_gin = backward(params, cache, grad_out, input_grad=False)
    none_grads, gin = backward(params, cache, grad_out, param_grads=False)
    assert none_gin is None and none_grads is None
    assert np.array_equal(grads.flat, full_grads.flat)
    assert np.array_equal(gin, full_gin)


def test_calls_without_workspace_return_fresh_arrays(rng):
    params = random_net(rng, [4, 6, 5, 2])
    x1, x2 = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    out1, cache1 = forward(params, x1)
    grads1, gin1 = backward(params, cache1, np.ones_like(out1))
    kept = out1.copy(), grads1.flat.copy(), gin1.copy()
    out2, cache2 = forward(params, x2)
    backward(params, cache2, -np.ones_like(out2))
    backward(params, cache1, -np.ones_like(out1))
    for before, after in zip(kept, (out1, grads1.flat, gin1)):
        assert np.array_equal(before, after)


def test_workspace_passes_reuse_their_arrays(rng):
    params = random_net(rng, [4, 6, 5, 2])
    ws = neural.Workspace()
    x = rng.standard_normal((3, 4))
    out1, cache = forward(params, x, ws=ws)
    grads1, gin1 = backward(params, cache, np.ones_like(out1), ws)
    expected = [a.copy() for a in (out1, grads1.flat, gin1)]
    out2, cache = forward(params, x, ws=ws)
    grads2, gin2 = backward(params, cache, np.ones_like(out2), ws)
    for first, second in ((out1, out2), (grads1.flat, grads2.flat), (gin1, gin2)):
        assert np.shares_memory(first, second)
    for want, got in zip(expected, (out2, grads2.flat, gin2)):
        assert np.array_equal(want, got)


def test_backward_rejects_mismatched_cache(rng):
    params = random_net(rng, [4, 6, 2])
    out, cache = forward(params, rng.standard_normal((3, 4)))
    with pytest.raises(ValueError):
        backward(params, cache, np.zeros((3, 5)))


# ---------------------------------------------------------------- adam
def test_adam_zero_gradient_keeps_params(rng):
    params = random_net(rng, [3, 4, 2])
    before = params.flat.copy()
    state = AdamState.zeros(params.flat.size)
    adam_step(params.flat, np.zeros_like(params.flat), state)
    assert state.t == 1
    assert np.array_equal(params.flat, before)


def test_adam_first_step_closed_form():
    params = DenseParams([np.array([[1.0, -2.0]])], [np.array([0.5])])
    grads = DenseParams([np.array([[0.3, -0.7]])], [np.array([0.1])])
    lr, eps = 3e-4, 1e-8
    # adam_step updates params in place, so the expectation reads a copy.
    before = params.clone()
    state = AdamState.zeros(params.flat.size)
    adam_step(params.flat, grads.flat, state, lr=lr, eps=eps)
    # With zero moments, the bias-corrected step is lr * g / (|g| + eps).
    expect_w = before.weights[0] - lr * grads.weights[0] / (np.abs(grads.weights[0]) + eps)
    expect_b = before.biases[0] - lr * grads.biases[0] / (np.abs(grads.biases[0]) + eps)
    assert np.allclose(params.weights[0], expect_w, atol=1e-15)
    assert np.allclose(params.biases[0], expect_b, atol=1e-15)
    assert state.t == 1


class ScalarAdam:
    """The scalar recurrence, one Python float at a time, as the reference
    for the vector step."""

    def __init__(self):
        self.m = self.v = 0.0
        self.t = 0

    def step(self, x, grad, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.t += 1
        self.m = beta1 * self.m + (1.0 - beta1) * grad
        self.v = beta2 * self.v + (1.0 - beta2) * grad * grad
        m_hat = self.m / (1.0 - beta1**self.t)
        v_hat = self.v / (1.0 - beta2**self.t)
        return x - lr * m_hat / (math.sqrt(v_hat) + eps)


def test_adam_two_steps_match_recurrence():
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    cases = [
        (2, [0.25, 0.25]),
        # A learned scalar such as log alpha, over gradients of every scale
        # and sign.
        (1, [0.25, -3.0, 1e-6, 1e2, -7.5e-3, 42.0, -1e2, 3e-5]),
    ]
    for n, grads in cases:
        params, state = np.zeros(n), AdamState.zeros(n)
        ref, x = ScalarAdam(), 0.0
        for g in grads:
            adam_step(params, np.full(n, g), state, lr, b1, b2, eps)
            x = ref.step(x, g, lr, b1, b2, eps)
            # Bitwise: the vector step is the scalar recurrence.
            for got, want in ((params, x), (state.m, ref.m), (state.v, ref.v)):
                assert got.tobytes() == np.full(n, want).tobytes()
        assert state.t == ref.t == len(grads)


def test_adam_rejects_non_finite_gradient(rng):
    params = random_net(rng, [2, 3, 1])
    before = params.flat.copy()
    grads = np.zeros_like(params.flat)
    grads[0] = np.nan
    state = AdamState.zeros(params.flat.size)
    with pytest.raises(FloatingPointError):
        adam_step(params.flat, grads, state)
    assert np.array_equal(params.flat, before) and state.t == 0


# ---------------------------------------------------------------- init
def test_init_params_deterministic():
    a = init_params(7, [5, 8, 2])
    b = init_params(7, [5, 8, 2])
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_params_bounds_and_zero_bias():
    params = init_params(0, [4, 16, 3])
    assert np.all(np.abs(params.weights[0]) <= 0.5)
    assert all(np.all(b == 0.0) for b in params.biases)


def test_init_params_variance_matches_uniform():
    params = init_params(3, [10, 10_000, 1])
    fan_in = 10
    expected = 1.0 / (3.0 * fan_in)
    got = float(np.var(params.weights[0]))
    assert abs(got - expected) < 0.05 * expected


# ---------------------------------------------------------------- checkpoints
META = {"version": 7, "x": [0.1, -0.0, 1e300], "name": "run"}


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    arrays = {
        "a.w0": rng.standard_normal((7, 3)),
        "a.b0": rng.standard_normal(7),
        "scalar": np.array(3.25),
        "counter": np.array([17.0]),
        "empty": np.zeros((0, 4)),
        "strided": rng.standard_normal((6, 4))[::2, ::-1],
    }
    path = tmp_path / "state.ckpt"
    neural.save_arrays(path, arrays, META)
    meta, loaded = neural.load_arrays(path)
    assert meta == META
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert np.asarray(arrays[name]).shape == loaded[name].shape
        assert np.asarray(arrays[name]).tobytes() == loaded[name].tobytes()


def container(header: bytes, data: bytes = b"", version: int = 2) -> bytes:
    return b"SCPK" + struct.pack("<IQ", version, len(header)) + header + data


def test_checkpoint_layout_is_the_documented_one(tmp_path):
    # "SCPK" | u32 version 2 | u64 header length | sorted-key, spaceless JSON
    # header | each entry's little-endian float64 values in sorted name order.
    b, w = np.array([1.5, -0.0]), np.arange(6.0).reshape(2, 3)
    header = b'{"entries":[["b",[2]],["w",[2,3]]],"meta":{"a":[1,0.25],"z":null}}'
    expected = container(header, b.astype("<f8").tobytes() + w.astype("<f8").tobytes())
    path = tmp_path / "small.ckpt"
    neural.save_arrays(path, {"w": w, "b": b}, {"z": None, "a": [1, 0.25]})
    assert path.read_bytes() == expected
    meta, arrays = neural.load_arrays(path)
    assert meta == {"a": [1, 0.25], "z": None}
    assert arrays["b"].tobytes() == b.tobytes() and arrays["w"].tobytes() == w.tobytes()


EMPTY = b'{"entries":[],"meta":null}'


@pytest.mark.parametrize("data, message", [
    pytest.param(container(EMPTY, version=1), "checkpoint container v1, this program reads v2", id="v1"),
    pytest.param(container(EMPTY, version=3), "checkpoint container v3, this program reads v2", id="v3"),
    pytest.param(b"SCPK" + struct.pack("<I", 2), "header: truncated", id="short-prefix"),
    pytest.param(container(EMPTY)[:-1], "header: truncated", id="short-header"),
    pytest.param(container(b'{"entries":[],"meta":nul}'), "header: not JSON", id="not-json"),
    pytest.param(container(b'{"entries":[],"meta":"\xff"}'), "header: not JSON", id="not-utf8"),
    pytest.param(container(b"[]"), "header: not an object", id="not-an-object"),
    pytest.param(container(b'{"entries":[]}'), "header: not an object", id="no-meta"),
    pytest.param(container(b'{"entries":[[1,[2]]],"meta":null}', bytes(16)), "header: not an object",
                 id="name-not-a-string"),
    pytest.param(container(b'{"entries":[["a",[-1]]],"meta":null}'), "header: not an object",
                 id="negative-dimension"),
    pytest.param(container(b'{"entries":[["a",[2.0]]],"meta":null}', bytes(16)), "header: not an object",
                 id="float-dimension"),
    pytest.param(container(b'{"entries":[["a",[true]]],"meta":null}', bytes(8)), "header: not an object",
                 id="bool-dimension"),
    pytest.param(container(b'{"entries":[["a",[2],3]],"meta":null}', bytes(16)), "header: not an object",
                 id="entry-of-three"),
])
def test_checkpoint_rejects_malformed_container(tmp_path, data, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        neural.load_arrays(path, {})


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a checkpoint file"):
        neural.load_arrays(path)


def saved_checkpoint(tmp_path, rng):
    path = tmp_path / "state.ckpt"
    neural.save_arrays(path, {"a.w0": rng.standard_normal((7, 3)), "a.b0": rng.standard_normal(7),
                              "a.scale": np.array(3.25)}, META)
    return path


def test_checkpoint_rejects_truncated_file(tmp_path, rng):
    path = saved_checkpoint(tmp_path, rng)
    path.write_bytes(path.read_bytes()[:-13])
    # Entries are stored in sorted name order, so "a.w0" comes last.
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: a.w0: truncated"):
        neural.load_arrays(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path, rng):
    path = saved_checkpoint(tmp_path, rng)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: 8 bytes after the last entry"):
        neural.load_arrays(path)


def test_load_arrays_reads_only_the_named_entries(tmp_path, rng):
    path = saved_checkpoint(tmp_path, rng)
    _, everything = neural.load_arrays(path)
    assert neural.load_arrays(path, {}) == (META, {})
    dst = np.zeros(7)
    meta, got = neural.load_arrays(path, {"a.b0": dst})
    assert meta == META and list(got) == ["a.b0"]
    assert got["a.b0"] is dst and dst.tobytes() == everything["a.b0"].tobytes()
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: absent: entry missing"):
        neural.load_arrays(path, {"a.b0": np.zeros(7), "absent": np.zeros(1)})
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: a.w0: shape \(7, 3\), expected \(3, 7\)"):
        neural.load_arrays(path, {"a.w0": np.zeros((3, 7))})


def test_partial_read_still_rejects_truncated_and_padded_files(tmp_path, rng):
    # The entries after the one asked for, or all of them when only the
    # meta is asked for, are checked against the file size although they
    # are not read.
    path = saved_checkpoint(tmp_path, rng)
    data = path.read_bytes()
    for into in ({"a.b0": np.zeros(7)}, {}):
        path.write_bytes(data[:-13])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: a.w0: truncated"):
            neural.load_arrays(path, into)
        path.write_bytes(data + bytes(8))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 8 bytes after the last entry"):
            neural.load_arrays(path, into)


def test_failed_save_keeps_previous_checkpoint(tmp_path, rng):
    path = saved_checkpoint(tmp_path, rng)
    _, before = neural.load_arrays(path)
    # "a.ok" converts; "b.bad" cannot, and the save fails before it opens
    # a file.
    with pytest.raises((TypeError, ValueError)):
        neural.save_arrays(path, {"a.ok": np.ones(4), "b.bad": np.array(["not a number"])}, META)
    with pytest.raises(TypeError):
        neural.save_arrays(path, {"a.ok": np.ones(4)}, {"not JSON": object()})
    _, after = neural.load_arrays(path)
    assert set(after) == set(before)
    assert all(after[name].tobytes() == before[name].tobytes() for name in before)
    assert list(tmp_path.iterdir()) == [path]


def test_dense_params_are_views_of_one_vector(rng):
    params = random_net(rng, [3, 5, 2])
    assert params.flat.size == neural.param_count([3, 5, 2]) == 5 * 4 + 2 * 6
    params.flat[:] = np.arange(params.flat.size)
    assert params.weights[0][0, 0] == 0.0 and params.biases[-1][-1] == params.flat.size - 1
    params.weights[1][...] = -1.0
    assert np.sum(params.flat == -1.0) == params.weights[1].size
