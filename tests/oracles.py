"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (explicit loop nests, math.log,
central differences) or an earlier, independently written kernel, and
shares no code with the library under test.
"""

from __future__ import annotations

import math

import numpy as np


def conv_direct(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-size convolution by direct summation (stride 1, pad k//2)."""
    cin, h, w = x.shape
    cout, _, k, _ = kernels.shape
    pad = k // 2
    out = np.zeros((cout, h, w), dtype=np.float64)
    for o in range(cout):
        for i in range(h):
            for j in range(w):
                acc = float(bias[o])
                for c in range(cin):
                    for u in range(k):
                        for v in range(k):
                            ii = i + u - pad
                            jj = j + v - pad
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += kernels[o, c, u, v] * x[c, ii, jj]
                out[o, i, j] = acc
    return out


def maxpool_direct(x: np.ndarray) -> np.ndarray:
    """2x2 window maxima by explicit scan; odd borders handled by clipping."""
    c, h, w = x.shape
    oh, ow = (h + 1) // 2, (w + 1) // 2
    out = np.empty((c, oh, ow), dtype=x.dtype)
    for ch in range(c):
        for i in range(oh):
            for j in range(ow):
                window = x[ch, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                out[ch, i, j] = window.max()
    return out


# Earlier vectorized kernels, kept verbatim as references: the library's
# im2col/col2im and maxpool_forward must reproduce them bit for bit.


def im2col_transposed(x: np.ndarray, kernel_size: int, pad: int) -> np.ndarray:
    """Patch rows [H*W, C*k*k] gathered from an np.pad copy of x."""
    c, h, w = x.shape
    k = kernel_size
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((c, k, k, h, w), dtype=x.dtype)
    for u in range(k):
        for v in range(k):
            cols[:, u, v] = xp[:, u : u + h, v : v + w]
    return cols.reshape(c * k * k, h * w).T


def col2im_transposed(cols: np.ndarray, shape, kernel_size: int, pad: int) -> np.ndarray:
    """Scatter-add patch rows [H*W, C*k*k] into a padded buffer, then crop."""
    c, h, w = shape
    k = kernel_size
    acc = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    colsr = cols.T.reshape(c, k, k, h, w)
    for u in range(k):
        for v in range(k):
            acc[:, u : u + h, v : v + w] += colsr[:, u, v]
    return acc[:, pad : pad + h, pad : pad + w]


def maxpool_argmax(x: np.ndarray):
    """2x2 max pool by argmax over transposed windows: (values, rows, cols)."""
    c, h, w = x.shape
    hp, wp = h + h % 2, w + w % 2
    if (hp, wp) != (h, w):
        xp = np.full((c, hp, wp), -np.inf, dtype=x.dtype)
        xp[:, :h, :w] = x
    else:
        xp = x
    oh, ow = hp // 2, wp // 2
    windows = xp.reshape(c, oh, 2, ow, 2).transpose(0, 1, 3, 2, 4).reshape(c, oh, ow, 4)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    rows = 2 * np.arange(oh, dtype=np.int32)[None, :, None] + (idx // 2).astype(np.int32)
    cols = 2 * np.arange(ow, dtype=np.int32)[None, None, :] + (idx % 2).astype(np.int32)
    return out, rows, cols


def sgd_step_reference(params, velocity, cfg, grad_scale: float) -> None:
    """The SGD update as whole-array expressions (the earlier sgd_step).

    params: (name, value, gradient) triples; updates values and velocity
    in place with weight-sized temporaries.
    """
    for name, value, grad in params:
        step = grad * grad_scale + cfg.weight_decay * value
        vel = velocity[name]
        vel *= cfg.momentum
        vel -= cfg.learning_rate * step
        value += vel


def softmax_ce_direct(logits, label: int) -> tuple[float, list[float]]:
    """Softmax cross-entropy straight from the definition (math module)."""
    exps = [math.exp(float(v)) for v in logits]
    total = sum(exps)
    probs = [e / total for e in exps]
    loss = -math.log(probs[label])
    grad = [p - (1.0 if i == label else 0.0) for i, p in enumerate(probs)]
    return loss, grad


def kl_direct(r, q, eps: float = 1e-8) -> float:
    """Rank-paired KL-style sum with epsilon flooring, via math.log."""
    assert len(r) == len(q)
    total = 0.0
    for rv, qv in zip(r, q):
        rv = max(float(rv), eps)
        qv = max(float(qv), eps)
        total += rv * math.log(rv / qv)
    return total


def kl_rank_paired(r: np.ndarray, q: np.ndarray, eps: float = 1e-8) -> float:
    """The earlier 1-D kl_term: epsilon floor, then one np.sum per list.

    Profiles must match it bit for bit, which kl_direct's math.log loop,
    summing in another order, cannot promise.
    """
    r = np.maximum(np.asarray(r, dtype=np.float64), eps)
    q = np.maximum(np.asarray(q, dtype=np.float64), eps)
    return float(np.sum(r * np.log(r / q)))


def top_n_records(values: np.ndarray, map_index: int, subset, n: int) -> list[tuple[float, int]]:
    """(value, image id) of one map's n largest peaks: a sort of every record."""
    records = [(float(values[i, map_index]), i) for i in sorted(set(subset))]
    records.sort(key=lambda rec: (-rec[0], rec[1]))
    return records[:n]


def profile_loop(values: np.ndarray, has_au: np.ndarray, n: int,
                 eps: float = 1e-8) -> np.ndarray:
    """The earlier per-map profile: rank-truncated top-n lists, 1-D sums.

    values is [images, maps] with image i at row i; has_au marks the
    images that carry the unit.
    """
    with_au = np.flatnonzero(has_au)
    without = np.flatnonzero(~has_au)
    distances = np.zeros(values.shape[1])
    for j in range(values.shape[1]):
        r = np.array([v for v, _ in top_n_records(values, j, with_au, n)])
        q = np.array([v for v, _ in top_n_records(values, j, without, n)])
        k = min(n, r.size, q.size)
        r, q = r[:k], q[:k]
        distances[j] = kl_rank_paired(r, q, eps) + kl_rank_paired(q, r, eps)
    return distances


def inner_product(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of elementwise products of two equal-shape arrays, as a float."""
    if a.shape != b.shape:
        raise ValueError(f"operand shapes differ: {a.shape} vs {b.shape}")
    return float(np.dot(a.reshape(-1), b.reshape(-1)))


def central_difference(f, param: np.ndarray, index: tuple, eps: float = 1e-5) -> float:
    """Central finite difference of scalar f() wrt param[index] (in place)."""
    orig = param[index]
    param[index] = orig + eps
    plus = f()
    param[index] = orig - eps
    minus = f()
    param[index] = orig
    return (plus - minus) / (2.0 * eps)


def relative_error(a: float, b: float, floor: float = 1e-8) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def reachable_pixels(unit_value_fn, input_shape: tuple[int, int, int],
                     base: float = 1.0, delta: float = 10.0) -> np.ndarray:
    """Perturbation oracle for receptive fields.

    unit_value_fn maps an input image to one unit's scalar activation.
    Intended for monotone networks (all-positive kernels, nonnegative
    inputs): bumping a pixel then strictly raises the unit iff some
    geometric path connects them, so reachability is exact.
    """
    img = np.full(input_shape, base, dtype=np.float64)
    ref = unit_value_fn(img)
    mask = np.zeros(input_shape[1:], dtype=bool)
    for i in range(input_shape[1]):
        for j in range(input_shape[2]):
            img[0, i, j] = base + delta
            mask[i, j] = unit_value_fn(img) != ref
            img[0, i, j] = base
    return mask
