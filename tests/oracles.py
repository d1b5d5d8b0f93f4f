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


def gaussian_init_one_draw(rng: np.random.Generator, shape, std: float,
                           dtype) -> np.ndarray:
    """The Gaussian weight init as one float64 draw of the whole shape, then cast."""
    return (rng.standard_normal(shape) * std).astype(dtype)


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


def cell_anchor(box, row: int, col: int, config, layer: int) -> tuple[int, int]:
    """(dy, dx) of a clipped receptive-field box inside its unclipped cell.

    The unclipped field start of a pooled unit is stepped down through
    `layer` pool/conv stages on its own, then subtracted from the box's
    start: the montage layout's original formula.
    """
    r0, c0 = row, col
    half = config.kernel_size // 2
    for _ in range(layer):
        r0, c0 = 2 * r0 - half, 2 * c0 - half
    return box[1] - r0, box[0] - c0


# Earlier per-image and per-line implementations, kept as references:
# the chunked harvest, the planned resize, the one-pass standardize and
# the column-wise DB parse must reproduce them exactly. harvest_per_image
# runs its own per-image stage loop of single-image layer calls, so it
# does not share the chunked stage runner it checks.


def bilinear_sample_masked(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bilinear samples of img [H,W] at full coordinate grids by boolean-mask gathers."""
    h, w = img.shape
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    fy = ys - y0
    fx = xs - x0
    out = np.zeros(ys.shape, dtype=np.float64)
    for dy in (0, 1):
        wy = np.where(dy == 0, 1.0 - fy, fy)
        yy = y0 + dy
        inside_y = (yy >= 0) & (yy < h)
        for dx in (0, 1):
            wx = np.where(dx == 0, 1.0 - fx, fx)
            xx = x0 + dx
            inside = inside_y & (xx >= 0) & (xx < w)
            vals = np.zeros(ys.shape, dtype=np.float64)
            vals[inside] = img[yy[inside], xx[inside]]
            out += wy * wx * vals
    return out


def standardize_two_pass(img: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance by np.mean and np.std, which forms the mean again."""
    return (img - img.mean()) / max(img.std(), 1e-6)


def resize_meshgrid(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize sampled at a full meshgrid."""
    h, w = img.shape
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    grid_y, grid_x = np.meshgrid(np.clip(ys, 0, h - 1), np.clip(xs, 0, w - 1), indexing="ij")
    return bilinear_sample_masked(np.asarray(img, dtype=np.float64), grid_y, grid_x)


def harvest_per_image(net, manifest, layer: int):
    """(values, rows, cols) of every image's per-map peaks, one image at a time.

    Runs each image [1,S,S] through the convs up to `layer` as 3-D
    ConvLayer.forward, relu_forward and maxpool_forward calls (the pool
    keeps switches, as the earlier loop's did); raises NumericError for
    the first non-finite peak in image, then map order.
    """
    from auprobe import data
    from auprobe.layers import maxpool_forward, relu_forward
    from auprobe.model import NumericError

    size, dtype = net.config.input_size, net.config.np_dtype
    results = []
    for i in range(len(manifest)):
        fmap = data.eval_transform(data.load_image(manifest, i), size, dtype=dtype)
        for conv in net.convs[:layer]:
            fmap, _ = maxpool_forward(relu_forward(conv.forward(fmap)))
        num_maps = fmap.shape[0]
        flat = fmap.reshape(num_maps, -1)
        arg = flat.argmax(axis=1)
        vals = flat[np.arange(num_maps), arg]
        if not np.isfinite(vals).all():
            j = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NumericError(
                f"non-finite activation {vals[j]} in layer {layer} map {j} "
                f"of image {i} ({manifest.image_path(i)})"
            )
        r, c = np.unravel_index(arg, fmap.shape[1:])
        results.append((vals.astype(np.float64), r.astype(np.int32), c.astype(np.int32)))
    return tuple(np.stack([res[k] for res in results]) for k in range(3))


def load_activation_db(path):
    """(image ids, values, rows, cols, layer, provenance) by the per-line parse.

    The earlier ActivationDB.load: a dict of dicts filled line by line
    through int() and float(); raises the same DataError messages.
    """
    from pathlib import Path

    from auprobe.data import DataError

    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# auprobe-activation-db"):
        raise DataError(f"{path}: not an activation db")
    tokens = lines[0].split()[2:]
    meta = dict(t.split("=", 1) for t in tokens if "=" in t)
    try:
        layer = int(meta.pop("layer", "0"))
    except ValueError as exc:
        raise DataError(f"{path} line 1: {exc}") from exc
    meta.pop("v", None)
    if len(lines) < 2 or lines[1] != "image_id,map,value,row,col":
        raise DataError(f"{path}: missing column header")
    by_image: dict[int, dict[int, tuple[float, int, int]]] = {}
    for ln, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise DataError(f"{path} line {ln}: expected 5 fields")
        try:
            img, j = int(parts[0]), int(parts[1])
            entry = (float(parts[2]), int(parts[3]), int(parts[4]))
        except ValueError as exc:
            raise DataError(f"{path} line {ln}: {exc}") from exc
        by_image.setdefault(img, {})[j] = entry
    if not by_image:
        raise DataError(f"{path}: empty activation db")
    if len(lines) - 2 - lines[2:].count("") != sum(map(len, by_image.values())):
        seen = set()
        for ln, line in enumerate(lines[2:], start=3):
            if not line:
                continue
            key = tuple(int(f) for f in line.split(",")[:2])
            if key in seen:
                raise DataError(f"{path} line {ln}: repeats image {key[0]} map {key[1]}")
            seen.add(key)
    image_ids = sorted(by_image)
    maps = sorted(by_image[image_ids[0]])
    num_maps = len(maps)
    if maps != list(range(num_maps)):
        raise DataError(f"{path}: map indices are not dense")
    values = np.zeros((len(image_ids), num_maps))
    rows = np.zeros((len(image_ids), num_maps), dtype=np.int32)
    cols = np.zeros((len(image_ids), num_maps), dtype=np.int32)
    for i, img in enumerate(image_ids):
        if sorted(by_image[img]) != maps:
            raise DataError(f"{path}: image {img} has a different map set")
        for j in maps:
            values[i, j], rows[i, j], cols[i, j] = by_image[img][j]
    if not ((values >= 0) & (values < np.inf)).all():
        for ln, line in enumerate(lines[2:], start=3):
            field = line.split(",")[2] if line else "0"
            value = float(field)
            if not math.isfinite(value):
                raise DataError(f"{path} line {ln}: non-finite value {field!r}")
            if value < 0:
                raise DataError(f"{path} line {ln}: negative peak {field!r}; "
                                "peaks are maxima of ReLU outputs")
    return image_ids, values, rows, cols, layer, meta


def sample_gradients(net, x: np.ndarray, label: int, drop_mask: np.ndarray | None):
    """One sample's forward and backward, added into net's gradient buffers.

    The earlier per-sample Network.forward(train=True) and
    Network.backward: every layer runs on the single image x [1,S,S],
    ReLU and pool go backward as two steps at full resolution, every conv
    rebuilds its patch matrix, and fc1's parameter gradients are formed
    per sample. Returns (loss, logits).
    """
    from auprobe.layers import (maxpool_backward, maxpool_forward, relu_backward,
                                relu_forward, softmax_cross_entropy)

    a = x.astype(net.config.np_dtype)
    stages = []
    for conv in net.convs:
        conv_out = conv.forward(a)
        pooled, switches = maxpool_forward(relu_forward(conv_out))
        stages.append((a, conv_out, switches))
        a = pooled
    flat = a.reshape(-1)
    fc1_out = net.fc1.forward(flat)
    hidden = relu_forward(fc1_out)
    fc2_in = hidden * drop_mask if drop_mask is not None else hidden
    logits = net.fc2.forward(fc2_in)
    loss, grad = softmax_cross_entropy(logits, label)
    g = net.fc2.backward(grad, fc2_in)
    if drop_mask is not None:
        g = g * drop_mask
    g = net.fc1.backward(relu_backward(g, fc1_out), flat).reshape(a.shape)
    for (conv_in, conv_out, switches), conv in zip(reversed(stages), reversed(net.convs)):
        g = relu_backward(maxpool_backward(g, switches), conv_out)
        g = conv.backward(g, conv_in, input_grad=conv is not net.convs[0])
    return loss, logits
