"""Dataset ingestion, augmentation, and the synthetic glyph generator.

Manifests are CSV files (`path,label,aus,subject,sequence,crop`) pointing
at 8-bit grayscale images. The synthetic generator renders localized
glyph "units" into per-unit placement regions so that detector-mapping
experiments can run end to end without any external dataset.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import imageio


class DataError(Exception):
    """Manifest, image, or configuration input is unusable."""


def read_text(path) -> str:
    """A file's text, decoded as UTF-8; DataError naming the file if it is not UTF-8.

    Line endings are left as they are, for the csv module and for
    str.splitlines.
    """
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def write_atomic(path, content: str | bytes) -> None:
    """Write content (str as UTF-8) to path whole or not at all.

    The bytes go to a temporary file in path's directory, which then
    replaces path in one rename. A write that fails midway, or a process
    killed during it, leaves an earlier file at path as it was, so no
    later stage loads a truncated artifact; the temporary file is removed
    on failure, and an OSError names path, not it. Nothing is fsynced, so
    this does not cover a crash of the machine.
    """
    path = Path(path)
    data = content.encode("utf-8") if isinstance(content, str) else content
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


# ------------------------------------------------------------- manifest

MANIFEST_COLUMNS = ["path", "label", "aus", "subject", "sequence", "crop"]


@dataclass(frozen=True)
class ManifestRow:
    path: str
    label: str
    au_set: frozenset[int]
    subject: str = ""
    sequence: str = ""
    crop_box: tuple[int, int, int, int] | None = None


@dataclass
class DatasetManifest:
    rows: list[ManifestRow]
    base_dir: Path = field(default_factory=Path)

    def __len__(self) -> int:
        return len(self.rows)

    def labels(self) -> list[str]:
        return sorted({r.label for r in self.rows})

    def au_ids(self) -> list[int]:
        ids: set[int] = set()
        for r in self.rows:
            ids.update(r.au_set)
        return sorted(ids)

    def image_path(self, index: int) -> Path:
        return self.base_dir / self.rows[index].path

    def save(self, path) -> None:
        write_atomic(path, self.to_csv_bytes())

    def to_csv_bytes(self) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for r in self.rows:
            aus = ";".join(str(a) for a in sorted(r.au_set))
            crop = ";".join(str(v) for v in r.crop_box) if r.crop_box else ""
            writer.writerow([r.path, r.label, aus, r.subject, r.sequence, crop])
        return buf.getvalue().encode("utf-8")

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_csv_bytes()).hexdigest()


def _integer(text: str) -> int | None:
    """text as an int if it is decimal digits after an optional '-', else None."""
    try:
        return int(text) if text.removeprefix("-").isdecimal() else None
    except ValueError:  # more digits than int() converts
        return None


def _parse_row(raw: dict, line: int) -> ManifestRow:
    path = (raw.get("path") or "").strip()
    label = (raw.get("label") or "").strip()
    if not path or not label:
        raise DataError(f"manifest line {line}: path and label are required")
    aus: set[int] = set()
    for token in (raw.get("aus") or "").split(";"):
        token = token.strip()
        if not token:
            continue
        au = _integer(token)
        if au is None or au <= 0:
            raise DataError(f"manifest line {line}: bad action-unit id {token!r}")
        aus.add(au)
    crop_text = (raw.get("crop") or "").strip()
    crop_box = None
    if crop_text:
        crop_box = tuple(_integer(p.strip()) for p in crop_text.split(";"))
        if len(crop_box) != 4 or None in crop_box:
            raise DataError(f"manifest line {line}: crop must be x0;y0;x1;y1, got {crop_text!r}")
    return ManifestRow(
        path=path,
        label=label,
        au_set=frozenset(aus),
        subject=(raw.get("subject") or "").strip(),
        sequence=(raw.get("sequence") or "").strip(),
        crop_box=crop_box,
    )


def load_manifest(path, validate_images: bool = True) -> DatasetManifest:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"manifest not found: {path}")
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != MANIFEST_COLUMNS:
        raise DataError(
            f"{path}: expected header {','.join(MANIFEST_COLUMNS)}, "
            f"got {reader.fieldnames}"
        )
    rows = [_parse_row(raw, line) for line, raw in enumerate(reader, start=2)]
    manifest = DatasetManifest(rows=rows, base_dir=path.parent)
    if validate_images:
        for i, row in enumerate(rows):
            img_path = manifest.base_dir / row.path
            if not img_path.is_file():
                raise DataError(f"manifest line {i + 2}: missing image {img_path}")
            try:
                load_image(manifest, i)
            except (imageio.ImageFormatError, DataError) as exc:
                raise DataError(f"manifest line {i + 2}: {exc}") from exc
    return manifest


def load_image(manifest: DatasetManifest, index: int) -> np.ndarray:
    """Decode one manifest image to uint8 [H,W] with its crop box applied."""
    row = manifest.rows[index]
    img = imageio.read_image(manifest.base_dir / row.path)
    if row.crop_box is not None:
        x0, y0, x1, y1 = row.crop_box
        h, w = img.shape
        if not (0 <= x0 < x1 <= w and 0 <= y0 < y1 <= h):
            raise DataError(f"crop box {row.crop_box} outside image {w}x{h}: {row.path}")
        img = img[y0:y1, x0:x1]
    return img


# --------------------------------------------------------- transforms


def _taps(coords: np.ndarray, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, index) of the two taps along one axis of n samples.

    The first tap is at floor(coords), the second one sample further. A
    tap outside the axis has index n: the zero row or column that the
    samplers append to the image.
    """
    first = np.floor(coords).astype(np.int64)
    frac = coords - first
    return [(weight, np.where((index >= 0) & (index < n), index, n))
            for weight, index in ((1.0 - frac, first), (frac, first + 1))]


def _bilinear_sample(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample img (float [H,W]) at full grids of fractional coords; zero outside.

    Each of the four taps is one gather from img with a zero row and
    column appended, which the taps outside the image read.
    """
    h, w = img.shape
    padded = np.zeros((h + 1, w + 1))
    padded[:h, :w] = img
    out = np.zeros(ys.shape, dtype=np.float64)
    x_taps = _taps(xs, w)
    for wy, yy in _taps(ys, h):
        for wx, xx in x_taps:
            out += wy * wx * padded[yy, xx]
    return out


def rotate(img: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate about the image center, bilinear, zero fill outside."""
    h, w = img.shape
    theta = np.deg2rad(degrees)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    dy, dx = yy - cy, xx - cx
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    src_y = cy + dy * cos_t - dx * sin_t
    src_x = cx + dy * sin_t + dx * cos_t
    return _bilinear_sample(np.asarray(img, dtype=np.float64), src_y, src_x)


# Axis plans held at once. An entry is four arrays of the resize length:
# 3 KiB at 99 samples, so a full cache stays well under 1 MiB.
PLAN_CACHE_SIZE = 64


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _axis_plan(n: int, out: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(weight, index) of both taps for every sample of an n -> out resize along one axis.

    Sample coordinates follow the half-pixel-centre convention, clipped
    to [0, n - 1], so only a clipped coordinate's second tap (weight 0)
    can fall outside the axis, at index n. The arrays are read-only, since
    every later call with the same axis shares them. The cache pays off
    only because image sides repeat (every image of a synthetic set has
    the same size); a miss costs what building the plan per call would.
    """
    coords = (np.arange(out, dtype=np.float64) + 0.5) * (n / out) - 0.5
    plan = tuple(_taps(np.clip(coords, 0, n - 1), n))
    for weight, index in plan:
        weight.flags.writeable = index.flags.writeable = False
    return plan


def _resample(images: np.ndarray, rows, cols) -> np.ndarray:
    """images [..., H, W] sampled bilinearly through a row plan and a column plan, as float64.

    The images are copied, in their own dtype, with a zero row and
    column appended, which the outside taps read. Each column tap gathers
    its columns once; each (row tap, column tap) pair then gathers its
    rows from those, so uint8 images are gathered as bytes. Each output
    pixel is the sum, from zero, of its four taps in (row tap, column
    tap) order, each tap's weight product formed before it multiplies the
    pixel, which is first made float64 (exactly, for uint8 and float32):
    the same sum, bit for bit, as _bilinear_sample's at the same
    coordinates, with inf or NaN on the last row or column kept out of
    the weight-0 taps. A stack [B, H, W] gives every image the bits it
    would get alone.
    """
    *lead, h, w = images.shape
    padded = np.zeros((*lead, h + 1, w + 1), dtype=images.dtype)
    padded[..., :h, :w] = images
    columns = [(wx, padded.take(xx, axis=-1)) for wx, xx in cols]
    out = np.zeros((*lead, rows[0][0].size, cols[0][0].size))
    term = np.empty_like(out)
    for wy, yy in rows:
        for wx, picked in columns:
            term[...] = picked.take(yy, axis=-2)
            term *= wy[:, None] * wx
            out += term
    return out


def standardize(img: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance over the last two axes; guarded so constant images map to zeros.

    The deviations from the mean are formed once and give both the
    standard deviation and the result. Each image [H, W] of a C-contiguous
    stack [B, H, W] is reduced as one run of H * W values, so it gets the
    bits it would get alone; for float64 images, the transforms' crops,
    those are the bits of np.mean then np.std.
    """
    dev = img - img.mean(axis=(-2, -1), keepdims=True)
    count = img.shape[-2] * img.shape[-1]
    dev /= np.maximum(np.sqrt(np.square(dev).sum(axis=(-2, -1), keepdims=True) / count), 1e-6)
    return dev


# Eval images are resized to S + _EVAL_MARGIN and cropped to S at the
# centre; augment crops S from the same resize at a random offset.
_EVAL_MARGIN = 3


def _resized_crop(images: np.ndarray, out_size: int, top: int = _EVAL_MARGIN // 2,
                  left: int = _EVAL_MARGIN // 2) -> np.ndarray:
    """images [..., H, W] resized to out_size + _EVAL_MARGIN (half-pixel-centre bilinear),
    then their float64 out_size crops at (top, left).

    Only the crop is sampled: its plans are slices of the resize's axis
    plans, out_size samples from top and from left.
    """
    imgs = np.asarray(images)
    h, w = imgs.shape[-2:]
    if min(h, w) < 8:
        raise DataError(f"image too small to transform: {(h, w)}")
    big = out_size + _EVAL_MARGIN
    rows = [(wy[top : top + out_size], yy[top : top + out_size]) for wy, yy in _axis_plan(h, big)]
    cols = [(wx[left : left + out_size], xx[left : left + out_size]) for wx, xx in _axis_plan(w, big)]
    return _resample(imgs, rows, cols)


def augment(image: np.ndarray, rng: np.random.Generator, out_size: int = 96,
            dtype=np.float64) -> np.ndarray:
    """Stochastic training transform -> [1,out_size,out_size].

    In order: rotate by U(-15, 15) degrees, horizontal flip with
    probability 0.5, bilinear resize to out_size+3, random out_size crop,
    per-image standardization. Draws from rng in exactly that order.
    """
    angle = rng.uniform(-15.0, 15.0)
    img = rotate(image, angle)
    if rng.random() < 0.5:
        img = img[:, ::-1]
    top = int(rng.integers(0, _EVAL_MARGIN + 1))
    left = int(rng.integers(0, _EVAL_MARGIN + 1))
    return standardize(_resized_crop(img, out_size, top, left))[None].astype(dtype)


def eval_chunk(images, out_size: int = 96, dtype=np.float64, views: bool = False):
    """Deterministic test-time transform of a chunk of images: resize, centre crop,
    standardize -> [N, 1, out_size, out_size].

    With views=True, also returns the crops as uint8 [N, out_size, out_size]
    views: the images the network saw, in displayable range for rendering.
    Images of one shape are transformed as one stack, so images of any
    size mix, and each gets the bits it would get alone. Pass a chunk at a
    time: each stack holds a few float64 copies of its images.
    """
    inputs = np.empty((len(images), 1, out_size, out_size), dtype=dtype)
    seen = np.empty((len(images), out_size, out_size), dtype=np.uint8) if views else None
    groups: dict[tuple, list[int]] = {}
    for k, image in enumerate(images):
        groups.setdefault(np.shape(image), []).append(k)
    for members in groups.values():
        crops = _resized_crop(np.stack([images[k] for k in members]), out_size)
        inputs[members, 0] = standardize(crops)
        if views:
            seen[members] = np.clip(np.rint(crops), 0, 255)
    return (inputs, seen) if views else inputs


def eval_transform(image: np.ndarray, out_size: int = 96, dtype=np.float64) -> np.ndarray:
    """eval_chunk of one image -> [1, out_size, out_size].

    No code in the package calls it; it stays for the benchmark's
    detector-recovery check (perfbench/workloads.py) and tests that
    transform one image.
    """
    return eval_chunk([image], out_size, dtype)[0]


def eval_coordinate_map(src_size: int, out_size: int) -> tuple[float, float]:
    """(scale, offset) taking source-pixel coords to eval_transform coords.

    model_coord = scale * src_coord + offset, matching the resize
    half-pixel convention and the center-crop offset.
    """
    scale = (out_size + _EVAL_MARGIN) / src_size
    return scale, (0.5 * scale - 0.5) - _EVAL_MARGIN // 2


def region_in_model_coords(region: tuple[int, int, int, int], src_size: int,
                           out_size: int) -> tuple[int, int, int, int]:
    """A source-image box (x0, y0, x1, y1) as seen by the network.

    Maps through the eval transform geometry and rounds outward to whole
    pixels, clipped to the model canvas; end coordinates stay exclusive.
    """
    scale, off = eval_coordinate_map(src_size, out_size)
    x0, y0, x1, y1 = region
    mx0 = max(int(np.floor(scale * x0 + off)), 0)
    my0 = max(int(np.floor(scale * y0 + off)), 0)
    mx1 = min(int(np.ceil(scale * x1 + off)), out_size)
    my1 = min(int(np.ceil(scale * y1 + off)), out_size)
    return mx0, my0, mx1, my1


# ---------------------------------------------------------- synthetic


def _stencil_hbar() -> np.ndarray:
    return np.ones((5, 13))


def _stencil_vbar() -> np.ndarray:
    return np.ones((13, 5))


def _stencil_cross() -> np.ndarray:
    s = np.zeros((13, 13))
    s[4:9, :] = 1
    s[:, 4:9] = 1
    return s


def _stencil_ring() -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(13) - 6, np.arange(13) - 6, indexing="ij")
    r = np.sqrt(yy**2 + xx**2)
    return ((r >= 4.0) & (r <= 6.2)).astype(float)


def _stencil_arc_up() -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(8) - 7, np.arange(13) - 6, indexing="ij")
    r = np.sqrt(yy**2 + xx**2)
    return ((r >= 4.5) & (r <= 7.0)).astype(float)


def _stencil_arc_down() -> np.ndarray:
    return _stencil_arc_up()[::-1].copy()


def _stencil_dot_pair() -> np.ndarray:
    s = np.zeros((6, 15))
    s[1:5, 1:5] = 1
    s[1:5, 10:14] = 1
    return s


def _stencil_chevron() -> np.ndarray:
    s = np.zeros((8, 13))
    for i in range(7):
        s[7 - i, i : i + 2] = 1
        s[7 - i, 11 - i : 13 - i] = 1
    return s


GLYPHS = {
    "hbar": _stencil_hbar,
    "vbar": _stencil_vbar,
    "arc_up": _stencil_arc_up,
    "arc_down": _stencil_arc_down,
    "cross": _stencil_cross,
    "dot_pair": _stencil_dot_pair,
    "chevron": _stencil_chevron,
    "ring": _stencil_ring,
}


@dataclass(frozen=True)
class UnitSpec:
    unit_id: int
    glyph: str
    region: tuple[int, int, int, int]  # x0, y0, x1, y1 (exclusive end)


@dataclass
class SyntheticSpec:
    canvas_size: int = 48
    units: tuple[UnitSpec, ...] = ()
    class_rules: dict[str, frozenset[int]] = field(default_factory=dict)
    samples_per_class: int = 100
    position_jitter: int = 3
    intensity_range: tuple[float, float] = (0.75, 1.0)
    noise_sigma: float = 8.0
    background: float = 32.0
    seed: int = 0

    def validate(self) -> None:
        ids = {u.unit_id for u in self.units}
        if len(ids) != len(self.units):
            raise DataError("duplicate unit ids in synthetic spec")
        for u in self.units:
            if u.glyph not in GLYPHS:
                raise DataError(f"unknown glyph {u.glyph!r} (have {sorted(GLYPHS)})")
            if len(u.region) != 4:
                raise DataError(f"unit {u.unit_id} region {u.region} is not x0, y0, x1, y1")
            x0, y0, x1, y1 = u.region
            if not (0 <= x0 < x1 <= self.canvas_size and 0 <= y0 < y1 <= self.canvas_size):
                raise DataError(f"unit {u.unit_id} region {u.region} outside canvas")
            gh, gw = GLYPHS[u.glyph]().shape
            if x1 - x0 < gw or y1 - y0 < gh:
                raise DataError(f"unit {u.unit_id} region {u.region} smaller than its glyph {gh}x{gw}")
        for cls, rule in self.class_rules.items():
            missing = set(rule) - ids
            if missing:
                raise DataError(f"class {cls!r} references undefined units {sorted(missing)}")
        if self.samples_per_class < 1 or self.seed < 0:
            raise DataError("samples_per_class must be >= 1 and seed >= 0")
        r = self.intensity_range
        if not (len(r) == 2 and -np.inf < r[0] <= r[1] < np.inf):
            raise DataError(f"intensity_range {list(r)} must be two finite numbers, low <= high")

    def unit_by_id(self, unit_id: int) -> UnitSpec:
        for u in self.units:
            if u.unit_id == unit_id:
                return u
        raise DataError(f"no unit {unit_id} in spec")


def default_synthetic_spec(canvas_size: int = 48, samples_per_class: int = 100,
                           seed: int = 0) -> SyntheticSpec:
    """Four localized units in corner regions, each class omits one unit.

    The leave-one-out composition keeps every *other* unit present on
    both sides of any unit's with/without partition, so only a genuine
    detector of the probed unit separates the two response sets (rules
    where two units induce complementary partitions would be
    indistinguishable to a symmetric distance). Corner placement
    maximizes the spatial separation between units relative to the
    last layer's receptive fields.
    """
    m = 1  # margin to the canvas edge
    g = 17  # region extent; holds a 13px glyph with +/-2 jitter
    far = canvas_size - 1 - g
    units = (
        UnitSpec(1, "hbar", (m, m, m + g, m + g)),
        UnitSpec(2, "vbar", (far, m, far + g, m + g)),
        UnitSpec(3, "cross", (m, far, m + g, far + g)),
        UnitSpec(4, "ring", (far, far, far + g, far + g)),
    )
    rules = {
        "A": frozenset({1, 2, 3}),
        "B": frozenset({1, 2, 4}),
        "C": frozenset({1, 3, 4}),
        "D": frozenset({2, 3, 4}),
    }
    return SyntheticSpec(
        canvas_size=canvas_size,
        units=units,
        class_rules=rules,
        samples_per_class=samples_per_class,
        position_jitter=2,
        intensity_range=(0.8, 1.0),
        noise_sigma=6.0,
        seed=seed,
    )


_SPEC_SCALARS = (("canvas_size", int), ("samples_per_class", int), ("position_jitter", int),
                 ("intensity_range", lambda v: tuple(float(x) for x in v)),
                 ("noise_sigma", float), ("background", float), ("seed", int))


def load_synthetic_spec(path) -> SyntheticSpec:
    try:
        raw = json.loads(read_text(path))
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot read synthetic spec {path}: {exc}") from exc
    try:
        units = tuple(
            UnitSpec(int(u["unit_id"]), str(u["glyph"]), tuple(int(v) for v in u["region"]))
            for u in raw["units"]
        )
        rules = {str(k): frozenset(int(v) for v in vs) for k, vs in raw["class_rules"].items()}
        # an omitted field keeps SyntheticSpec's default
        spec = SyntheticSpec(units=units, class_rules=rules,
                             **{key: cast(raw[key]) for key, cast in _SPEC_SCALARS if key in raw})
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(f"malformed synthetic spec {path}: {exc}") from exc
    spec.validate()
    return spec


def save_synthetic_spec(spec: SyntheticSpec, path) -> None:
    payload = {
        "canvas_size": spec.canvas_size,
        "seed": spec.seed,
        "samples_per_class": spec.samples_per_class,
        "position_jitter": spec.position_jitter,
        "intensity_range": list(spec.intensity_range),
        "noise_sigma": spec.noise_sigma,
        "background": spec.background,
        "units": [
            {"unit_id": u.unit_id, "glyph": u.glyph, "region": list(u.region)}
            for u in spec.units
        ],
        "class_rules": {k: sorted(v) for k, v in spec.class_rules.items()},
    }
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _regions_overlap(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1


def generate_synthetic(spec: SyntheticSpec, out_dir) -> DatasetManifest:
    """Render the spec to out_dir: images/*.pgm, manifest.csv, placements.csv.

    Deterministic in spec.seed (each image draws from a generator seeded
    by (seed, image index)). Returns the manifest, already based at
    out_dir.
    """
    spec.validate()
    for i, a in enumerate(spec.units):
        for b in spec.units[i + 1 :]:
            if _regions_overlap(a.region, b.region):
                warnings.warn(
                    f"placement regions of units {a.unit_id} and {b.unit_id} overlap; "
                    "their responses may be indistinguishable",
                    stacklevel=2,
                )
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    rows: list[ManifestRow] = []
    placements: list[tuple[str, int, int, int, float]] = []
    index = 0
    for cls in spec.class_rules:
        rule = sorted(spec.class_rules[cls])
        for k in range(spec.samples_per_class):
            rng = np.random.default_rng([spec.seed, index])
            canvas = spec.background + spec.noise_sigma * rng.standard_normal(
                (spec.canvas_size, spec.canvas_size)
            )
            rel = f"images/{cls}_{k:04d}.pgm"
            for unit_id in rule:
                unit = spec.unit_by_id(unit_id)
                stencil = GLYPHS[unit.glyph]()
                gh, gw = stencil.shape
                x0, y0, x1, y1 = unit.region
                cx = (x0 + x1 - gw) // 2
                cy = (y0 + y1 - gh) // 2
                if spec.position_jitter > 0:
                    j = spec.position_jitter
                    cx += int(rng.integers(-j, j + 1))
                    cy += int(rng.integers(-j, j + 1))
                cx = min(max(cx, x0), x1 - gw)
                cy = min(max(cy, y0), y1 - gh)
                intensity = float(rng.uniform(*spec.intensity_range))
                patch = canvas[cy : cy + gh, cx : cx + gw]
                np.maximum(patch, stencil * 255.0 * intensity, out=patch)
                placements.append((rel, unit_id, cy, cx, intensity))
            imageio.write_pgm(out_dir / rel, np.clip(canvas, 0, 255).astype(np.uint8))
            rows.append(
                ManifestRow(
                    path=rel,
                    label=cls,
                    au_set=frozenset(rule),
                    subject=f"synth{index:05d}",
                    sequence=f"seq{index:05d}",
                )
            )
            index += 1
    manifest = DatasetManifest(rows=rows, base_dir=out_dir)
    manifest.save(out_dir / "manifest.csv")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "unit_id", "y", "x", "intensity"])
    for rel, unit_id, y, x, intensity in placements:
        writer.writerow([rel, unit_id, y, x, repr(intensity)])
    write_atomic(out_dir / "placements.csv", buf.getvalue())
    return manifest


# -------------------------------------------------------------- split


def split(manifest: DatasetManifest, test_count: int, seed: int) -> tuple[DatasetManifest, DatasetManifest]:
    """Partition into (train, test), keeping whole sequences together.

    Shuffled sequences are moved into the test side until it holds at
    least test_count images, so the test set is the smallest union of
    whole sequences reaching the requested size. Raises DataError when
    that leaves no training image.
    """
    if not 0 < test_count < len(manifest):
        raise DataError(f"test_count {test_count} not in (0, {len(manifest)})")
    sequences: dict[str, list[int]] = {}
    for i, row in enumerate(manifest.rows):
        sequences.setdefault(row.sequence or f"row{i}", []).append(i)
    order = list(sequences)
    rng = np.random.default_rng(seed)
    rng.shuffle(order)
    test_idx: set[int] = set()
    for seq in order:
        if len(test_idx) >= test_count:
            break
        test_idx.update(sequences[seq])
    train_rows = [r for i, r in enumerate(manifest.rows) if i not in test_idx]
    if not train_rows:
        raise DataError(f"test_count {test_count} takes every image: the test side's whole "
                        f"sequences hold all {len(manifest)}, leaving none to train on")
    test_rows = [r for i, r in enumerate(manifest.rows) if i in test_idx]
    return (
        DatasetManifest(rows=train_rows, base_dir=manifest.base_dir),
        DatasetManifest(rows=test_rows, base_dir=manifest.base_dir),
    )
