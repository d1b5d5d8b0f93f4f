"""Rank feature maps by how differently they respond with/without an AU.

For one action unit and one feature map, take the top-n peak activations
over images containing the unit (R) and over images without it (Q),
pair them rank-wise, and accumulate both directions of an epsilon-floored
KL-style sum. The map with the largest symmetric distance is the unit's
detector candidate. `profile` scores every map of the activation DB at
once: one sort per partition gives the top-n lists of all maps as rows.

Activations are used as raw values floored at epsilon, not true
probabilities; `kl_term(normalize=True)` rescales each list to sum 1
first.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import DataError, DatasetManifest, read_text, write_atomic
from .harvest import ActivationDB, partition_by_au

EPSILON = 1e-8


def _as_response(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if (arr < 0).any():
        raise ValueError("activation responses must be nonnegative")
    return arr


def kl_term(r, q, eps: float = EPSILON, normalize: bool = False) -> float | np.ndarray:
    """Sum of r_k * log(r_k / q_k) over rank-paired values (the last axis).

    Both lists are floored at eps before the log so exact zeros stay
    finite. With normalize=True each list is first rescaled to sum 1.
    A 1-D pair gives one float; [maps, k] rows give one sum per map.
    """
    r = _as_response(r)
    q = _as_response(q)
    if r.shape != q.shape:
        raise ValueError(f"shape mismatch: {r.shape} vs {q.shape}")
    if normalize:
        r, q = _unit_sum(r), _unit_sum(q)
    r = np.maximum(r, eps)
    q = np.maximum(q, eps)
    # each row of a C-contiguous array sums in the order of a 1-D list
    return (r * np.log(r / q)).sum(axis=-1)


def _unit_sum(x: np.ndarray) -> np.ndarray:
    total = x.sum(axis=-1, keepdims=True)
    return np.divide(x, total, out=x.copy(), where=total > 0)


def symmetric_distance(r, q, eps: float = EPSILON,
                       normalize: bool = False) -> float | np.ndarray:
    """kl_term(R, Q) + kl_term(Q, R); symmetric by construction."""
    return kl_term(r, q, eps, normalize) + kl_term(q, r, eps, normalize)


@dataclass
class AUDistanceProfile:
    """Per-map distances for one action unit plus the winning map."""

    au_id: int
    distances: np.ndarray
    argmax_map: int
    n: int
    provenance: dict[str, str]

    @property
    def argmax_distance(self) -> float:
        return float(self.distances[self.argmax_map])


def profile(db: ActivationDB, manifest: DatasetManifest, au_id: int,
            n: int = 9) -> AUDistanceProfile:
    """Distance of one AU on every feature map, via rank-paired top-n.

    Partitions smaller than n shrink both lists to the shorter length
    (with a warning) so the pairing stays rank-aligned.
    """
    if db.num_images != len(manifest):
        raise DataError(
            f"activation db covers {db.num_images} images, manifest has {len(manifest)}"
        )
    if n < 1:
        raise DataError(f"top-n count must be at least 1, got {n}")
    with_au, without = partition_by_au(manifest, au_id)
    if not without:
        raise DataError(f"action unit {au_id} present in every image; no contrast set")
    k = min(n, len(with_au), len(without))
    if k < n:
        warnings.warn(
            f"AU {au_id}: only {k} images on the smaller side, using n={k}",
            stacklevel=2,
        )
    has = np.zeros(db.num_images, dtype=bool)
    has[list(with_au)] = True
    r, q = (np.ascontiguousarray(-np.sort(-db.values[side], axis=0)[:k].T)
            for side in (has, ~has))
    distances = symmetric_distance(r, q)
    argmax = int(np.argmax(distances))  # ties resolve to the smallest index
    provenance = dict(db.provenance)
    provenance["n"] = str(n)
    return AUDistanceProfile(au_id=au_id, distances=distances, argmax_map=argmax,
                             n=n, provenance=provenance)


def profile_all(db: ActivationDB, manifest: DatasetManifest, au_ids,
                n: int = 9) -> list[AUDistanceProfile]:
    return [profile(db, manifest, au_id, n) for au_id in sorted(au_ids)]


def save_profile_csv(prof: AUDistanceProfile, path) -> None:
    lines = ["map,distance"]
    for j, d in enumerate(prof.distances):
        lines.append(f"{j},{repr(float(d))}")
    lines.append(f"argmax,{prof.argmax_map},{repr(prof.argmax_distance)}")
    write_atomic(path, "\n".join(lines) + "\n")


def load_profile_csv(path) -> tuple[np.ndarray, int]:
    """Distances and argmax map back from a profile CSV."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != "map,distance":
        raise DataError(f"{path}: not a profile csv")
    body = [(ln, text) for ln, text in enumerate(lines[1:], start=2) if text]
    if not body or not body[-1][1].startswith("argmax,"):
        raise DataError(f"{path}: missing argmax summary line")
    fields = []
    for i, (ln, text) in enumerate(body):
        try:
            fields.append((int if i == len(body) - 1 else float)(text.split(",")[1]))
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path} line {ln}: malformed line {text!r}") from exc
    return np.array(fields[:-1]), fields[-1]
