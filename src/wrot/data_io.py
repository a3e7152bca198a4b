"""File formats for datasets and label embeddings, and seeded feature groupings.

Feature files are either dense CSV (one instance per row) or a raw binary
layout: an 8-byte magic string, two little-endian uint32 dims (N, M), then
N*M little-endian float32 values. Both are read; :func:`save_features`
writes the binary layout. Label files are text, one instance per
line: ``index<TAB>comma-separated label indices``. Embedding files are the
usual text layout with a ``count dim`` header and one ``token v1 .. vdim``
line each; multi-word labels resolve to the underscore-joined token when
present, otherwise to the renormalized mean of their constituent tokens.
A feature grouping has no file: :func:`make_grouping` rebuilds it from
``(dim, group_count, seed)``.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from .measures import FeatureGrouping, _as_float_array, _check_count, _freeze, _padded_dim

__all__ = [
    "Dataset",
    "load_dataset",
    "save_features",
    "save_labels",
    "load_embeddings",
    "load_embedding_file",
    "make_grouping",
]

_FEATURES_MAGIC = b"WROTFEAT"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Dense features with binary label indicators; every row is labeled."""

    features: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self):
        features = _as_float_array(self.features, "features", 2)
        labels = np.asarray(self.labels)
        if labels.ndim != 2:
            raise ValueError("labels must be a 2-d indicator array")
        if labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels cover {labels.shape[0]} instances, features {features.shape[0]}"
            )
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("label entries must be 0 or 1")
        if np.any(labels.sum(axis=1) < 1):
            bad = int(np.nonzero(labels.sum(axis=1) < 1)[0][0])
            raise ValueError(f"instance {bad} has zero labels")
        names = tuple(str(n) for n in self.label_names)
        if len(names) != labels.shape[1]:
            raise ValueError(
                f"{len(names)} label names for {labels.shape[1]} label columns"
            )
        object.__setattr__(self, "features", _freeze(features, self.features))
        object.__setattr__(self, "labels", _freeze(labels.astype(np.int8), self.labels))
        object.__setattr__(self, "label_names", names)

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[1]


def _load_features_binary(blob: bytes, path) -> np.ndarray:
    header = struct.calcsize("<8sII")
    if len(blob) < header:
        raise ValueError(f"{path}: truncated feature header")
    magic, n, m = struct.unpack_from("<8sII", blob, 0)
    if n * m == 0:
        raise ValueError(f"{path}: empty feature file ({n} instances x {m} features)")
    expected = header + n * m * 4
    if len(blob) != expected:
        raise ValueError(
            f"{path}: feature payload is {len(blob) - header} bytes, "
            f"expected {n * m * 4} for {n}x{m}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=header)
    return data.reshape(n, m).astype(np.float64)


def _load_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(_FEATURES_MAGIC)] == _FEATURES_MAGIC:
        return _load_features_binary(blob, path)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a feature file (bad magic, not CSV)") from exc
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad CSV value") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(
                f"{path}:{lineno}: row has {len(row)} values, expected {width}"
            )
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty feature file")
    return np.asarray(rows, dtype=np.float64)


def save_features(path, features) -> None:
    """Write a feature matrix in the binary layout; the readers also take CSV."""
    features = _as_float_array(features, "features", 2)
    n, m = features.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sII", _FEATURES_MAGIC, n, m))
        fh.write(features.astype("<f4").tobytes())


def save_labels(path, labels) -> None:
    """Write an indicator matrix as ``index<TAB>comma-separated indices`` lines."""
    labels = np.asarray(labels)
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(labels):
            idx = np.nonzero(row)[0]
            fh.write(f"{i}\t{','.join(str(int(j)) for j in idx)}\n")


def _parse_labels(path, n_instances, n_labels):
    seen = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'index<TAB>labels', got {line!r}"
                )
            try:
                idx = int(parts[0])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad instance index") from exc
            if not 0 <= idx < n_instances:
                raise ValueError(
                    f"{path}:{lineno}: instance index {idx} out of range "
                    f"[0, {n_instances})"
                )
            if idx in seen:
                raise ValueError(f"{path}:{lineno}: duplicate instance index {idx}")
            tokens = [t for t in parts[1].split(",") if t.strip()]
            if not tokens:
                raise ValueError(f"{path}:{lineno}: instance {idx} has zero labels")
            try:
                labels = [int(t) for t in tokens]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad label index") from exc
            seen[idx] = labels
    missing = [i for i in range(n_instances) if i not in seen]
    if missing:
        raise ValueError(f"{path}: instance {missing[0]} has zero labels")
    max_label = max(max(v) for v in seen.values())
    min_label = min(min(v) for v in seen.values())
    if min_label < 0:
        raise ValueError(f"{path}: negative label index {min_label}")
    if n_labels is None:
        n_labels = max_label + 1
    elif max_label >= n_labels:
        raise ValueError(
            f"{path}: label index {max_label} out of range [0, {n_labels})"
        )
    indicator = np.zeros((n_instances, n_labels), dtype=np.int8)
    for idx, labels in seen.items():
        indicator[idx, labels] = 1
    return indicator


def load_dataset(features_path, labels_path, label_names=None, num_labels=None) -> Dataset:
    """Load features (CSV or binary) and tab-separated label lines.

    The label count comes from ``label_names``/``num_labels`` when given,
    otherwise from the largest index in the file. Every instance must appear
    with at least one label.
    """
    if num_labels is not None:
        _check_count(num_labels, "num_labels")
    features = _load_features(features_path)
    if label_names is not None and num_labels is not None and len(label_names) != num_labels:
        raise ValueError("label_names length disagrees with num_labels")
    if num_labels is None and label_names is not None:
        num_labels = len(label_names)
    indicator = _parse_labels(labels_path, features.shape[0], num_labels)
    if label_names is None:
        label_names = tuple(f"label_{j}" for j in range(indicator.shape[1]))
    return Dataset(features=features, labels=indicator, label_names=tuple(label_names))


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------


def _read_embedding_entries(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}:1: header must be 'count dim'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError(f"{path}:1: header must be 'count dim'") from exc
        names = []
        vectors = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected token + {dim} floats, "
                    f"got {len(parts)} fields"
                )
            token = parts[0]
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad float") from exc
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{path}:{lineno}: non-finite embedding value")
            if token in vectors:
                raise ValueError(f"{path}:{lineno}: duplicate token {token!r}")
            names.append(token)
            vectors[token] = vec
    if len(names) != count:
        raise ValueError(
            f"{path}: header declares {count} vectors, file has {len(names)}"
        )
    return names, vectors


def _unit(vec, what):
    norm = float(np.linalg.norm(vec))
    if norm <= 0:
        raise ValueError(f"cannot normalize zero embedding for {what}")
    return vec / norm


def load_embeddings(path, label_names) -> np.ndarray:
    """Resolve ``label_names`` against an embedding file; rows are unit-norm.

    A name's token form replaces spaces with underscores. Missing tokens fall
    back to the mean of the name's constituent words (all of which must be
    present), renormalized.
    """
    _, vectors = _read_embedding_entries(path)
    rows = []
    for name in label_names:
        token = name.replace(" ", "_")
        if token in vectors:
            rows.append(_unit(vectors[token], name))
            continue
        parts = [p for p in re.split(r"[_\s]+", name) if p]
        missing = [p for p in parts if p not in vectors]
        if not parts or missing:
            raise ValueError(
                f"no embedding for label {name!r}"
                + (f" (missing constituents: {', '.join(missing)})" if missing else "")
            )
        mean = np.mean([vectors[p] for p in parts], axis=0)
        rows.append(_unit(mean, name))
    return np.asarray(rows)


def load_embedding_file(path):
    """All vectors of an embedding file, in file order, unit-normalized.

    Returns ``(names, matrix)``; used when the file itself defines the label
    set (token ``i`` is label ``i``).
    """
    names, vectors = _read_embedding_entries(path)
    matrix = np.asarray([_unit(vectors[n], n) for n in names])
    return names, matrix


# ---------------------------------------------------------------------------
# Groupings
# ---------------------------------------------------------------------------


def make_grouping(dim: int, group_count: int, seed: int) -> FeatureGrouping:
    """Random feature grouping: ``ceil(dim / group_count)`` rows per group.

    The permutation over the padded coordinates is drawn from the seeded
    generator, so the same (dim, group_count, seed) always yields the same
    grouping; distances and losses built on a grouping depend on that draw.
    Raises if the required padding would fill an entire group (no valid
    grouping exists for such dim/group_count pairs).
    """
    _check_count(seed, "seed", least=0)
    permutation = np.random.default_rng(seed).permutation(_padded_dim(dim, group_count))
    return FeatureGrouping(dim=dim, group_count=group_count, permutation=permutation)
