"""File formats for datasets and label embeddings, and seeded feature groupings.

Feature files are either dense CSV (one instance per row) or a NumPy
``.npy`` file holding a nonempty 2-d little-endian float32 array. Both are
read; :func:`save_features` writes ``.npy``. Label files are text, one
instance per line: ``index<TAB>comma-separated label indices``. Embedding
files are the usual text layout with a ``count dim`` header and one
``token v1 .. vdim`` line each; multi-word labels resolve to the
underscore-joined token when present, otherwise to the renormalized mean of
their constituent tokens. A feature grouping has no file:
:func:`make_grouping` rebuilds it from ``(dim, group_count, seed)``.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass

import numpy as np
from numpy.lib import format as npy

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

_NPY_HEADERS = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}


@dataclass(frozen=True, eq=False)
class Dataset:
    """Dense features with binary label indicators; every row is labeled."""

    features: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self):
        features = _as_float_array(self.features, "features", 2)
        labels = _check_labels(self.labels)
        if labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels cover {labels.shape[0]} instances, features {features.shape[0]}"
            )
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


def _check_labels(labels) -> np.ndarray:
    """``labels`` as a 2-d array of 0/1 entries with a 1 in every row."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("labels must be a 2-d indicator array")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must hold only 0 or 1 entries")
    unlabeled = np.flatnonzero(labels.sum(axis=1) < 1)
    if unlabeled.size:
        raise ValueError(f"labels: instance {unlabeled[0]} has zero labels")
    return labels


def _read_npy(path, blob: bytes, dtype) -> np.ndarray:
    """The nonempty 2-d ``dtype`` array of ``blob``, the bytes of an ``.npy`` file.

    The header is checked against the bytes that follow it before any array
    is made, so a header that claims more data than the file holds allocates
    nothing, and trailing bytes are refused as well as missing ones.
    """
    fh = io.BytesIO(blob)
    try:
        shape, fortran_order, found = _NPY_HEADERS[npy.read_magic(fh)](fh)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: truncated or unsupported .npy header") from exc
    if found != dtype or len(shape) != 2 or 0 in shape:
        raise ValueError(
            f"{path}: holds {found.str} data of shape {shape}, "
            f"expected a nonempty 2-d {dtype} array"
        )
    expected = math.prod(shape) * found.itemsize
    if len(blob) - fh.tell() != expected:
        raise ValueError(
            f"{path}: payload is {len(blob) - fh.tell()} bytes, expected {expected} for {shape}"
        )
    data = np.frombuffer(blob, dtype=dtype, offset=fh.tell())
    return data.reshape(shape, order="F" if fortran_order else "C")


def _write_npy(path, array, dtype) -> None:
    with open(path, "wb") as fh:
        npy.write_array(fh, np.asarray(array, dtype=dtype), allow_pickle=False)


def _load_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(npy.MAGIC_PREFIX):
        return _read_npy(path, blob, "<f4").astype(np.float64)
    if blob.startswith(b"WROTFEAT"):
        raise ValueError(f"{path}: old WROTFEAT binary layout; re-save it with save_features")
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
    """Write a feature matrix as a float32 ``.npy`` array; the readers also take
    CSV. An entry beyond the float32 range, which would be written as
    infinite, is refused before the file is opened."""
    features = _as_float_array(features, "features", 2)
    limit = np.finfo(np.float32).max
    if (np.abs(features) > limit).any():
        raise ValueError(f"features has an entry beyond the float32 range of ±{limit:.8g}")
    _write_npy(path, features, "<f4")


def save_labels(path, labels) -> None:
    """Write an indicator matrix as ``index<TAB>comma-separated indices`` lines.

    ``labels`` is checked as :class:`Dataset` checks it, so every file written
    loads back: 2-d, entries 0 or 1, and at least one label per row.
    """
    labels = _check_labels(labels)
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
    """Load features (CSV or ``.npy``) and tab-separated label lines.

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
        try:
            count, dim = map(int, fh.readline().split())
        except ValueError as exc:
            raise ValueError(f"{path}:1: header must be 'count dim'") from exc
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
            vectors[token] = vec
    if len(vectors) != count:
        raise ValueError(
            f"{path}: header declares {count} vectors, file has {len(vectors)}"
        )
    return vectors


def _unit(vec, what):
    largest = np.max(np.abs(vec), initial=0.0)
    if largest == 0.0:
        raise ValueError(f"cannot normalize zero embedding for {what}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if norm == 0.0 or norm == np.inf:
        # the squared sum under- or overflowed: divide by the largest entry first
        vec = vec / largest
        norm = float(np.linalg.norm(vec))
    return vec / norm


def load_embeddings(path, label_names) -> np.ndarray:
    """Resolve ``label_names`` against an embedding file; rows are unit-norm.

    A name's token form replaces spaces with underscores. Missing tokens fall
    back to the mean of the name's constituent words (all of which must be
    present), renormalized.
    """
    vectors = _read_embedding_entries(path)
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
    vectors = _read_embedding_entries(path)
    return list(vectors), np.asarray([_unit(vec, name) for name, vec in vectors.items()])


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
