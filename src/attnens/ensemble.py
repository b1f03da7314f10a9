"""Prediction matrices and weighted-average ensembling.

A prediction matrix is one model's row-stochastic class probabilities over a
fixed, ordered set of sample ids.  Ensembling combines aligned matrices as
sum(w_i * P_i) / sum(w_i).  Members are accumulated in sorted-name order, so
equal-weight combination is bitwise invariant under member permutation, and
scaling all weights by a constant cancels.

The CSV format is ``sample_id,p_0,...,p_{K-1}`` with probabilities printed
to 12 significant digits; reading validates shape, value range, and row
sums before constructing a matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .errors import AlignmentError, ConfigError, MatrixParseError

ROW_SUM_TOLERANCE = 1e-5

AVERAGE = "average"
WEIGHTED_AVERAGE = "weighted_average"
RULES = (AVERAGE, WEIGHTED_AVERAGE)


@dataclass(frozen=True)
class PredictionMatrix:
    """Row-stochastic [N, K] probabilities for an ordered list of sample ids."""

    model_name: str
    sample_ids: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 2:
            raise ConfigError(f"probs must be rank 2, got shape {probs.shape}")
        n, k = probs.shape
        if len(self.sample_ids) != n:
            raise ConfigError(f"{len(self.sample_ids)} sample ids for {n} rows")
        if len(set(self.sample_ids)) != n:
            raise ConfigError("sample ids must be unique")
        if k < 1:
            raise ConfigError("matrix needs at least one class column")
        # A membership test, so that NaN, which fails every comparison, is
        # refused too.
        outside = ~((probs >= 0.0) & (probs <= 1.0)).all(axis=1)
        if np.any(outside):
            row = int(np.argmax(outside))
            raise ConfigError(f"row {row}: probabilities must lie in [0, 1]")
        sums = probs.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOLERANCE
        if np.any(bad):
            row = int(np.argmax(bad))
            raise ConfigError(
                f"row {row} sums to {sums[row]:.8f}, outside 1 +/- {ROW_SUM_TOLERANCE}"
            )

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

    def __len__(self) -> int:
        return len(self.sample_ids)


@dataclass(frozen=True)
class EnsembleSpec:
    """Members with non-negative weights plus the combining rule.

    The 'average' rule requires equal weights; 'weighted_average' accepts any
    non-negative weights with a positive sum.
    """

    members: tuple[tuple[PredictionMatrix, float], ...]
    rule: str = AVERAGE

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if self.rule not in RULES:
            raise ConfigError(f"rule must be one of {RULES}, got {self.rule!r}")
        if not self.members:
            raise ConfigError("ensemble needs at least one member")
        weights = np.array([w for _, w in self.members], dtype=np.float64)
        if np.any(~np.isfinite(weights)) or np.any(weights < 0.0):
            raise ConfigError("weights must be finite and non-negative")
        if weights.sum() <= 0.0:
            raise ConfigError("at least one weight must be positive")
        if self.rule == AVERAGE and len(set(weights.tolist())) > 1:
            raise ConfigError("'average' rule requires equal weights")


def _check_aligned(members) -> None:
    (first, _), *rest = members
    for matrix, _ in rest:
        if matrix.num_classes != first.num_classes:
            raise AlignmentError(
                f"member {matrix.model_name!r} has {matrix.num_classes} classes, "
                f"{first.model_name!r} has {first.num_classes}"
            )
        if matrix.sample_ids != first.sample_ids:
            n = min(len(matrix.sample_ids), len(first.sample_ids))
            for i in range(n):
                if matrix.sample_ids[i] != first.sample_ids[i]:
                    raise AlignmentError(
                        f"member {matrix.model_name!r} diverges at row {i}: "
                        f"{matrix.sample_ids[i]!r} vs {first.sample_ids[i]!r}"
                    )
            raise AlignmentError(
                f"member {matrix.model_name!r} has {len(matrix.sample_ids)} rows, "
                f"{first.model_name!r} has {len(first.sample_ids)}"
            )


def combine(spec: EnsembleSpec) -> PredictionMatrix:
    """Weighted-average the members into a new row-stochastic matrix."""
    _check_aligned(spec.members)
    ordered = sorted(spec.members, key=lambda mw: mw[0].model_name)
    described = ",".join(f"{m.model_name}:{w:g}" for m, w in ordered)
    name = f"{spec.rule}({described})"
    if len(ordered) == 1:
        matrix, _ = ordered[0]
        return PredictionMatrix(name, matrix.sample_ids, matrix.probs.copy())
    # Normalize weights to sum to one before accumulating. Dividing the
    # weights rather than the accumulated sum keeps hand-checkable cases
    # like (2,1) over [0.8,0.2]/[0.2,0.8] exact in floating point.
    weight_sum = sum(weight for _, weight in ordered)
    total = np.zeros_like(ordered[0][0].probs)
    for matrix, weight in ordered:
        total = total + (weight / weight_sum) * matrix.probs
    return PredictionMatrix(name, ordered[0][0].sample_ids, total)


def accuracy(matrix: PredictionMatrix, labels) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    labels = np.asarray(labels)
    if labels.shape != (len(matrix),):
        raise AlignmentError(
            f"{labels.shape[0] if labels.ndim else 0} labels for {len(matrix)} rows"
        )
    predictions = matrix.probs.argmax(axis=1)
    return float((predictions == labels).mean())


def per_class_accuracy(matrix: PredictionMatrix, labels) -> dict[int, float]:
    """Accuracy restricted to each true class present in ``labels``."""
    labels = np.asarray(labels)
    predictions = matrix.probs.argmax(axis=1)
    out = {}
    for cls in sorted(set(labels.tolist())):
        mask = labels == cls
        out[int(cls)] = float((predictions[mask] == cls).mean())
    return out


def select_best_k(candidates, k: int) -> list[tuple[str, float]]:
    """Top-k (name, accuracy) pairs, best first; ties break lexicographically."""
    pairs = [(str(name), float(acc)) for name, acc in candidates]
    if k < 1 or k > len(pairs):
        raise ConfigError(f"k must lie in [1, {len(pairs)}], got {k}")
    pairs.sort(key=lambda na: (-na[1], na[0]))
    return pairs[:k]


def write_matrix(matrix: PredictionMatrix, path) -> None:
    """Write the CSV form with 12-significant-digit probabilities."""
    k = matrix.num_classes
    with atomic_write(path, "w", newline="") as f:
        f.write("sample_id," + ",".join(f"p_{i}" for i in range(k)) + "\n")
        for sid, row in zip(matrix.sample_ids, matrix.probs):
            f.write(sid + "," + ",".join(f"{v:.12g}" for v in row) + "\n")


def read_matrix(path, model_name: str | None = None) -> PredictionMatrix:
    """Parse and validate a prediction-matrix CSV."""
    with open(path, newline="") as f:
        try:
            lines = f.read().splitlines()
        except UnicodeDecodeError as e:
            raise MatrixParseError(f"{path}: {e}") from e
    if not lines:
        raise MatrixParseError(f"{path}: empty file, missing header")
    header = lines[0].split(",")
    if header[0] != "sample_id" or len(header) < 2:
        raise MatrixParseError(f"{path} line 1: header must be sample_id,p_0,...")
    k = len(header) - 1
    if header[1:] != [f"p_{i}" for i in range(k)]:
        raise MatrixParseError(f"{path} line 1: probability columns must be p_0..p_{k - 1}")
    ids = []
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        fields = line.split(",")
        if len(fields) != k + 1:
            raise MatrixParseError(
                f"{path} line {line_no}: expected {k + 1} fields, got {len(fields)}"
            )
        try:
            row = [float(v) for v in fields[1:]]
        except ValueError:
            raise MatrixParseError(
                f"{path} line {line_no}: non-numeric probability"
            ) from None
        ids.append(fields[0])
        rows.append(row)
    if not rows:
        raise MatrixParseError(f"{path}: no data rows")
    name = model_name if model_name is not None else _stem(path)
    try:
        return PredictionMatrix(name, tuple(ids), np.array(rows, dtype=np.float64))
    except ConfigError as e:
        raise MatrixParseError(f"{path}: {e}") from None


def _stem(path) -> str:
    return os.path.splitext(os.path.basename(str(path)))[0]
