"""Multi-criteria ranking of scheduling algorithms.

Four stages: criterion weights from a binary preference matrix, relative
estimations that place every algorithm between the best (0) and worst (1)
per objective, a reciprocal global superiority matrix, and the principal
eigenvector of that matrix.  The algorithm holding the largest eigenvector
entry wins.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .metrics import OBJECTIVES

# ratio used when one algorithm dominates another outright; keeps the
# matrix finite while preserving reciprocity
DOMINANCE_CAP = 1e3


@dataclass(frozen=True)
class Ranking:
    eigenvector: tuple[float, ...]  # unit Euclidean norm, entrywise positive
    winner: int  # index of the largest entry
    iterations: int


def weights_from_binary_matrix(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of a binary comparison matrix; returns (raw, normalized).

    Off-diagonal entries must be 0, 0.5, or 1 with m[i][j] + m[j][i] = 1;
    the diagonal is ignored.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise ValueError("binary comparison matrix must be square")
    raw = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if m[i, j] not in (0.0, 0.5, 1.0):
                raise ValueError(f"entry ({i},{j}) must be 0, 0.5, or 1")
            if m[i, j] + m[j, i] != 1.0:
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) must sum to 1")
            raw[i] += m[i, j]
    total = raw.sum()
    normalized = raw / total if total > 0 else np.full(n, 1.0 / n)
    return raw, normalized


def relative_estimations(
    values, orientations: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Scale each objective column so the best algorithm scores 0, worst 1.

    values is algorithms x objectives; orientations holds 'min' or 'max'
    per objective.  A degenerate column (all algorithms equal) contributes
    0 for everyone and is flagged in the returned mask.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ValueError("need at least 2 algorithms")
    if v.shape[1] != len(orientations):
        raise ValueError("one orientation per objective required")
    rel = np.zeros_like(v)
    degenerate = np.zeros(v.shape[1], dtype=bool)
    for j, orient in enumerate(orientations):
        if orient not in ("min", "max"):
            raise ValueError(f"orientation must be 'min' or 'max', got '{orient}'")
        col = v[:, j]
        lo, hi = col.min(), col.max()
        if hi == lo:
            degenerate[j] = True
            continue
        rel[:, j] = (col - lo) / (hi - lo) if orient == "min" else (hi - col) / (hi - lo)
    return rel, degenerate


def global_matrix(rel, weights, cap: float = DOMINANCE_CAP) -> np.ndarray:
    """Reciprocal superiority-ratio matrix over algorithms.

    S[i][k] accumulates the weighted margins of the objectives where row i
    beats column k; the matrix entry is the ratio S[i][k] / S[k][i], capped
    when one side has no wins at all.
    """
    r = np.asarray(rel, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = r.shape[0]
    s = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            margins = r[k] - r[i]  # positive where i is closer to best
            s[i, k] = float(np.sum(w[margins > 0] * margins[margins > 0]))
    a = np.ones((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            if s[i, k] == 0.0 and s[k, i] == 0.0:
                a[i, k] = a[k, i] = 1.0
            elif s[k, i] == 0.0:
                a[i, k], a[k, i] = cap, 1.0 / cap
            elif s[i, k] == 0.0:
                a[i, k], a[k, i] = 1.0 / cap, cap
            else:
                a[i, k] = s[i, k] / s[k, i]
                a[k, i] = s[k, i] / s[i, k]
    return a


def principal_eigenvector(
    matrix, tol: float = 1e-10, max_iters: int = 10_000
) -> Ranking:
    """Power iteration from the uniform vector, unit Euclidean norm.

    Perron-Frobenius guarantees a positive dominant eigenvector for a
    positive matrix, so the iteration converges; a failure to get below tol
    within max_iters raises with the final iterate gap.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n or n == 0:
        raise ValueError("matrix must be square and nonempty")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite numbers")
    if np.any(a <= 0):
        raise ValueError("matrix must be entrywise positive")
    x = np.full(n, 1.0 / np.sqrt(n))
    for it in range(1, max_iters + 1):
        y = a @ x
        y /= np.linalg.norm(y)
        gap = float(np.max(np.abs(y - x)))
        x = y
        if gap < tol:
            return Ranking(
                eigenvector=tuple(float(v) for v in x),
                winner=int(np.argmax(x)),
                iterations=it,
            )
    raise ArithmeticError(f"power iteration did not converge; last gap {gap:g}")


def rank_algorithms(
    values,
    orientations: Sequence[str],
    weights,
) -> tuple[np.ndarray, Ranking]:
    """Relative estimations -> global matrix -> eigenvector, in one call."""
    rel, _ = relative_estimations(values, orientations)
    a = global_matrix(rel, weights)
    return a, principal_eigenvector(a)


def load_matrix_tsv(text: str) -> tuple[np.ndarray, Optional[list[str]]]:
    """Read a square matrix from TSV, with an optional name header.

    Accepts plain numeric rows, or a header row of algorithm names (leading
    cell empty) with each data row carrying its name in the first column.
    Any other first row, a cell that is not a number and a ragged row are
    ValueErrors naming the line, counting blank lines.
    """
    rows = [(n, line.split("\t")) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not rows:
        raise ValueError("empty matrix file")
    names: Optional[list[str]] = None
    n, first = rows[0]
    try:
        float([c for c in first if c.strip()][-1])
    except ValueError:
        if first[0].strip():
            raise ValueError(f"line {n}: neither numbers nor a header (leading cell empty)") from None
        names = [c.strip() for c in first[1:] if c.strip()]
        rows = rows[1:]
    data = []
    for n, row in rows:
        cells = row[1:] if names is not None else row
        try:
            data.append([float(c) for c in cells if c.strip() != ""])
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from None
        if len(data[-1]) != len(data[0]):
            raise ValueError(f"line {n}: ragged row, {len(data[-1])} of {len(data[0])} numbers")
    m = np.array(data, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is not square: shape {m.shape}")
    if names is not None and len(names) != m.shape[0]:
        raise ValueError("header names do not match matrix size")
    return m, names


def matrix_to_tsv(matrix, names: Optional[Sequence[str]] = None) -> str:
    m = np.asarray(matrix, dtype=float)
    out = io.StringIO()
    if names is not None:
        out.write("\t" + "\t".join(names) + "\n")
    for i, row in enumerate(m):
        cells = [f"{v:.9g}" for v in row]
        if names is not None:
            out.write(names[i] + "\t")
        out.write("\t".join(cells) + "\n")
    return out.getvalue()


def render_matrix(names: Sequence[str], matrix, ranking: Ranking) -> str:
    """Tab-separated matrix with each row's eigenvector entry, then the winner."""
    m = np.asarray(matrix, dtype=float)
    out = io.StringIO()
    out.write("\t" + "\t".join(names) + "\teigenvector\n")
    for i, name in enumerate(names):
        row = "\t".join(f"{m[i, k]:.9g}" for k in range(len(names)))
        out.write(f"{name}\t{row}\t{ranking.eigenvector[i]:.4f}\n")
    out.write(f"\nwinner\t{names[ranking.winner]}\n")
    return out.getvalue()


def render_report(names: Sequence[str], values, matrix, ranking: Ranking) -> str:
    """Tab-separated report: absolute objectives, flagging the degenerate
    ones (every algorithm equal), then render_matrix."""
    v = np.asarray(values, dtype=float)
    out = io.StringIO()
    out.write("criteria\t" + "\t".join(names) + "\n")
    for j, obj in enumerate(OBJECTIVES):
        flag = " (degenerate)" if v[:, j].min() == v[:, j].max() else ""
        out.write(obj + flag + "\t" + "\t".join(f"{v[i, j]:.6g}" for i in range(len(names))) + "\n")
    out.write("\n")
    return out.getvalue() + render_matrix(names, matrix, ranking)
