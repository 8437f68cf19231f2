"""Exact Mann-Kendall permutation oracle for short series.

Enumerates every permutation of the observed values (feasible up to
n = 8) and returns the exact two-sided p-value Pr(|S_perm| >= |S_obs|).
Kept independent of the library implementation: S is recomputed here
with a direct double loop, in Python or a block of rows at a time in
numpy.
"""
import itertools
import math

import numpy as np

_PERM_CACHE: dict[int, np.ndarray] = {}


def s_statistic(values) -> int:
    values = list(values)
    s = 0
    for i in range(len(values) - 1):
        for j in range(i + 1, len(values)):
            if values[j] > values[i]:
                s += 1
            elif values[j] < values[i]:
                s -= 1
    return s


def s_statistic_blocked(values, rows: int = 512) -> int:
    """The double sum of ``s_statistic``, a block of ``rows`` i's at a time in numpy.

    For long series, where the Python loop is too slow: each block
    compares its values with every later value and counts the signs.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    s = 0
    for start in range(0, n, rows):
        head = x[start:start + rows, None]
        later = x[None, start + 1:]
        is_later = np.arange(start + 1, n)[None, :] > np.arange(start, start + len(head))[:, None]
        s += int(np.count_nonzero((later > head) & is_later))
        s -= int(np.count_nonzero((later < head) & is_later))
    return s


def _permutation_matrix(n: int) -> np.ndarray:
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(
            list(itertools.permutations(range(n))), dtype=np.intp
        )
    return _PERM_CACHE[n]


def exact_two_sided_p(values) -> float:
    """Pr(|S| >= |S_observed|) over all orderings of the value multiset."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n > 8:
        raise ValueError(f"full enumeration is only feasible for n <= 8, got {n}")
    s_observed = abs(s_statistic(values))
    permuted = values[_permutation_matrix(n)]  # (n!, n)
    s_all = np.zeros(permuted.shape[0], dtype=np.int64)
    for i in range(n - 1):
        for j in range(i + 1, n):
            diff = permuted[:, j] - permuted[:, i]
            s_all += (diff > 0).astype(np.int64) - (diff < 0).astype(np.int64)
    return float(np.mean(np.abs(s_all) >= s_observed))


def exact_one_sided_p(values) -> float:
    """Pr(S >= S_observed) over all orderings (upper tail)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n > 8:
        raise ValueError(f"full enumeration is only feasible for n <= 8, got {n}")
    s_observed = s_statistic(values)
    permuted = values[_permutation_matrix(n)]
    s_all = np.zeros(permuted.shape[0], dtype=np.int64)
    for i in range(n - 1):
        for j in range(i + 1, n):
            diff = permuted[:, j] - permuted[:, i]
            s_all += (diff > 0).astype(np.int64) - (diff < 0).astype(np.int64)
    return float(np.mean(s_all >= s_observed))


def normal_one_sided_p(s: int, var_s: float) -> float:
    """Continuity-corrected upper-tail normal approximation of Pr(S >= s)."""
    if var_s <= 0:
        return 1.0 if s <= 0 else 0.0
    return 0.5 * math.erfc((s - 1) / math.sqrt(2.0 * var_s))
