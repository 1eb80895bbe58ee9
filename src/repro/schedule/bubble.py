"""Analytical pipeline-bubble models (§2.2, §3.2, §3.3).

All formulas are the paper's:

- non-interleaved bubble time:      t_pb = (p - 1) (t_f + t_b)
- non-interleaved bubble fraction:  t_pb / t_id = (p - 1) / m
- interleaved bubble fraction:      (1/v) (p - 1) / m
- bubble vs. data-parallel size:    (n/d - 1) / (b'/d) = (n - d) / b'
  with b' = B / b (§3.3.1, Figure 6).
"""

from __future__ import annotations


def bubble_fraction(p: int, m: int, v: int = 1) -> float:
    """Bubble time over ideal time: ``(1/v) (p - 1)/m``.

    ``v = 1`` gives the GPipe / PipeDream-Flush fraction; ``v > 1`` the
    interleaved schedule's.
    """
    _check_p_m(p, m)
    if v < 1:
        raise ValueError("v must be >= 1")
    return (p - 1) / (m * v)


def bubble_overhead(p: int, m: int, v: int = 1) -> float:
    """Bubble as a fraction of *total* (not ideal) time:
    ``t_pb / (t_pb + t_id)``.  This is what a measured timeline's idle
    fraction equals."""
    f = bubble_fraction(p, m, v)
    return f / (1.0 + f)


def bubble_fraction_vs_data_parallel(n: int, d: int, b_prime: int) -> float:
    """§3.3.1 / Figure 6: bubble fraction ``(n - d) / b'`` for t = 1.

    ``n`` GPUs, data-parallel size ``d`` (must divide n), and
    ``b' = B / b``.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if n % d != 0:
        raise ValueError(f"d={d} must divide n={n}")
    if b_prime < 1:
        raise ValueError("b' must be >= 1")
    if b_prime % d != 0:
        raise ValueError(f"d={d} must divide b'={b_prime} (m must be integral)")
    return (n - d) / b_prime


def _check_p_m(p: int, m: int) -> None:
    if p < 1:
        raise ValueError("p must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
