"""Exact integer matrix routines: echelon forms, kernels, solutions, invariant factors.

Matrices are plain lists of row lists of Python ints, so every computation
is arbitrary precision.  Pivot choices are fixed (smallest absolute value,
then lowest index), which makes all outputs deterministic.
"""

from __future__ import annotations

import math


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        out.append([sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)])
    return out


def matvec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def _swap_cols(a: list[list[int]], i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def _scale_col(a: list[list[int]], j: int, s: int) -> None:
    for row in a:
        row[j] *= s


def _addmul_col(a: list[list[int]], dst: int, src: int, q: int) -> None:
    # col dst += q * col src
    for row in a:
        row[dst] += q * row[src]


def column_echelon(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """Return (E, T, r) with E = A*T, T unimodular, E in column echelon form.

    The first r columns of E are the pivot columns (pivot rows strictly
    increasing, pivots positive); the remaining columns are zero.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    e = [row[:] for row in a]
    t = identity(n)
    piv = 0
    for r in range(m):
        if piv == n:
            break
        while True:
            nz = [j for j in range(piv, n) if e[r][j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                j0 = nz[0]
                if j0 != piv:
                    _swap_cols(e, piv, j0)
                    _swap_cols(t, piv, j0)
                break
            j0 = min(nz, key=lambda j: (abs(e[r][j]), j))
            for j in nz:
                if j == j0:
                    continue
                q = e[r][j] // e[r][j0]
                if q:
                    _addmul_col(e, j, j0, -q)
                    _addmul_col(t, j, j0, -q)
        if e[r][piv] != 0:
            if e[r][piv] < 0:
                _scale_col(e, piv, -1)
                _scale_col(t, piv, -1)
            piv += 1
    return e, t, piv


def kernel_basis(a: list[list[int]], ncols: int | None = None) -> list[list[int]]:
    """Basis of the integer kernel {x : A x = 0}, as a list of columns."""
    if not a:
        if ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    n = len(a[0])
    _, t, r = column_echelon(a)
    return [[t[i][j] for i in range(n)] for j in range(r, n)]


def solve(a: list[list[int]], b: list[int]) -> list[int] | None:
    """One integer solution x of A x = b, or None if none exists."""
    m = len(a)
    n = len(a[0]) if a else 0
    if not a:
        return [0] * n if not any(b) else None
    e, t, r = column_echelon(a)
    pivot_rows = []
    for j in range(r):
        i = next(i for i in range(m) if e[i][j] != 0)
        pivot_rows.append(i)
    y = [0] * n
    res = list(b)
    for j in range(r):
        i = pivot_rows[j]
        if res[i] % e[i][j] != 0:
            return None
        y[j] = res[i] // e[i][j]
        if y[j]:
            for k in range(m):
                res[k] -= y[j] * e[k][j]
    if any(res):
        return None
    return matvec(t, y)


def smith_form(a: list[list[int]]) -> list[int]:
    """Nonzero Smith invariant factors of A, in divisibility order.

    Pivot on the entry of least absolute value and clear its row and column
    until the pivot divides both; no transforms are kept.  The diagonal is
    then put in divisibility order by replacing pairs (a, b) with
    (gcd, lcm), which leaves an equivalent matrix.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    d = [row[:] for row in a]
    k = 0
    while k < min(m, n):
        nz = [(i, j) for i in range(k, m) for j in range(k, n) if d[i][j] != 0]
        if not nz:
            break
        i0, j0 = min(nz, key=lambda ij: (abs(d[ij[0]][ij[1]]), ij[0], ij[1]))
        d[k], d[i0] = d[i0], d[k]
        _swap_cols(d, k, j0)
        dirty = False
        for i in range(k + 1, m):
            if d[i][k]:
                q = d[i][k] // d[k][k]
                d[i] = [x - q * y for x, y in zip(d[i], d[k])]
                dirty = dirty or d[i][k] != 0
        for j in range(k + 1, n):
            if d[k][j]:
                _addmul_col(d, j, k, -(d[k][j] // d[k][k]))
                dirty = dirty or d[k][j] != 0
        if not dirty:
            k += 1
    factors = [abs(d[i][i]) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors
