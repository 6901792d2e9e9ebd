"""Exact integer matrix routines: kernels, solutions, invariant factors.

Matrices are plain lists of row lists of Python ints, so every computation
is arbitrary precision.  All elimination is one routine, _echelon, on rows:
a row is one Python list, so adding a multiple of one row to another is a
single list comprehension, and entries past the echelon width ride along.
Kernels and solutions pass each column of A followed by a unit vector, so a
column operation on A moves the transform with it.  Pivot choices are fixed
(smallest absolute value, then lowest index), so all outputs are
deterministic.
"""

from __future__ import annotations

import math


def matvec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def _echelon(rows: list[list[int]], width: int) -> int:
    """Unimodular row operations, in place, until the first width entries are echelon.

    Returns the pivot count r.  Rows 0..r-1 are the pivot rows: their pivot
    positions strictly increase and their pivots are positive.  The first
    width entries of every later row are zero.  Entries past width ride
    along with every operation.
    """
    n = len(rows)
    piv = 0
    for c in range(width):
        if piv == n:
            break
        while True:
            nz = [j for j in range(piv, n) if rows[j][c]]
            if not nz:
                break
            if len(nz) == 1:
                j0 = nz[0]
                rows[piv], rows[j0] = rows[j0], rows[piv]
                break
            j0 = min(nz, key=lambda j: abs(rows[j][c]))
            p = rows[j0]
            for j in nz:
                q = rows[j][c] // p[c]
                if q and j != j0:
                    rows[j] = [x - q * y for x, y in zip(rows[j], p)]
        if rows[piv][c]:
            if rows[piv][c] < 0:
                rows[piv] = [-x for x in rows[piv]]
            piv += 1
    return piv


def _column_rows(a: list[list[int]], n: int) -> list[list[int]]:
    """Column j of A followed by the unit vector e_j, for each of the n columns."""
    m = len(a)
    rows = []
    # each row is made at its final size, so peak memory stays A plus the rows
    for j, col in enumerate(zip(*a) if a else [()] * n):
        row = [0] * (m + n)
        row[:m] = col
        row[m + j] = 1
        rows.append(row)
    return rows


def kernel_basis(a: list[list[int]], ncols: int | None = None) -> list[list[int]]:
    """Basis of the integer kernel {x : A x = 0}, as a list of columns."""
    if not a and ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    m = len(a)
    rows = _column_rows(a, len(a[0]) if a else ncols)
    # rows past the pivots are (0, x) with A x = 0; cut to x in place, not copied
    del rows[:_echelon(rows, m)]
    for row in rows:
        del row[:m]
    return rows


def solve(a: list[list[int]], b: list[int]) -> list[int] | None:
    """One integer solution x of A x = b, or None if none exists."""
    m = len(a)
    n = len(a[0]) if a else 0
    rows = _column_rows(a, n)
    res = list(b)
    x = [0] * n
    for row in rows[:_echelon(rows, m)]:
        i = next(i for i in range(m) if row[i])
        y, rem = divmod(res[i], row[i])
        if rem:
            return None
        if y:
            res = [u - y * v for u, v in zip(res, row)]
            x = [u + y * v for u, v in zip(x, row[m:])]
    return None if any(res) else x


def smith_form(a: list[list[int]]) -> list[int]:
    """Nonzero Smith invariant factors of A, in divisibility order.

    Echelon the columns, then the rows of the result, and so on until every
    row holds its pivot alone; no transforms are kept.  The pivots are then
    put in divisibility order by replacing pairs (a, b) with (gcd, lcm),
    which leaves an equivalent matrix.
    """
    rows = transpose(a)
    while True:
        rows = rows[:_echelon(rows, len(rows[0]) if rows else 0)]
        if all(sum(map(bool, row)) == 1 for row in rows):
            break
        rows = transpose(rows)
    factors = [max(row) for row in rows]
    k = len(factors)
    for i in range(k):
        for j in range(i + 1, k):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors
