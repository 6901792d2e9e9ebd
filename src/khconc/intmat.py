"""Exact integer matrix routines: echelon forms, kernels, Smith normal form.

Matrices are plain lists of row lists of Python ints, so every computation
is arbitrary precision.  Pivot choices are fixed (smallest absolute value,
then lowest index), which makes all outputs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass
class SmithForm:
    """U * A * V = diag(factors), with U, Uinv, V unimodular."""

    factors: list[int]
    u: list[list[int]]
    uinv: list[list[int]]
    v: list[list[int]]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.factors if d != 0)


def smith_form(a: list[list[int]]) -> SmithForm:
    """Smith normal form with tracked row transforms.

    Row operations are mirrored on U and inverted on Uinv, column
    operations on V, so U*A*V = D and U*Uinv = I hold exactly.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    d = [row[:] for row in a]
    u = identity(m)
    uinv = identity(m)
    v = identity(n)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def row_scale(i, s):
        d[i] = [s * x for x in d[i]]
        u[i] = [s * x for x in u[i]]
        for row in uinv:
            row[i] *= s

    def row_addmul(dst, src, q):
        # row dst += q * row src;  Uinv col src -= q * col dst
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]
        for row in uinv:
            row[src] -= q * row[dst]

    def col_swap(i, j):
        _swap_cols(d, i, j)
        _swap_cols(v, i, j)

    def col_scale(j, s):
        _scale_col(d, j, s)
        _scale_col(v, j, s)

    def col_addmul(dst, src, q):
        _addmul_col(d, dst, src, q)
        _addmul_col(v, dst, src, q)

    k = 0
    while True:
        nz = [(i, j) for i in range(k, m) for j in range(k, n) if d[i][j] != 0]
        if not nz:
            break
        i0, j0 = min(nz, key=lambda ij: (abs(d[ij[0]][ij[1]]), ij[0], ij[1]))
        if i0 != k:
            row_swap(k, i0)
        if j0 != k:
            col_swap(k, j0)
        dirty = False
        for i in range(k + 1, m):
            if d[i][k]:
                q = d[i][k] // d[k][k]
                row_addmul(i, k, -q)
                if d[i][k]:
                    dirty = True
        for j in range(k + 1, n):
            if d[k][j]:
                q = d[k][j] // d[k][k]
                col_addmul(j, k, -q)
                if d[k][j]:
                    dirty = True
        if dirty:
            continue
        if d[k][k] < 0:
            row_scale(k, -1)
        k += 1
        if k == m or k == n:
            break

    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            di, dj = d[i][i], d[i + 1][i + 1]
            if di and dj and dj % di != 0:
                # fold the pair back into a 2x2 block and re-reduce
                row_addmul(i, i + 1, 1)
                while True:
                    entries = [
                        (abs(d[r][c]), r, c)
                        for r in (i, i + 1)
                        for c in (i, i + 1)
                        if d[r][c] != 0
                    ]
                    _, r0, c0 = min(entries)
                    if r0 != i:
                        row_swap(i, i + 1)
                    if c0 != i:
                        col_swap(i, i + 1)
                    if d[i + 1][i]:
                        q = d[i + 1][i] // d[i][i]
                        row_addmul(i + 1, i, -q)
                        continue
                    if d[i][i + 1]:
                        q = d[i][i + 1] // d[i][i]
                        col_addmul(i + 1, i, -q)
                        continue
                    break
                if d[i][i] < 0:
                    row_scale(i, -1)
                if d[i + 1][i + 1] < 0:
                    row_scale(i + 1, -1)
                changed = True

    # pivots were taken while any nonzero entry remained, so zeros come last
    factors = [d[i][i] for i in range(min(m, n))]
    return SmithForm(factors=factors, u=u, uinv=uinv, v=v)


def invariant_factors(a: list[list[int]]) -> list[int]:
    """Nonzero Smith invariant factors of A, in divisibility order."""
    return [f for f in smith_form(a).factors if f != 0]
