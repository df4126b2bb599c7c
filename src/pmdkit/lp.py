"""Exact linear programs: a float simplex, then a rational certificate.

`exact_lp` returns the optimum of a small dense LP as a Fraction.  It
follows Applegate, Cook, Dash and Espinoza, "Exact solutions to linear
programming problems" (Oper. Res. Lett. 2007): solve in floats, then
prove the float basis optimal in exact arithmetic, and solve again in
exact arithmetic only when that proof fails.  A pivot updates the whole
tableau in one outer product.  The certificate reads the data's
denominators from its distinct values as Python floats, not through
np.unique, whose first call imports numpy.ma.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# Largest denominator `_rationalise` reads a float solution with.
_MAX_DENOMINATOR = 1 << 20
_FLOAT_TOL = 1e-9


class _SimplexError(RuntimeError):
    """The simplex found the LP infeasible or unbounded, or ran too long."""


class _Simplex:
    """Dense two-phase tableau simplex with Bland's rule, on floats with a
    tolerance or, with `exact`, on Fractions with none.

    The tableau's columns are the LP's variables, one slack per
    inequality and one artificial per row that needs one (a negative
    right side or an equality); each row is negated if its right side is
    negative.  The last row holds reduced costs, the last column right
    sides.
    """

    def __init__(self, c, a_ub, b_ub, a_eq, b_eq, exact: bool = False):
        m_ub, n = a_ub.shape
        m = m_ub + len(b_eq)
        rhs = np.concatenate([b_ub, b_eq])
        art_rows = np.flatnonzero((rhs < 0) | (np.arange(m) >= m_ub))
        arts = n + m_ub + np.arange(len(art_rows))
        self.n, self.n_std = n, n + m_ub  # artificials never enter
        tab = np.zeros((m + 1, self.n_std + len(art_rows) + 1))
        tab[:m_ub, :n], tab[m_ub:m, :n], tab[:m, -1] = a_ub, a_eq, rhs
        tab[np.arange(m_ub), n + np.arange(m_ub)] = 1.0
        tab[:m][rhs < 0] *= -1.0
        tab[art_rows, arts] = 1.0
        self.basis = n + np.arange(m)
        self.basis[art_rows] = arts
        self.cost = np.zeros(tab.shape[1])
        self.cost[:n] = c
        # The dual y_i is minus the reduced cost of row i's unit column: its
        # slack, or for an equality its artificial, negated with the row.
        self.unit_col = np.concatenate([n + np.arange(m_ub), arts[len(arts) - (m - m_ub):]])
        self.unit_flipped = np.concatenate([np.zeros(m_ub, bool), rhs[m_ub:] < 0])
        self.tol = 0 if exact else _FLOAT_TOL
        if exact:
            to_fraction = np.frompyfunc(Fraction, 1, 1)
            tab, self.cost = to_fraction(tab), to_fraction(self.cost)
        self.tab = tab

    def pivot(self, r: int, j: int) -> None:
        """Make column j basic in row r, updating every row at once, then
        writing back row r: a row with a zero in column j subtracts zero
        (+-0.0 on floats), which leaves its values unchanged."""
        tab = self.tab
        row = tab[r] / tab[r, j]
        tab -= np.multiply.outer(tab[:, j], row)
        tab[r] = row
        self.basis[r] = j

    def price(self, cost) -> None:
        """Reduced costs of `cost` in the last row."""
        self.tab[-1] = cost - cost[self.basis] @ self.tab[:-1]

    def bland(self, limit: int | None = None) -> None:
        """Pivot to an optimal basis: the least improving column enters,
        and ratio-test ties leave by least basic column."""
        tab, tol = self.tab, self.tol
        for _ in itertools.count() if limit is None else range(limit):
            improving = tab[-1, :self.n_std] < -tol
            j = improving.argmax()
            if not improving[j]:
                return
            rows = np.flatnonzero(tab[:-1, j] > tol)
            if not rows.size:
                raise _SimplexError("the LP is unbounded")
            ratios = np.maximum(tab[rows, -1], 0) / tab[rows, j]
            ties = rows[ratios <= ratios.min() + tol]
            self.pivot(ties[np.argmin(self.basis[ties])], j)
        raise _SimplexError(f"no optimal basis after {limit} pivots")

    def drive_out_artificials(self) -> None:
        """Replace each basic artificial (at value 0) by a real column of
        its row; a row with none is redundant and keeps it."""
        for r in np.flatnonzero(self.basis >= self.n_std):
            cols = np.flatnonzero(abs(self.tab[r, :self.n_std]) > self.tol)
            if cols.size:
                self.pivot(r, cols[0])

    def solve(self, limit: int | None = None) -> None:
        """Phase 1 (least total artificial) from the initial basis, then
        phase 2 on the LP's cost."""
        phase1 = np.zeros_like(self.cost)
        phase1[self.n_std:-1] = 1
        self.price(phase1)
        self.bland(limit)
        if self.tab[-1, -1] < -self.tol:
            raise _SimplexError("the LP is infeasible")
        self.drive_out_artificials()
        self.price(self.cost)
        self.bland(limit)

    def solution(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y): the basic point on the LP's own variables, and the
        duals of its rows."""
        values = np.zeros(self.tab.shape[1] - 1, dtype=self.tab.dtype)
        values[self.basis] = self.tab[:-1, -1]
        reduced = self.tab[-1, self.unit_col]
        return values[:self.n], np.where(self.unit_flipped, reduced, -reduced)


def _rationalise(values) -> list[Fraction]:
    """Each float as the nearest fraction of denominator <= _MAX_DENOMINATOR."""
    return [Fraction(v).limit_denominator(_MAX_DENOMINATOR) if v else Fraction(0)
            for v in values.tolist()]


def _certificate(lp, x: list[Fraction], y: list[Fraction]) -> Fraction | None:
    """c.x if x and y prove it the exact optimum of `lp`, else None.

    x must be feasible, y dual feasible (y_ub <= 0 and A^T y <= c) and
    c.x == b.y; weak duality then makes c.x optimal.  The LP data are
    dyadic floats, so scaled by their largest denominator (read from
    `float.as_integer_ratio` of each distinct value) they are integers;
    x and y are scaled by their common denominators, and every test is an
    integer comparison.
    """
    scale = max(v.as_integer_ratio()[1]
                for v in set(np.concatenate([v.ravel() for v in lp]).tolist()))
    c, a_ub, b_ub, a_eq, b_eq = (np.frompyfunc(int, 1, 1)(v * scale) for v in lp)
    x_den, y_den = (math.lcm(*(v.denominator for v in vec)) for vec in (x, y))
    big_x = np.array([v.numerator * (x_den // v.denominator) for v in x], dtype=object)
    big_y = np.array([v.numerator * (y_den // v.denominator) for v in y], dtype=object)
    y_ub, y_eq = big_y[:len(b_ub)], big_y[len(b_ub):]
    if ((big_x < 0).any() or (y_ub > 0).any()
            or (a_ub @ big_x > b_ub * x_den).any() or (a_eq @ big_x != b_eq * x_den).any()
            or (a_ub.T @ y_ub + a_eq.T @ y_eq > c * y_den).any()):
        return None
    cx = c @ big_x
    if cx * y_den != (b_ub @ y_ub + b_eq @ y_eq) * x_den:
        return None
    return Fraction(cx, scale * x_den)


def exact_lp(c, a_ub, b_ub, a_eq, b_eq) -> tuple[Fraction, list[Fraction]]:
    """The exact optimum and an optimal point of min c.x subject to
    A_ub x <= b_ub, A_eq x = b_eq, x >= 0, for a feasible bounded LP.

    Applegate, Cook, Dash and Espinoza's "float solve, then rational
    check" (Oper. Res. Lett. 2007): a float simplex finds an optimal
    basis, whose primal and dual points, read as small-denominator
    fractions, get an exact certificate (`_certificate`).  Should the
    float solve or that certificate fail, the Fraction simplex solves
    the LP again from its initial basis.  Every value returned has
    passed the certificate.
    """
    lp = tuple(np.asarray(v, dtype=float) for v in (c, a_ub, b_ub, a_eq, b_eq))
    fast = _Simplex(*lp)
    try:
        fast.solve(limit=10 * sum(fast.tab.shape))
    except _SimplexError:
        pass
    else:
        x, y = fast.solution()
        x = _rationalise(x)
        value = _certificate(lp, x, _rationalise(y))
        if value is not None:
            return value, x
    exact = _Simplex(*lp, exact=True)
    exact.solve()
    x, y = (list(map(Fraction, vec)) for vec in exact.solution())
    value = _certificate(lp, x, y)
    if value is None:  # pragma: no cover - an exact optimal basis certifies
        raise RuntimeError("the exact simplex optimum failed its certificate")
    return value, x
