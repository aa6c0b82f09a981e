"""Reference conditions-matrix builders the oracle must reproduce entry for
entry.

The per-point builder the oracle used before its derivative tables were
computed for all points at once: every power is a Python pow, and the rows
of each point are written level by level. The rows of a point on the line
are expanded monomial by monomial instead. The plane model's triangle
geometry, which the oracle used before its corners sat at the coordinate
points, is kept here too. Kept free of any imports from the package under
test.
"""

from math import comb, factorial

import numpy as np


def falling_table(max_exp: int, max_order: int, p: int) -> np.ndarray:
    """fall[c, j] = j (j-1) ... (j-c+1) mod p, zero when j < c."""
    fall = np.zeros((max_order + 1, max_exp + 1), dtype=np.int64)
    fall[0, :] = 1
    for c in range(1, max_order + 1):
        fall[c, c:] = fall[c - 1, c:] * np.arange(1, max_exp - c + 2) % p
    return fall


def derivatives(t: int, orders: int, fall: np.ndarray, p: int) -> np.ndarray:
    """D[c, j] = d^c/dt^c t^j = fall[c, j] t^(j-c) mod p, for c < orders."""
    n = fall.shape[1]
    powers = np.array([pow(t, e, p) for e in range(n)], dtype=np.int64)
    out = np.zeros((orders, n), dtype=np.int64)
    for c in range(min(orders, n)):
        out[c, c:] = fall[c, c:] * powers[: n - c] % p
    return out


def trinomial(n: int, a: int, b: int) -> int:
    """The coefficient of s^a t^b in (1 + s + t)^n."""
    return comb(n, a) * comb(n - a, b) if a + b <= n else 0


def directional_row(x: int, y: int, c: int, e: int, slope: int, columns, p: int) -> list[int]:
    """d_u^c d_v^e x^j y^l at (x, y), with u = (1, 1) and v = (1, slope), for
    each (j, l) in columns: c! e! times the coefficient of s^c t^e in
    (x + s + t)^j (y + s + slope t)^l."""
    row = []
    for j, l in columns:
        total = 0
        for a in range(c + 1):
            for b in range(e + 1):
                # s^a t^b from the x factor, the rest from the y factor
                coeff = trinomial(j, a, b) * trinomial(l, c - a, e - b)
                if coeff:
                    total += (coeff * pow(slope, e - b, p) * pow(x, j - a - b, p)
                              * pow(y, l - c - e + a + b, p))
        row.append(total * factorial(c) * factorial(e) % p)
    return row


def reference_conditions_matrix(points, profiles, xexp, yexp, p: int, *,
                                on_line: int = 0, slope: int = 0) -> np.ndarray:
    """Rows d^c/dx^c d^e/dy^e x^j y^l at each point, for each level e of its
    width profile and each c < w_e, against the columns (j, l) of xexp and
    yexp broadcast together, in C order; one point at a time. The last
    on_line points take the rows d_u^c d_v^e of directional_row instead."""
    profiles = [tuple(widths) for widths in profiles]
    shape = np.broadcast_shapes(np.shape(xexp), np.shape(yexp))
    out = np.empty((sum(map(sum, profiles)), int(np.prod(shape))), dtype=np.int64)
    if out.size == 0:
        return out
    xexp, yexp = np.asarray(xexp), np.asarray(yexp)
    columns = [(int(j), int(l)) for j, l in zip(*(np.broadcast_to(a, shape).ravel()
                                                  for a in (xexp, yexp)))]
    max_order = max(max(len(w), *w) for w in profiles if w) - 1
    fall = falling_table(int(max(xexp.max(), yexp.max())), max_order, p)
    r = 0
    for i, ((x, y), widths) in enumerate(zip(points, profiles, strict=True)):
        if not widths:
            continue
        if i >= len(profiles) - on_line:
            for e, w in enumerate(widths):
                for c in range(w):
                    out[r] = directional_row(x, y, c, e, slope, columns, p)
                    r += 1
            continue
        dx = derivatives(x, max(widths), fall, p)
        dy = derivatives(y, len(widths), fall, p)
        for e, w in enumerate(widths):
            block = out[r : r + w].reshape((w,) + shape)
            np.multiply(dx[:w, xexp], dy[e, yexp], out=block)
            np.remainder(block, p, out=block)
            r += w
    return out


def triangle_conditions(d: int, scheme, points):
    """The arguments of a conditions-matrix builder for a plane scheme on
    degree-d forms in the triangle geometry: every monomial x^j y^k with
    j + k <= d is a column, and points holds one chart point per profile, in
    scheme order: the general points and the two corners, drawn as chart
    points, then one per point on the line y = 0, which keeps its x and
    moves to (x, 0), where its rows are d^c/dx^c d^e/dy^e."""
    mults = scheme.general + (scheme.corner_a, scheme.corner_b)
    # partials of order above d vanish on degree-d forms
    profiles = [tuple(range(min(m, d + 1), 0, -1)) for m in mults]
    profiles += [pr.widths for pr in scheme.on_line]
    points = list(points[: len(mults)]) + [(x, 0) for x, _ in points[len(mults) :]]
    j, k = np.triu_indices(d + 1)
    return points, profiles, j, k - j


def triangle_conditions_matrix(d: int, scheme, points, p: int) -> np.ndarray:
    """The triangle geometry's conditions matrix of a plane scheme."""
    return reference_conditions_matrix(*triangle_conditions(d, scheme, points), p)
