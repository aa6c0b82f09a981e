"""Reference conditions-matrix builder the oracle must reproduce entry for
entry.

The per-point builder the oracle used before its derivative tables were
computed for all points at once: every power is a Python pow, and the rows
of each point are written level by level. Kept free of any imports from the
package under test.
"""

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


def reference_conditions_matrix(points, profiles, xexp, yexp, p: int) -> np.ndarray:
    """Rows d^c/dx^c d^e/dy^e x^j y^l at each point, for each level e of its
    width profile and each c < w_e, against the columns (j, l) of xexp and
    yexp broadcast together, in C order; one point at a time."""
    profiles = [tuple(widths) for widths in profiles]
    shape = np.broadcast_shapes(np.shape(xexp), np.shape(yexp))
    out = np.empty((sum(map(sum, profiles)), int(np.prod(shape))), dtype=np.int64)
    if len(out) == 0:
        return out
    xexp, yexp = np.asarray(xexp), np.asarray(yexp)
    max_order = max(max(len(w), *w) for w in profiles if w) - 1
    fall = falling_table(int(max(xexp.max(), yexp.max())), max_order, p)
    r = 0
    for (x, y), widths in zip(points, profiles, strict=True):
        if not widths:
            continue
        dx = derivatives(x, max(widths), fall, p)
        dy = derivatives(y, len(widths), fall, p)
        for e, w in enumerate(widths):
            block = out[r : r + w].reshape((w,) + shape)
            np.multiply(dx[:w, xexp], dy[e, yexp], out=block)
            np.remainder(block, p, out=block)
            r += w
    return out
