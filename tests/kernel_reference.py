"""The Magnus and matrix-exponential kernels as first written, one new array
per operation, kept as references for the bits of the in-place kernels of
apucosim.cosim and apucosim.numerics (test_kernels_match_their_reference_bits
in test_cosim.py). Each states its formula in the order its floating-point
operations are made; the kernels must make the same operations in the same
order, so any reordering shows as a differing bit."""
import math

import numpy as np

from apucosim.numerics import _TAYLOR16, _THETA16
from apucosim.wrsg.dynamics import harmonic_weights

_GAUSS_NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])


def _commutator(x, y):
    return x @ y - y @ x


def magnus_exponents(basis, b, theta0, w_e, ta, starts, dt):
    """(Omega6, Omega6 - Omega4) over the sub-steps [starts, starts + dt]."""
    t = starts[:, None] + dt[:, None] * _GAUSS_NODES
    a = harmonic_weights(theta0 + w_e * (t - ta)) @ basis
    gen = np.zeros(t.shape + (8, 8))
    gen[..., :7, :7] = a.reshape(t.shape + (7, 7))
    gen[..., :7, 7] = b
    d = dt[:, None, None]
    a1 = d * gen[:, 1]
    a2 = (math.sqrt(15.0) / 3.0) * d * (gen[:, 2] - gen[:, 0])
    a3 = (10.0 / 3.0) * d * (gen[:, 2] - 2.0 * gen[:, 1] + gen[:, 0])
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    high = _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    return a1 + a3 / 12.0 + high, high + c1 / 12.0


def expm(a):
    """Scaling and squaring with the degree-16 Taylor polynomial in six
    matrix products."""
    a = np.array(a, dtype=float)
    norm = float(np.max(np.sum(np.abs(a), axis=-2))) if a.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm / _THETA16))) if norm > 0 else 0
    a = a / 2.0 ** squarings
    c = _TAYLOR16
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a3 = a2 @ a
    a4 = a2 @ a2
    r = c[16] * a4 + c[15] * a3 + c[14] * a2 + c[13] * a + c[12] * eye
    for k in (8, 4, 0):
        r = r @ a4 + c[k + 3] * a3 + c[k + 2] * a2 + c[k + 1] * a + c[k] * eye
    for _ in range(squarings):
        r = r @ r
    return r
