"""Carlson's symmetric elliptic integrals R_F, R_J and R_C by duplication.

B. C. Carlson, "Numerical computation of real or complex elliptic
integrals", Numer. Algorithms 10 (1995). Each duplication step replaces every
argument v by (v + lambda)/4, which brings them together fourfold; once they
agree to the sixth (R_F, R_J) or eighth (R_C) root of the unit roundoff, a
fixed Taylor polynomial finishes with a relative truncation error below about
2^-53.

The arguments are 0 or between 1e-150 and 1e150, where no intermediate
product underflows or overflows; the package's drops pass values from about
1e-86 to 1e112. They may be floats or numpy arrays: only arithmetic
operators are used, ``** 0.5`` included, so a float call never loads numpy.
An array duplicates until its slowest element has converged.
"""

from __future__ import annotations

_R = 2.0**-53  # relative truncation error aimed at

# duplicate until 4^-m * Q <= |A_m|, Q this factor times the spread of the arguments
_Q_RF = (3.0 * _R) ** (-1.0 / 6.0)
_Q_RC = (3.0 * _R) ** (-1.0 / 8.0)
_Q_RJ = (0.25 * _R) ** (-1.0 / 6.0)


def _pending(flags) -> bool:
    """Whether any element still needs a step. A NaN or infinite argument
    compares false and stops, and so does an underflow of A to 0."""
    return bool(flags.any()) if hasattr(flags, "any") else bool(flags)


def rf(x, y, z):
    """R_F(x, y, z) = (1/2) * integral over t >= 0 of ((t+x)(t+y)(t+z))^(-1/2).

    x, y, z >= 0, at most one of them zero.
    """
    a0 = (x + y + z) / 3.0
    q = _Q_RF * (abs(a0 - x) + abs(a0 - y) + abs(a0 - z))
    dx, dy = a0 - x, a0 - y
    a, scale = a0, 1.0
    while _pending(scale * q > abs(a)):
        sx, sy, sz = x**0.5, y**0.5, z**0.5
        lam = sx * sy + sx * sz + sy * sz
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        scale *= 0.25
    X, Y = dx * scale / a, dy * scale / a
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / a**0.5


def rc(x, y):
    """R_C(x, y) = R_F(x, y, y), x >= 0, y > 0.

    Duplication rather than the arctangent and area-cosine closed forms,
    which lose digits as x and y approach each other.
    """
    a0 = (x + 2.0 * y) / 3.0
    q = _Q_RC * abs(a0 - x)
    dy = y - a0
    a, scale = a0, 1.0
    while _pending(scale * q > abs(a)):
        lam = 2.0 * x**0.5 * y**0.5 + y
        x, y, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (a + lam)
        scale *= 0.25
    s = dy * scale / a
    poly = 3.0 / 10.0 + s * (1.0 / 7.0 + s * (3.0 / 8.0 + s * (9.0 / 22.0 + s * (159.0 / 208.0 + s * 9.0 / 8.0))))
    return (1.0 + s * s * poly) / a**0.5


def rj(x, y, z, p):
    """R_J(x, y, z, p) = (3/2) * integral over t >= 0 of
    ((t+x)(t+y)(t+z))^(-1/2) / (t+p), x, y, z >= 0 with at most one zero, p > 0.
    """
    a0 = (x + y + z + 2.0 * p) / 5.0
    q = _Q_RJ * (abs(a0 - x) + abs(a0 - y) + abs(a0 - z) + abs(a0 - p))
    dx, dy, dz = a0 - x, a0 - y, a0 - z
    a, scale, tail = a0, 1.0, 0.0
    while _pending(scale * q > abs(a)):
        sx, sy, sz = x**0.5, y**0.5, z**0.5
        lam = sx * sy + sx * sz + sy * sz
        # R_C(alpha^2, beta^2) of the step, scaled by d = alpha + beta =
        # (sqrt(p) + sqrt(x))(sqrt(p) + sqrt(y))(sqrt(p) + sqrt(z)) to stay in range
        alpha = p * (sx + sy + sz) + sx * sy * sz
        beta = p**0.5 * (p + lam)
        d = alpha + beta
        tail = tail + scale / d * rc((alpha / d) ** 2, (beta / d) ** 2)
        x, y, z, p, a = (0.25 * (v + lam) for v in (x, y, z, p, a))
        scale *= 0.25
    X, Y, Z = dx * scale / a, dy * scale / a, dz * scale / a
    P = -0.5 * (X + Y + Z)
    xyz, p2 = X * Y * Z, P * P
    e2 = X * Y + X * Z + Y * Z - 3.0 * p2
    e3 = xyz + 2.0 * e2 * P + 4.0 * p2 * P
    e4 = (2.0 * xyz + e2 * P + 3.0 * p2 * P) * P
    e5 = xyz * p2
    poly = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
            - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return scale * poly / (a * a**0.5) + 3.0 * tail
