"""Carlson's symmetric elliptic integrals R_F, R_J and R_C by duplication.

B. C. Carlson, "Numerical computation of real or complex elliptic
integrals", Numer. Algorithms 10 (1995). Each duplication step replaces every
argument v by (v + lambda)/4, which brings them together fourfold. ``rf_rj``
gives R_F(x, y, z) and R_J(x, y, z, p) from one loop that shares each step's
square roots and lambda; ``rc`` has a loop of its own. Every loop stops once
4^-m times the spread of the arguments, sum |A_0 - v|, is below the eighth
root of 3r (R_F, R_C) or r/4 (R_J) times the mean A_m, r = 2^-53, and
finishes with the seventh-order Taylor polynomial of DLMF 19.36.1 and
19.36.2. The first neglected terms, of degree 8, then stay below 6.3e-5 * 3r
(R_F) and 8.1e-4 * r/4 (R_J) relative: the truncation error is far below
2^-53, and rounding dominates.

The arguments are 0 or between 1e-150 and 1e150, where no intermediate
product underflows or overflows; the package's drops pass values from about
1e-86 to 1e112. They may be floats or numpy arrays: only arithmetic
operators are used, ``** 0.5`` included, so a float call never loads numpy.
An array duplicates until its slowest element has converged.
"""

from __future__ import annotations

_R = 2.0**-53  # relative truncation error aimed at

# duplicate until 4^-m * Q <= |A_m|, Q this factor times the spread of the arguments
_Q_RF = (3.0 * _R) ** (-1.0 / 8.0)
_Q_RC = (3.0 * _R) ** (-1.0 / 8.0)
_Q_RJ = (0.25 * _R) ** (-1.0 / 8.0)


def _pending(flags) -> bool:
    """Whether any element still needs a step. A NaN or infinite argument
    compares false and stops, and so does an underflow of A to 0."""
    return bool(flags.any()) if hasattr(flags, "any") else bool(flags)


def _rc_series(s):
    """sqrt(A) * R_C(x, y) to seventh order in s = (y - A)/A, A = (x + 2y)/3."""
    poly = 3.0 / 10.0 + s * (1.0 / 7.0 + s * (3.0 / 8.0 + s * (9.0 / 22.0 + s * (159.0 / 208.0 + s * 9.0 / 8.0))))
    return 1.0 + s * s * poly


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
    return _rc_series(dy * scale / a) / a**0.5


def rf_rj(x, y, z, p):
    """(R_F(x, y, z), R_J(x, y, z, p)), x, y, z >= 0 with at most one zero, p > 0.

    R_F(x, y, z) = (1/2) * integral over t >= 0 of ((t+x)(t+y)(t+z))^(-1/2)
    and R_J(x, y, z, p) the same integral times 3/(t+p). The loop runs until
    both stopping tests hold.
    """
    sum3 = x + y + z
    af, aj = sum3 / 3.0, (sum3 + 2.0 * p) / 5.0
    qf = _Q_RF * (abs(af - x) + abs(af - y) + abs(af - z))
    qj = _Q_RJ * (abs(aj - x) + abs(aj - y) + abs(aj - z) + abs(aj - p))
    fx, fy, jx, jy, jz = af - x, af - y, aj - x, aj - y, aj - z
    scale, tail = 1.0, 0.0
    while _pending((scale * qf > abs(af)) | (scale * qj > abs(aj))):
        sx, sy, sz = x**0.5, y**0.5, z**0.5
        lam = sx * sy + sx * sz + sy * sz
        # R_J's term R_C(alpha^2, beta^2), scaled by d = alpha + beta =
        # (sqrt(p) + sqrt(x))(sqrt(p) + sqrt(y))(sqrt(p) + sqrt(z)) to stay in range
        alpha = p * (sx + sy + sz) + sx * sy * sz
        beta = p**0.5 * (p + lam)
        d = alpha + beta
        u, v = alpha / d, beta / d
        # R_C(u^2, v^2) with u + v = 1: 3A = u^2 + 2v^2 and v^2 - u^2 = v - u;
        # the Taylor polynomial where rc would take no step, rc itself otherwise
        three_a = u * u + 2.0 * v * v
        if _pending(2.0 * _Q_RC * abs(v - u) > three_a):
            term = rc(u * u, v * v)
        else:
            term = _rc_series((v - u) / three_a) * (3.0 / three_a) ** 0.5
        tail = tail + scale / d * term
        x, y, z, p = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (p + lam)
        af, aj = 0.25 * (af + lam), 0.25 * (aj + lam)
        scale *= 0.25
    X, Y = fx * scale / af, fy * scale / af
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    poly_f = (1.0 + e2 * (-1.0 / 10.0 + e2 * (1.0 / 24.0 - 5.0 / 208.0 * e2 + e3 / 16.0) - 3.0 / 44.0 * e3)
              + e3 * (1.0 / 14.0 + 3.0 / 104.0 * e3))
    X, Y, Z = jx * scale / aj, jy * scale / aj, jz * scale / aj
    P = -0.5 * (X + Y + Z)
    xyz, p2 = X * Y * Z, P * P
    e2 = X * Y + X * Z + Y * Z - 3.0 * p2
    e3 = xyz + 2.0 * e2 * P + 4.0 * p2 * P
    e4 = (2.0 * xyz + e2 * P + 3.0 * p2 * P) * P
    e5 = xyz * p2
    poly_j = (1.0 + e2 * (-3.0 / 14.0 + e2 * (9.0 / 88.0 - e2 / 16.0 + 45.0 / 272.0 * e3) - 9.0 / 52.0 * e3
                          + 3.0 / 20.0 * e4 - 9.0 / 68.0 * e5)
              + e3 * (1.0 / 6.0 + 3.0 / 40.0 * e3 - 9.0 / 68.0 * e4) - 3.0 / 22.0 * e4 + 3.0 / 26.0 * e5)
    return poly_f / af**0.5, scale * poly_j / (aj * aj**0.5) + 3.0 * tail
