"""Independent 50-digit oracle for profile heights, extremal drops and thresholds.

Shares no code with ``cmc_annuli``. Every integral is taken from a base radius
``r0`` where the profile is vertical, after the substitution r = r0 + s^2. The
radicand factor that vanishes at ``r0`` is written in product form,

    small(r0) - small(r0 + d) = 2 sinh(d/2) [cosh(r0 + d/2) - 2h sinh(r0 + d/2)]
    large(r0 + d) - large(r0) = 2 sinh(d/2) [cosh(r0 + d/2) + 2h sinh(r0 + d/2)]

with small(r) = 2h cosh r - sinh r and large(r) = 2h cosh r + sinh r, so no
difference of nearly equal numbers is ever formed and the integrand is smooth
in s up to s = 0.

Run ``python3 bench/oracle.py`` to print a few reference values.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 50


def _small(h, r):
    return 2 * h * mp.cosh(r) - mp.sinh(r)


def _large(h, r):
    return 2 * h * mp.cosh(r) + mp.sinh(r)


def _climb(h, r0, rho, branch):
    """Height gained from r0 to rho by the profile vertical at r0 on ``branch``.

    ``branch`` is "small" (parameter small(r0), rising) or "large" (parameter
    large(r0), dipping first). Works for every h in (0, 1/2], also when
    small(r0) <= 0, where it is the limiting flux-constant graph.
    """
    alpha = _small(h, r0) if branch == "small" else _large(h, r0)
    sign = 1 if branch == "small" else -1

    def integrand(s):
        d = s * s
        r = r0 + d
        half = r0 + d / 2
        if d == 0:
            # 2s / sqrt(2 sinh(s^2/2)) -> 2 as s -> 0
            ratio = mp.mpf(2)
        else:
            ratio = 2 * s / mp.sqrt(2 * mp.sinh(d / 2))
        vanishing = mp.cosh(half) - sign * 2 * h * mp.sinh(half)
        if branch == "small":
            other = _large(h, r) - alpha
        else:
            other = alpha - _small(h, r)
        return ratio * (2 * h * mp.cosh(r) - alpha) / mp.sqrt(vanishing * other)

    return mp.quad(integrand, [0, mp.sqrt(rho - r0)])


def _mp(x):
    return mp.mpf(float(x))


def extremal_drops(h, a, b):
    """(d_min, d_max) of u(a) - u(b) over radial cmc-h graphs on a <= rho <= b."""
    with mp.workdps(DIGITS):
        h, a, b = _mp(h), _mp(a), _mp(b)
        return float(-_climb(h, a, b, "small")), float(-_climb(h, a, b, "large"))


def hole_ok(h, a):
    """Whether a small-branch profile starts on the circle of radius a."""
    return h == 0.5 or a < float(mp.atanh(2 * _mp(h)))


def envelope_at(h, a, rho, m, M, drops):
    """(lower, upper) envelope values at rho from the drops of ``extremal_drops``.

    The upper envelope is the large-branch profile vertical at a, shifted to
    M at b, so upper(rho) = climb(a, rho) + M + d_max; likewise the lower one
    with m and d_min. ``lower`` is None when the hole is too large.
    """
    d_min, d_max = drops
    with mp.workdps(DIGITS):
        hm, am, rm = _mp(h), _mp(a), _mp(rho)
        upper = float(_climb(hm, am, rm, "large") + M + d_max)
        lower = float(_climb(hm, am, rm, "small") + m + d_min) if hole_ok(h, a) else None
    return lower, upper


def boundary_radius(h, alpha):
    """Starting radius of the profile with parameter alpha (closed form)."""
    with mp.workdps(DIGITS):
        h, alpha = _mp(h), _mp(alpha)
        x = (1 + 2 * h) / (alpha + mp.sqrt(alpha**2 + (1 - 2 * h) * (1 + 2 * h)))
        return abs(mp.log(x))


def profile_heights(h, alpha, radii):
    """Heights of the profile with parameter alpha != 2h at the given radii."""
    with mp.workdps(DIGITS):
        r0 = boundary_radius(h, alpha)
        branch = "small" if alpha < 2 * h else "large"
        hm = _mp(h)
        return [float(_climb(hm, r0, _mp(rho), branch)) if rho > r0 else 0.0 for rho in radii]


def neck_half_height(rho):
    """Closed form of the h = 1/2, alpha = 1 profile: 2 (cosh(rho/2) - 1)."""
    with mp.workdps(DIGITS):
        return float(2 * (mp.cosh(_mp(rho) / 2) - 1))


if __name__ == "__main__":
    import time

    for h, a, b in [(0.4, 0.5, 2.0), (0.5, 1.0, 2.0), (0.3, 1.0, 2.0)]:
        t0 = time.perf_counter()
        d_min, d_max = extremal_drops(h, a, b)
        print(f"h={h} a={a} b={b} d_min={d_min!r} d_max={d_max!r} "
              f"({time.perf_counter() - t0:.3f} s)")
    print("h=1/2 alpha=0.5 rho=2:", profile_heights(0.5, 0.5, [2.0])[0])
