"""
Path tracking from first principles
===================================

Polynomial systems are solved here by continuation: start from a system
whose roots are known, deform it into the system you care about, and follow
every root along the way.  This script runs the machinery on systems small
enough to check by hand.
"""
import numpy as np

from trifocal import tracker

# --- a system with known root structure ----------------------------------
# Two quadrics in two variables: Bezout says 2*2 = 4 roots, and the start
# system x_i^2 - 1 has the four sign vectors as its roots.


def evaluate(z):
    x, y = z
    return np.array([x**2 + y**2 - 4.0, x * y - 1.0])


def jacobian(z):
    x, y = z
    return np.array([[2 * x, 2 * y], [y, x]])


system = tracker.SquareSystem(2, evaluate, jacobian, "circle meets hyperbola")
endpoints = tracker.total_degree_solve(system, [2, 2], rng=np.random.default_rng(5))
roots = sorted((e.point for e in endpoints), key=lambda p: (p[0].real, p[1].real))
print("tracked", len(endpoints), "paths")
for p in roots:
    print("  root:", np.round(p, 6), " residual:", f"{np.abs(evaluate(p)).max():.1e}")

# x^2 + 1/x^2 = 4 has closed-form solutions; compare.
exact_x = sorted(
    np.roots([1, 0, -4, 0, 1]), key=lambda v: (v.real, v.imag)
)
got_x = sorted((p[0] for p in roots), key=lambda v: (v.real, v.imag))
print("max |x - exact|:", f"{max(abs(a-b) for a, b in zip(got_x, exact_x)):.1e}")

# --- the gamma trick ------------------------------------------------------
# A random unit phase multiplying the start system keeps paths away from
# singular intermediate systems (with probability one).  The endpoints do
# not depend on it.
cfg = tracker.TrackerConfig(gamma=np.exp(0.7j))
again = tracker.total_degree_solve(system, [2, 2], cfg=cfg, rng=np.random.default_rng(5))
roots2 = sorted((e.point for e in again), key=lambda p: (p[0].real, p[1].real))
drift = max(np.abs(a - b).max() for a, b in zip(roots, roots2))
print("gamma changed, endpoints moved by:", f"{drift:.1e}")

# --- adaptive stepping ----------------------------------------------------
steps = [e.steps for e in endpoints]
print("steps per path:", steps, "(the tracker halves/doubles its stride as needed)")

# --- singular endpoints and the endgame -----------------------------------
# x^2 - 1 deformed into x^2: both roots run into the double root x = 0 as
# x(s) = sqrt(s), and the Jacobian vanishes there, so stepping stalls just
# short of s = 0.  The Cauchy endgame circles s = 0 instead, starting from
# where the path entered the endgame zone s <= 1e-2: the path closes up
# after two windings (its cycle number) and the mean of the samples is the
# endpoint.
def square_minus(c):
    return tracker.SquareSystem(
        1, lambda z: np.array([z[0] ** 2 - c]), lambda z: np.array([[2 * z[0]]])
    )


end = tracker.track_path(square_minus(1.0), square_minus(0.0), [1.0])
print(f"double root: status={end.status} winding={end.winding} |x|={abs(end.point[0]):.1e}",
      f"finite={end.finite}")
