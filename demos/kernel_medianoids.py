"""Medianoids for power-law cost kernels on one pentagon.

The exponent p interpolates familiar landmarks: p=1 is the geometric
median, p=2 lands exactly on the area centroid, and large p chases the
point minimizing the worst-case distance.
"""

import numpy as np

from regionmedian import Polygon, RadialKernel, solve_medianoid

pentagon = Polygon([(0.0, 0.0), (2.0, 0.0), (2.8, 1.2), (1.2, 2.4), (-0.4, 1.0)])
centroid = pentagon.centroid
print("pentagon centroid: (%.12f, %.12f)\n" % (centroid.x, centroid.y))

print("%6s  %18s  %18s  %10s" % ("p", "medianoid x", "medianoid y", "iters"))
for p in (1.0, 1.5, 2.0, 3.0, 6.0):
    res = solve_medianoid(pentagon, RadialKernel.power(p))
    print("%6.1f  %18.12f  %18.12f  %10d" % (p, res.median.x, res.median.y, res.iterations))

res2 = solve_medianoid(pentagon, RadialKernel.power(2.0))
drift = ((res2.median.x - centroid.x) ** 2 + (res2.median.y - centroid.y) ** 2) ** 0.5
print("\np=2 distance from the centroid: %.3e (an exact identity, to solver tolerance)" % drift)

custom = RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 0.25 * (dx * dx + dy * dy))
resc = solve_medianoid(pentagon, custom)
print("\na custom kernel |w| + |w|^2/4 gives (%.9f, %.9f)" % (resc.median.x, resc.median.y))
print("flagged local=%s: custom kernels promise a stationary point, not global optimality"
      % resc.local)
