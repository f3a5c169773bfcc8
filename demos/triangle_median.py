"""Solve the 3-4-5 right triangle and certify the result.

The median of a triangular region balances the mean distances to the
three edges; the printed spread collapsing to zero is the certificate.
A brute-force scan over the area objective confirms the location.
"""

from regionmedian import Point2, Polygon, mean_distance_certificate, solve_median
from regionmedian.oracle import oracle_minimize
from regionmedian.svg import region_figure

triangle = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])

result = solve_median(triangle)
print("median:            (%.12f, %.12f)" % (result.median.x, result.median.y))
print("iterations:        %d" % result.iterations)
print("normalized norm:   %.3e" % result.normalized_norm)

cert = mean_distance_certificate(triangle, result.median)
print("edge means:        %.12f  %.12f  %.12f" % cert.means)
print("certificate spread: %.3e" % cert.spread)

centroid = triangle.centroid
print("\nfor contrast, the centroid (%.4f, %.4f) is not balanced:" % (centroid.x, centroid.y))
off = mean_distance_certificate(triangle, centroid)
print("centroid spread:   %.3e" % off.spread)

print("\ncross-checking against the area-scan minimizer (slow, exact-ish)...")
brute = oracle_minimize(triangle)
gap = ((result.median.x - brute.x) ** 2 + (result.median.y - brute.y) ** 2) ** 0.5
print("scan minimizer:    (%.9f, %.9f)" % (brute.x, brute.y))
print("distance apart:    %.3e of a diameter-5 region" % gap)

with open("triangle_median.svg", "w") as fh:
    fh.write(region_figure(triangle.coords, result.median, trace=result.trace))
print("\nwrote triangle_median.svg (region, Newton trace, median cross)")
