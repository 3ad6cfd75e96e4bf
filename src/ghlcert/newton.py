"""Newton polygons, Newton functions, and slope-based factor-degree exclusions.

The polygon of a degree-m polynomial with respect to a prime p is the lower
convex hull of the points (x, nu(coefficient of x^(m-x))) for x = 0..m, so
x = 0 sits at the leading coefficient.  Edges carry exact rational slopes
which strictly increase left to right.  Points with infinite ordinate (zero
coefficients) are never hull candidates.

Factor-degree reasoning uses the lattice-segment form of the hull: an edge
of width w and height h splits into gcd(w, |h|) minimal segments, and the
degree of any factor must be a subset sum of segment widths.  The coarser
whole-edge reading is unsound ((x+2)^2 at p=2 has one slope-1 edge of width
2 yet a degree-1 factor), so it is not offered.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .polynomials import IntegerPolynomial
from .valuation import INFINITY, coefficient_valuations, ordinates_from_polynomial


class PreconditionError(ValueError):
    """An exclusion criterion was invoked outside its hypotheses."""


class Edge(namedtuple("Edge", "x0 y0 x1 y1")):
    """One maximal straight stretch of the lower hull, (x0, y0)-(x1, y1)."""

    __slots__ = ()

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def slope(self) -> Fraction:
        return Fraction(self.height, self.width)

    @property
    def lattice_length(self) -> int:
        """Number of minimal integer-lattice segments on the edge."""
        return math.gcd(self.width, abs(self.height))

    @property
    def segment_width(self) -> int:
        return self.width // self.lattice_length


class NewtonPolygon(namedtuple("NewtonPolygon",
                               "prime degree ordinates vertices edges")):
    """The polygon at prime of a degree-degree polynomial.  ordinates entry
    x is the valuation of the coefficient of x^(degree-x), or INFINITY;
    vertices are the (x, y) lower-hull corners, x strictly increasing;
    edges holds the Edge between consecutive vertices."""

    __slots__ = ()

    @property
    def min_slope(self) -> Fraction:
        return self.edges[0].slope

    @property
    def max_slope(self) -> Fraction:
        return self.edges[-1].slope

    def vertex_xs(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.vertices)


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain lower hull with exact integer cross products."""
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            cross = (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _build(p: int, ordinates: tuple, step: int) -> NewtonPolygon:
    """The polygon of these ordinates, all of whose finite entries sit at
    multiples of step, so the hull is taken over those points alone."""
    degree = len(ordinates) - 1
    if degree < 1:
        raise PreconditionError("polygon needs degree at least 1")
    if ordinates[0] == INFINITY or ordinates[-1] == INFINITY:
        raise PreconditionError(
            "leading and constant coefficients must be nonzero")
    points = zip(range(0, degree + 1, step), ordinates[::step])
    hull = _lower_hull([pt for pt in points if pt[1] < INFINITY])
    if len(hull) < 2:
        raise PreconditionError("polygon degenerated to a single point")
    return NewtonPolygon(p, degree, ordinates, tuple(hull), tuple(
        Edge(x0, y0, x1, y1) for (x0, y0), (x1, y1) in zip(hull, hull[1:])))


def polygon_from_ordinates(p: int, ordinates) -> NewtonPolygon:
    """Build the polygon from precomputed ordinates (leading side at index 0)."""
    return _build(p, tuple(ordinates), 1)


def build_polygon(poly: IntegerPolynomial, p: int) -> NewtonPolygon:
    """Polygon of an explicit polynomial; requires a nonzero constant term."""
    if poly.constant == 0:
        raise PreconditionError("constant term must be nonzero")
    return polygon_from_ordinates(p, ordinates_from_polynomial(p, poly))


def polygon_from_params(p: int, params, seed) -> NewtonPolygon:
    """Polygon of the seeded, power-substituted polynomial from the factored
    coefficients, its hull over the n+1 ordinates at multiples of delta."""
    return _build(p, tuple(coefficient_valuations(p, params, seed)),
                  params.delta)


def newton_function(polygon: NewtonPolygon, x) -> Fraction:
    """Exact piecewise-linear height of the polygon at abscissa x."""
    x = Fraction(x)
    if not 0 <= x <= polygon.degree:
        raise ValueError(f"x={x} outside [0, {polygon.degree}]")
    for e in polygon.edges:
        if x <= e.x1:
            return e.y0 + e.slope * (x - e.x0)
    raise AssertionError("unreachable: x within range but no edge found")


def subset_sums(parts) -> int:
    """Sums of the sub-multisets of the sizes given as (size, count) pairs
    as a bitmask: bit K is set when K is one.  It holds 0 and the full sum
    and is closed under k -> full sum - k.  The copies of a size go in as
    chunks of 1, 2, 4, ... and a remainder: O(log count) shifts."""
    bits = 1
    for size, count in parts:
        chunk = 1
        while count > 0:
            bits |= bits << (size * min(chunk, count))
            count -= chunk
            chunk *= 2
    return bits


def degrees_of(mask: int) -> tuple[int, ...]:
    """The degrees of a bitmask (bit K set when degree K is in it),
    ascending, read one run of set bits at a time off its bit string."""
    bits = bin(mask)[:1:-1] + "0"  # low bit first; bin() writes "0b" first
    out: list[int] = []
    lo = bits.find("1")
    while lo >= 0:
        hi = bits.find("0", lo)
        out += range(lo, hi)
        lo = bits.find("1", hi)
    return tuple(out)


def admissible_degrees(polygon: NewtonPolygon) -> int:
    """Degrees a hypothetical factor could have, as a bitmask, by the
    lattice-segment rule: subset sums of minimal lattice-segment widths."""
    return subset_sums((e.segment_width, e.lattice_length)
                       for e in polygon.edges)


def viable_margin(polygon: NewtonPolygon, k: int):
    """Smallest integer r with g(k) > r and g(m) - g(m-k) < r + 1, where g
    is the polygon's Newton function, or None.  r must satisfy
    g(m) - g(m-k) - 1 < r < g(k); the least integer above the left bound is
    floor(left) + 1."""
    m = polygon.degree
    if m < 2 * k:
        return None
    gk = newton_function(polygon, k)
    rise = newton_function(polygon, m) - newton_function(polygon, m - k)
    r = math.floor(rise - 1) + 1
    return r if gk > r else None


def window_holds(polygon: NewtonPolygon, l: int, k: int) -> bool:
    """True iff p divides every coefficient except the leading block down to
    index m-l, and the rightmost edge is flatter than 1/k."""
    ordinates = polygon.ordinates
    return (ordinates[0] == 0 and all(y >= 1 for y in ordinates[l + 1:])
            and polygon.max_slope < Fraction(1, k))


def widest_window(polygon: NewtonPolygon, l: int):
    """Largest k with window_holds(polygon, l, k), or None."""
    s = polygon.max_slope
    k_cap = polygon.degree // 2
    if s > 0:
        k_cap = min(k_cap, math.ceil(Fraction(1, s)) - 1)
    if k_cap <= l:
        return None
    return k_cap if window_holds(polygon, l, k_cap) else None


def polygon_tsv(polygon: NewtonPolygon) -> str:
    """Dump rows `x<TAB>y<TAB>is_vertex`; infinite ordinates print as 'inf'."""
    vertex_xs = set(polygon.vertex_xs())
    lines = ["x\ty\tis_vertex"]
    for x, y in enumerate(polygon.ordinates):
        lines.append(f"{x}\t{y}\t{int(x in vertex_xs)}")
    return "\n".join(lines) + "\n"


def polygon_svg(polygon: NewtonPolygon, width: int = 640, height: int = 480) -> str:
    """Simple standalone SVG: finite points, hull path, slope labels."""
    finite = [(x, y) for x, y in enumerate(polygon.ordinates)
              if y < INFINITY]
    max_x = polygon.degree
    max_y = max(y for _, y in finite) or 1
    pad = 40

    def sx(x):
        return pad + x * (width - 2 * pad) / max_x

    def sy(y):
        return height - pad - y * (height - 2 * pad) / max_y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    path = " ".join(
        f"{'M' if i == 0 else 'L'}{sx(x):.2f},{sy(y):.2f}"
        for i, (x, y) in enumerate(polygon.vertices))
    parts.append(
        f'<path d="{path}" fill="none" stroke="black" stroke-width="1.5"/>')
    for x, y in finite:
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
    for x, y in polygon.vertices:
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="crimson"/>')
    for e in polygon.edges:
        mx = sx((e.x0 + e.x1) / 2)
        my = sy((e.y0 + e.y1) / 2) - 6
        parts.append(
            f'<text x="{mx:.2f}" y="{my:.2f}" font-size="11" '
            f'text-anchor="middle">{e.slope}</text>')
    parts.append(
        f'<text x="{pad}" y="{height - 10}" font-size="12">'
        f'p={polygon.prime}, degree={polygon.degree}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
