"""SVG rendering of dancing pairs in an affine chart of the projective plane.

The chart is central projection onto one of the coordinate planes (z = 1 by
default): a homogeneous point [X, Y, Z] is drawn at the remaining two
coordinates divided by the chart coordinate.  Outer-polygon vertices are
drawn as dots with their chords, inner-polygon edges as clipped straight
lines, and the edge intersections as smaller marks.
"""

import numpy as np

from .geom import covec_cross

CHART_AXES = {"x": (0, 1, 2), "y": (1, 2, 0), "z": (2, 0, 1)}


def chart_point(p, chart="z", tol=1e-12):
    """Affine coordinates of a homogeneous point in the chosen chart, or
    None when the point is at infinity for that chart."""
    k, i, j = CHART_AXES[chart]
    p = np.asarray(p, dtype=float)
    if abs(p[k]) <= tol * np.linalg.norm(p):
        return None
    return (p[i] / p[k], p[j] / p[k])


def line_chart_coeffs(b, chart="z"):
    """(u, v, w) with the line b drawn as u*X + v*Y + w = 0 in the chart."""
    k, i, j = CHART_AXES[chart]
    b = np.asarray(b, dtype=float)
    return (b[i], b[j], b[k])


def clip_line_to_box(u, v, w, box):
    """Intersection segment of u x + v y + w = 0 with a rectangle, or None."""
    x0, y0, x1, y1 = box
    pts = []
    if abs(v) > 1e-15:
        for x in (x0, x1):
            y = -(u * x + w) / v
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                pts.append((x, y))
    if abs(u) > 1e-15:
        for y in (y0, y1):
            x = -(v * y + w) / u
            if x0 - 1e-9 <= x <= x1 + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    return uniq[0], uniq[1]


def render_pair_svg(pair, chart="z", size=480, pad=0.25):
    """SVG text for a dancing pair in the chosen affine chart."""
    if chart not in CHART_AXES:
        raise ValueError("chart must be one of %s" % sorted(CHART_AXES))
    n = len(pair)
    apts = [chart_point(a, chart) for a in pair.A]
    bpts = [chart_point(covec_cross(pair.b[i], pair.b[(i + 1) % n]), chart)
            for i in pair.edge_indices()]
    finite = [p for p in apts + bpts if p is not None]
    if not finite:
        raise ValueError("nothing visible in this chart")
    xs = [p[0] for p in finite]
    ys = [p[1] for p in finite]
    spanx = max(xs) - min(xs) or 1.0
    spany = max(ys) - min(ys) or 1.0
    box = (min(xs) - pad * spanx, min(ys) - pad * spany,
           max(xs) + pad * spanx, max(ys) + pad * spany)
    sx = size / (box[2] - box[0])
    sy = size / (box[3] - box[1])

    def to_px(p):
        return ((p[0] - box[0]) * sx, size - (p[1] - box[1]) * sy)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d">' % (size, size, size, size),
             '<rect width="100%" height="100%" fill="white"/>']
    # inner-polygon edge lines, clipped to the frame
    for i in pair.edge_indices():
        seg = clip_line_to_box(*line_chart_coeffs(pair.b[i], chart), box=box)
        if seg is None:
            continue
        (xa, ya), (xb, yb) = to_px(seg[0]), to_px(seg[1])
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="#c33" stroke-width="1"/>' % (xa, ya, xb, yb))
    # outer-polygon chords
    for i in pair.edge_indices():
        p, q = apts[i], apts[(i + 1) % n]
        if p is None or q is None:
            continue
        (xa, ya), (xb, yb) = to_px(p), to_px(q)
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="#36c" stroke-width="1.5"/>' % (xa, ya, xb, yb))
    # vertices and edge intersections
    for i, p in enumerate(apts):
        if p is None:
            continue
        x, y = to_px(p)
        parts.append('<circle cx="%.2f" cy="%.2f" r="4" fill="#36c"/>' % (x, y))
        parts.append('<text x="%.2f" y="%.2f" font-size="12">A%d</text>'
                     % (x + 6, y - 6, i))
    for i, p in enumerate(bpts):
        if p is None:
            continue
        x, y = to_px(p)
        parts.append('<circle cx="%.2f" cy="%.2f" r="2.5" fill="#c33"/>' % (x, y))
        parts.append('<text x="%.2f" y="%.2f" font-size="10" fill="#c33">B%d</text>'
                     % (x + 5, y + 4, i))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
