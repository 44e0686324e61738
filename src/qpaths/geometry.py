"""Polyline geometry: Hausdorff distance and self-intersection tests."""

from __future__ import annotations

from .errors import InvalidArgument


def _as_parts(obj) -> list[np.ndarray]:
    """Normalize curves/polylines/lists of polylines to (n, 2) arrays.

    Multi-part inputs are kept as separate parts so that no phantom
    segment bridges disjoint pieces.
    """
    import numpy as np
    if hasattr(obj, "txy"):
        return [np.asarray(obj.txy[:, 1:], dtype=float)]
    arr = None
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is not None and arr.ndim == 2 and arr.shape[1] == 2:
        return [arr]
    parts = []
    for piece in obj:
        parts.extend(_as_parts(piece))
    return parts


def _point_segment_dist(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Min distance from each point to the nearest of the given segments."""
    import numpy as np
    d = seg_b - seg_a                                  # (k, 2)
    len2 = np.einsum("ij,ij->i", d, d)                 # (k,)
    rel = points[:, None, :] - seg_a[None, :, :]       # (m, k, 2)
    proj = np.einsum("mkj,kj->mk", rel, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(len2 > 0.0, proj / len2, 0.0)
    s = np.clip(s, 0.0, 1.0)
    nearest = seg_a[None, :, :] + s[:, :, None] * d[None, :, :]
    diff = points[:, None, :] - nearest
    return np.sqrt(np.einsum("mkj,mkj->mk", diff, diff)).min(axis=1)


def _directed(parts_a: list[np.ndarray], parts_b: list[np.ndarray]) -> float:
    import numpy as np
    seg_a = []
    seg_b = []
    for p in parts_b:
        if len(p) == 1:
            seg_a.append(p)
            seg_b.append(p)
        else:
            seg_a.append(p[:-1])
            seg_b.append(p[1:])
    sa = np.concatenate(seg_a)
    sb = np.concatenate(seg_b)
    worst = 0.0
    for pts in parts_a:
        worst = max(worst, float(_point_segment_dist(pts, sa, sb).max()))
    return worst


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between polylines or sets of polylines.

    Vertices of each side are measured against the full segments of the
    other, so a sparse polyline can be compared against a densely sampled
    curve without penalty in either direction.
    """
    import numpy as np
    parts_a = [p for p in _as_parts(a) if len(p)]
    parts_b = [p for p in _as_parts(b) if len(p)]
    if not parts_a or not parts_b:
        raise InvalidArgument("Hausdorff distance needs nonempty inputs")
    # max() would drop a nan distance, and an inf vertex has none.
    if not all(np.isfinite(p).all() for p in parts_a + parts_b):
        raise InvalidArgument("Hausdorff distance needs finite vertices")
    return max(_directed(parts_a, parts_b), _directed(parts_b, parts_a))


def _thin(pts: np.ndarray) -> np.ndarray:
    """Greedy thinning: keep a point once it lies more than 1e-9 of the
    figure diameter (in the max norm) from the last kept point.

    Near-zero segments carry no geometry but poison the crossing
    parameters with rounding noise.
    """
    import numpy as np
    diam = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    tol = 1e-9 * max(diam, 1e-300)
    # A point equal to its predecessor is never kept: it lies as far from
    # the last kept point as its predecessor does.
    pts = pts[np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1)))]
    # Up to the first step within tol, each point lies past tol from its
    # predecessor, the last kept point, so the scan keeps them all.
    short = ~(np.abs(np.diff(pts, axis=0)).max(axis=1) > tol)
    if not short.any():
        return pts
    start = int(short.argmax())
    xy = pts.tolist()
    kept = list(range(start + 1))
    last_x, last_y = xy[start]
    for i in range(start + 1, len(xy)):
        x, y = xy[i]
        if max(abs(x - last_x), abs(y - last_y)) > tol:
            kept.append(i)
            last_x, last_y = x, y
    return pts[kept]


def polyline_self_intersects(points) -> bool:
    """True when any two non-adjacent segments of the polyline cross."""
    import numpy as np
    pts = np.asarray(points, dtype=float)
    if len(pts) > 1:
        pts = _thin(pts)
    n = len(pts) - 1
    if n < 3:
        return False
    a = pts[:-1]
    b = pts[1:]
    d = b - a
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    # Candidates are the pairs whose bounding boxes overlap (the simplest
    # any-crossing form of the Shamos-Hoey sweep). With segments sorted by
    # left x-edge, those overlapping one in x and sorted after it form a
    # run that ends where the left edges pass its right edge.
    order = np.argsort(lo[:, 0], kind="stable")
    counts = np.searchsorted(lo[order, 0], hi[order, 0], side="right") - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), counts)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)
    i_idx = np.minimum(order[first], order[second])
    j_idx = np.maximum(order[first], order[second])
    keep = j_idx - i_idx > 1
    keep &= (lo[i_idx, 1] <= hi[j_idx, 1]) & (lo[j_idx, 1] <= hi[i_idx, 1])
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    if len(i_idx) == 0:
        return False

    def cross(v, w):
        return v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]

    # Proper crossing of each candidate pair (i, j), j > i + 1, via orientation.
    p, r = a[i_idx], d[i_idx]
    q, s = a[j_idx], d[j_idx]
    denom = cross(r, s)
    # Near-parallel pairs are treated as non-crossing: with densely
    # sampled smooth arcs the crossing parameters of almost-collinear
    # segments are pure rounding noise.
    norms = np.sqrt(np.einsum("ij,ij->i", r, r) * np.einsum("ij,ij->i", s, s))
    ok = np.abs(denom) > 1e-9 * norms
    qp = q - p
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(ok, cross(qp, s) / denom, np.nan)
        u = np.where(ok, cross(qp, r) / denom, np.nan)
    eps = 1e-9
    hit = (t > eps) & (t < 1 - eps) & (u > eps) & (u < 1 - eps)
    return bool(np.any(hit))
