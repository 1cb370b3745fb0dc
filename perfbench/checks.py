"""Correctness checks on the outputs of geoq, computed apart from geoq.

Each check takes plain numpy arrays and returns a list of problems; an empty
list means the output has the property. None of them compares against a
stored copy of an earlier output: each states a property the method must
have. The functions import nothing from geoq, so a fault in geoq cannot hide
in the check.
"""
from __future__ import annotations

import numpy as np

RESIDUAL_TOL = 1e-7        # stationarity residual of the reloaded embedding
SYMMETRY_TOL = 1e-6        # boundary |z|, mirror symmetry, area centroid
UNIT_TOL = 1e-12           # |p| - 1 of every position
MEAN_ANGLE_TOL = 0.10      # mean relative angle distortion
TEXT_RTOL = 5e-12          # the embedding text format keeps 12 significant digits
LOAD_TOL = 1e-6            # loads are sums of weights like 4, 10, 4/16
CIRCLE_MARGIN = 0.02       # radians kept between a circle pair and its tangency
ROBUST_BAR = 0.99          # criterion 3's share of placements


def _tri_det(positions, triangles):
    p = positions
    t = triangles
    return np.einsum("ij,ij->i", p[t[:, 0]], np.cross(p[t[:, 1]], p[t[:, 2]]))


def flipped_count(positions, triangles) -> int:
    """Triangles whose orientation disagrees with the majority, or is zero."""
    det = _tri_det(positions, triangles)
    pos, neg = int((det > 0).sum()), int((det < 0).sum())
    return len(det) - max(pos, neg)


def area_centroid(positions, triangles) -> np.ndarray:
    """Centroid of the vertices weighted by a third of their flat triangle areas."""
    p = positions
    t = triangles
    area = 0.5 * np.linalg.norm(np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]]),
                                axis=1)
    mass = np.bincount(t.ravel(), weights=np.repeat(area / 3.0, 3), minlength=len(p))
    return (mass[:, None] * p).sum(axis=0) / mass.sum()


def mean_angle_error(planar, positions, triangles) -> float:
    """Mean over triangles of the mean relative error of their three angles."""
    def angles(p, spherical):
        out = []
        for i in range(3):
            a, b, c = (p[triangles[:, (i + k) % 3]] for k in range(3))
            u, v = b - a, c - a
            if spherical:  # tangent directions at a
                u = u - (u * a).sum(axis=1, keepdims=True) * a
                v = v - (v * a).sum(axis=1, keepdims=True) * a
            cos = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
            out.append(np.arccos(np.clip(cos, -1.0, 1.0)))
        return np.stack(out, axis=1)

    flat = angles(np.asarray(planar, float), False)
    sph = angles(np.asarray(positions, float), True)
    return float((np.abs(sph - flat) / flat).mean(axis=1).mean())


def check_embedding(solved, loaded, triangles, boundary, copy_map, n_original,
                    planar, loaded_residual, reported_angle_error) -> list[str]:
    """Properties of a `geoq map` result: the solved positions, the positions
    reloaded from the text file, and the report computed on the reload."""
    problems = []
    solved = np.asarray(solved, float)
    loaded = np.asarray(loaded, float)
    if not loaded_residual < RESIDUAL_TOL:
        problems.append(f"reloaded residual {loaded_residual:.3e} >= {RESIDUAL_TOL:g}")
    norm = float(np.abs(np.linalg.norm(solved, axis=1) - 1.0).max())
    if not norm < UNIT_TOL:
        problems.append(f"positions off the unit sphere by {norm:.3e}")
    z = float(np.abs(solved[boundary, 2]).max())
    if not z < SYMMETRY_TOL:
        problems.append(f"boundary |z| {z:.3e} >= {SYMMETRY_TOL:g}")
    mirrors = np.arange(n_original, len(solved))
    mirror_err = float(np.abs(solved[mirrors] - solved[copy_map[mirrors]] * [1.0, 1.0, -1.0]).max())
    if not mirror_err < SYMMETRY_TOL:
        problems.append(f"mirror symmetry error {mirror_err:.3e} >= {SYMMETRY_TOL:g}")
    flips = flipped_count(solved, triangles)
    if flips:
        problems.append(f"{flips} flipped triangles")
    centroid = float(np.linalg.norm(area_centroid(solved, triangles)))
    if not centroid < SYMMETRY_TOL:
        problems.append(f"area centroid {centroid:.3e} >= {SYMMETRY_TOL:g}")
    angle = mean_angle_error(planar, loaded, triangles)
    if not angle < MEAN_ANGLE_TOL:
        problems.append(f"mean angle distortion {angle:.4f} >= {MEAN_ANGLE_TOL:g}")
    if not abs(angle - reported_angle_error) <= 1e-9:
        problems.append(f"distortion report says {reported_angle_error:.12g}, "
                        f"recomputed {angle:.12g}")
    off = np.abs(loaded - solved) > TEXT_RTOL * np.abs(solved)
    if loaded.shape != solved.shape or off.any():
        problems.append(f"{int(off.sum())} reloaded coordinates differ from the solved "
                        f"ones beyond 12 significant digits")
    return problems


def check_loads(load4, load10, metrics4, metrics10, contributors, queriers,
                mix_samples: int, reads_through_reader: bool) -> list[str]:
    """Loads of two runs with the same seeds at write rates 4 and 10.

    The load is affine in the write rate, so w = (L10 - L4) / 6 counts the
    writes charged at each node and L4 - 4 w the reads. `metrics4/10` are
    (system_load, total_load) pairs as the program returned them.
    """
    problems = []
    load4 = np.asarray(load4, float)
    load10 = np.asarray(load10, float)
    writes = (load10 - load4) / 6.0
    reads = load4 - 4.0 * writes
    for name, counts in (("write", writes), ("read", reads)):
        scaled = counts * mix_samples
        frac = np.abs(scaled - np.round(scaled))
        if frac.max() > LOAD_TOL * mix_samples:
            problems.append(f"{name} counts are not multiples of 1/{mix_samples} "
                            f"(node {int(frac.argmax())}: {counts[frac.argmax()]!r})")
    n_c, n_q = len(contributors), len(queriers)
    if writes.min() < -LOAD_TOL or writes.max() > n_c + LOAD_TOL:
        problems.append(f"write counts outside [0, {n_c}]: {writes.min():g}..{writes.max():g}")
    if reads.min() < -LOAD_TOL or reads.max() > n_q + LOAD_TOL:
        problems.append(f"read counts outside [0, {n_q}]: {reads.min():g}..{reads.max():g}")
    own = writes[list(contributors)]
    if (own < 1.0 - LOAD_TOL).any():
        problems.append(f"{int((own < 1.0 - LOAD_TOL).sum())} contributors miss their own write")
    if reads_through_reader:
        own = reads[list(queriers)]
        if (own < 1.0 - LOAD_TOL).any():
            problems.append(f"{int((own < 1.0 - LOAD_TOL).sum())} queriers miss their own read")
    for r, load, (system, total) in ((4, load4, metrics4), (10, load10, metrics10)):
        if system != load.max() or not np.isclose(total, load.sum(), rtol=1e-12, atol=0):
            problems.append(f"r={r}: system/total load {system!r}/{total!r} against "
                            f"max/sum {load.max()!r}/{load.sum()!r}")
    return problems


def check_first_hit(first, full, n_queriers: int, read_rate: float) -> list[str]:
    """A first-hit run charges a prefix of every read of the full run."""
    problems = []
    short = np.asarray(full, float) - np.asarray(first, float)
    if short.min() < -LOAD_TOL:
        problems.append(f"first-hit load exceeds the full load at node {int(short.argmin())}")
    bound = n_queriers * read_rate
    if short.max() > bound + LOAD_TOL:
        problems.append(f"first-hit load falls {short.max():g} short of the full load, "
                        f"more than queriers x read rate = {bound:g}")
    return problems


def circle_pair_expected(axis1, rho1, axis2, rho2):
    """Crossings of two circles (2 or 0) and the angular distance to tangency."""
    theta = np.arccos(np.clip(np.einsum("ij,ij->i", axis1, axis2), -1.0, 1.0))
    lo, hi = np.abs(rho1 - rho2), rho1 + rho2
    expected = np.where((lo < theta) & (theta < hi), 2, 0)
    return expected, np.minimum(np.abs(theta - lo), np.abs(theta - hi))


def check_circle_pairs(counts, axis1, rho1, axis2, rho2) -> list[str]:
    problems = []
    counts = np.asarray(counts)
    expected, gap = circle_pair_expected(np.asarray(axis1), np.asarray(rho1),
                                         np.asarray(axis2), np.asarray(rho2))
    if (counts > 2).any():
        problems.append(f"{int((counts > 2).sum())} circle pairs cross more than twice")
    wrong = (gap > CIRCLE_MARGIN) & (counts != expected)
    if wrong.any():
        i = int(np.argmax(wrong))
        problems.append(f"{int(wrong.sum())} circle pairs off the closed form "
                        f"(first: counted {counts[i]}, expected {expected[i]})")
    return problems


def check_circle_spiral(counts, targets, clear) -> list[str]:
    """Criterion 3's conditions, pooled over the placements of a run.

    `targets` is 2 floor(rho / (a pi)) per placement and `clear` whether the
    circle clears both spiral poles.
    """
    problems = []
    counts = np.asarray(counts)
    targets = np.asarray(targets)
    clear = np.asarray(clear, bool)
    if (counts < 1).any():
        problems.append(f"{int((counts < 1).sum())} circle/spiral placements never cross")
    if clear.any():
        rate = float((counts[clear] >= targets[clear]).mean())
        if rate < ROBUST_BAR:
            problems.append(f"{rate:.1%} of pole-clear placements reach their target")
    if (~clear).any():
        rate = float((counts[~clear] % 2 == 1).mean())
        if rate < ROBUST_BAR:
            problems.append(f"{rate:.1%} of pole-enclosing placements cross an odd number of times")
    return problems
