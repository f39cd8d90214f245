"""Independent reference implementations used only by tests.

Every function here deliberately takes a different computational route from
the production code (pure-Python scalar loops, homogeneous-matrix kinematics,
geometric hex adjacency) so agreement is evidence, not tautology. The
exceptions are the references that pin a rewrite bit for bit: the training
reference keeps the per-sample loop the trainer had before its group-blocked
layout, and the sampler reference at the end keeps the batch layout the
sampler had before its per-coordinate rewrite, each with the same
per-element operations. Do not import production helpers beyond plain data
containers.
"""

from __future__ import annotations

import math
from collections import deque
from functools import reduce

import numpy as np


# ---------------------------------------------------------------- lattice

def manhattan_distance(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def hex_bfs_distances(rows: int, cols: int) -> dict:
    """All-pairs hex grid distances from plane geometry.

    Hex centers: odd rows shift half a cell to the left, row pitch sqrt(3)/2.
    Two cells are adjacent iff their centers are one unit apart; distances
    come from breadth-first search over that adjacency graph.
    """
    centers = {
        (r, c): (c - 0.5 * (r % 2), r * math.sqrt(3.0) / 2.0)
        for r in range(rows)
        for c in range(cols)
    }
    coords = list(centers)
    adj = {coord: [] for coord in coords}
    for i, a in enumerate(coords):
        for b in coords[i + 1 :]:
            dx = centers[a][0] - centers[b][0]
            dy = centers[a][1] - centers[b][1]
            if abs(math.hypot(dx, dy) - 1.0) < 1e-9:
                adj[a].append(b)
                adj[b].append(a)
    dist = {}
    for start in coords:
        seen = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen[nxt] = seen[cur] + 1
                    queue.append(nxt)
        for end, d in seen.items():
            dist[(start, end)] = d
    return dist


def gaussian_weight(d: float, sigma: float) -> float:
    return math.exp(-(d * d) / (2.0 * sigma * sigma))


# ---------------------------------------------------------------- winners

def bmu_scan(weights, x) -> int:
    """Exhaustive scan, scalar arithmetic, strict-< tie-break."""
    best = 0
    best_d = None
    for i, row in enumerate(weights):
        s = 0.0
        for w, xi in zip(row, x):
            diff = float(w) - float(xi)
            s += diff * diff
        d = math.sqrt(s)
        if best_d is None or d < best_d:
            best = i
            best_d = d
    return best


def masked_distance_scan(weights, x, mask, i: int, rms: bool) -> float:
    s = 0.0
    active = 0
    for j in range(len(x)):
        if mask[i][j]:
            diff = float(weights[i][j]) - float(x[j])
            s += diff * diff
            active += 1
    d = math.sqrt(s)
    if rms:
        d = d / math.sqrt(active)
    return d


def masked_bmu_scan(weights, x, mask, rms: bool, indices=None) -> int:
    """Masked exhaustive scan over ``indices`` (default: all neurons)."""
    if indices is None:
        indices = range(len(weights))
    best = None
    best_d = None
    for i in indices:
        d = masked_distance_scan(weights, x, mask, i, rms)
        if best_d is None or d < best_d:
            best = int(i)
            best_d = d
    return best


# ---------------------------------------------------------------- updates

def update_scan(weights, coords, x, bmu: int, alpha: float, sigma: float):
    """Per-element Kohonen update with scalar lattice math (manhattan)."""
    out = [list(map(float, row)) for row in weights]
    br, bc = coords[bmu]
    for i, (r, c) in enumerate(coords):
        d = abs(r - br) + abs(c - bc)
        h = gaussian_weight(d, sigma)
        for j in range(len(x)):
            out[i][j] = out[i][j] + alpha * h * (float(x[j]) - out[i][j])
    return out


# ---------------------------------------------------------------- metrics

def qe_scan(weights, X) -> float:
    total = 0.0
    for x in X:
        best = None
        for row in weights:
            s = 0.0
            for w, xi in zip(row, x):
                diff = float(w) - float(xi)
                s += diff * diff
            d = math.sqrt(s)
            if best is None or d < best:
                best = d
        total += best
    return total / len(X)


def te_scan(weights, X, lattice_dist) -> float:
    """Topographic error with explicit first/second winner scans.

    ``lattice_dist(i, j)`` -> lattice distance between neuron indices.
    """
    errors = 0
    for x in X:
        dists = []
        for row in weights:
            s = 0.0
            for w, xi in zip(row, x):
                diff = float(w) - float(xi)
                s += diff * diff
            dists.append(math.sqrt(s))
        first = 0
        for i in range(1, len(dists)):
            if dists[i] < dists[first]:
                first = i
        second = None
        for i in range(len(dists)):
            if i == first:
                continue
            if second is None or dists[i] < dists[second]:
                second = i
        if lattice_dist(first, second) != 1:
            errors += 1
    return errors / len(X)


def union_rms_distance_scan(weights, mask, i: int, j: int) -> float:
    s = 0.0
    count = 0
    for d in range(len(weights[i])):
        if mask[i][d] or mask[j][d]:
            diff = float(weights[i][d]) - float(weights[j][d])
            s += diff * diff
            count += 1
    return math.sqrt(s) / math.sqrt(count)


def distance_map_scan(weights, mask, coords, lattice_dist):
    """Per-neuron mean union-RMS distance over lattice neighbors."""
    out = {}
    n = len(weights)
    for i in range(n):
        vals = [
            union_rms_distance_scan(weights, mask, i, j)
            for j in range(n)
            if lattice_dist(i, j) == 1
        ]
        out[coords[i]] = sum(vals) / len(vals) if vals else 0.0
    return out


def group_distance_scan(weights, mask, groups_a, groups_b) -> float:
    vals = [
        union_rms_distance_scan(weights, mask, i, j)
        for i in groups_a
        for j in groups_b
    ]
    return sum(vals) / len(vals)


# ---------------------------------------------------------------- training

def mrf_train_reference(weights, X, mask, lattice_dist, alphas, sigmas, seed, epochs,
                        rms: bool, groups=None):
    """The masked map's former per-sample training loop, operation for
    operation: neurons in row-major order, a per-group branch with fancy
    indexing (``groups`` is a list of ascending index arrays, or None for
    global scope) and a masked add that never writes an inactive weight.
    Returns the weights and the per-epoch (QE, TE) lists; the trainer must
    reproduce all three bit for bit."""

    def distances(diff, M, norms, out=None):
        sq = np.square(diff, out=out)
        sq *= M
        d = np.sqrt(np.add.reduce(sq, axis=-1))
        if norms is not None:
            d /= norms
        return d

    def kernel(d, sigma):
        d = np.asarray(d)
        return np.exp(-(d * d) / (2.0 * sigma * sigma))

    def epoch_metrics(d, D):
        qe = float(d.min(axis=1).mean())
        if d.shape[1] < 2:
            return qe, 0.0
        order = np.argsort(d, axis=1, kind="stable")
        return qe, float((D[order[:, 0], order[:, 1]] != 1).mean())

    W = np.array(weights, dtype=np.float64)
    D = lattice_dist
    Mb = mask
    Mf = Mb.astype(np.float64)
    norms = np.sqrt(Mb.sum(axis=1).astype(np.float64)) if rms else None
    per_group = groups is not None
    if per_group:
        h = np.empty(W.shape[0], dtype=np.float64)
    step = np.empty_like(W)
    sq = np.empty_like(W)
    n = X.shape[0]
    qes, tes = [], []
    t = 0
    for epoch in range(epochs):
        for i in np.random.default_rng([seed, epoch]).permutation(n):
            np.subtract(X[i], W, out=step)
            d = distances(step, Mf, norms, out=sq)
            if per_group:
                for idx in groups:
                    b = idx[d[idx].argmin()]
                    h[idx] = kernel(D[b][idx], sigmas[t])
            else:
                h = kernel(D[d.argmin()], sigmas[t])
            step *= (alphas[t] * h)[:, None]
            np.add(W, step, out=W, where=Mb)
            t += 1
        qe, te = epoch_metrics(distances(X[..., None, :] - W, Mf, norms), D)
        qes.append(qe)
        tes.append(te)
    return W, qes, tes


# ---------------------------------------------------------------- kinematics

def _rot4(axis: str, t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    T = np.eye(4)
    if axis == "x":
        T[:3, :3] = [[1, 0, 0], [0, c, -s], [0, s, c]]
    elif axis == "y":
        T[:3, :3] = [[c, 0, s], [0, 1, 0], [-s, 0, c]]
    else:
        T[:3, :3] = [[c, -s, 0], [s, c, 0], [0, 0, 1]]
    return T


def _trans4(v) -> np.ndarray:
    T = np.eye(4)
    T[:3, 3] = v
    return T


def fk_matrix_oracle(angles, chain):
    """Hand and face-target positions via composed homogeneous transforms.

    Chain (torso out): shoulder offset, shoulder roll, shoulder pitch, upper
    arm, elbow yaw, elbow roll, wrist, forearm+hand. Head: yaw, pitch, face
    target. Operation order differs from the production vector path.
    """
    ax = chain.joint_axes
    arm = reduce(
        np.matmul,
        [
            _trans4(chain.shoulder_offset),
            _rot4(ax[2], angles[2]),
            _rot4(ax[3], angles[3]),
            _trans4([chain.upper_arm, 0.0, 0.0]),
            _rot4(ax[5], angles[5]),
            _rot4(ax[4], angles[4]),
            _rot4(ax[6], angles[6]),
            _trans4([chain.forearm_hand, 0.0, 0.0]),
        ],
    )
    head = reduce(
        np.matmul,
        [
            _rot4(ax[0], angles[0]),
            _rot4(ax[1], angles[1]),
            _trans4(chain.face_target),
        ],
    )
    return arm[:3, 3].copy(), head[:3, 3].copy()


def _rotate_rows(axis: str, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    c = np.cos(theta)
    s = np.sin(theta)
    out = np.empty_like(v)
    if axis == "x":
        out[:, 0] = v[:, 0]
        out[:, 1] = c * v[:, 1] - s * v[:, 2]
        out[:, 2] = s * v[:, 1] + c * v[:, 2]
    elif axis == "y":
        out[:, 0] = c * v[:, 0] + s * v[:, 2]
        out[:, 1] = v[:, 1]
        out[:, 2] = -s * v[:, 0] + c * v[:, 2]
    else:
        out[:, 0] = c * v[:, 0] - s * v[:, 1]
        out[:, 1] = s * v[:, 0] + c * v[:, 1]
        out[:, 2] = v[:, 2]
    return out


def touch_gaps_rows(angles: np.ndarray, chain) -> np.ndarray:
    """Hand-to-face-target distance for every row of a (B, 7) batch, with
    hand and target as (B, 3) arrays and every head rotated: the sampler's
    former batch path, whose gaps the sampler must reproduce bit for bit."""
    ax = chain.joint_axes
    b = angles.shape[0]
    v = np.zeros((b, 3), dtype=np.float64)
    v[:, 0] = chain.forearm_hand
    v = _rotate_rows(ax[6], angles[:, 6], v)
    v = _rotate_rows(ax[4], angles[:, 4], v)
    v = _rotate_rows(ax[5], angles[:, 5], v)
    v[:, 0] += chain.upper_arm
    v = _rotate_rows(ax[3], angles[:, 3], v)
    v = _rotate_rows(ax[2], angles[:, 2], v)
    hand = np.asarray(chain.shoulder_offset, dtype=np.float64) + v
    t = np.tile(np.asarray(chain.face_target, dtype=np.float64), (b, 1))
    t = _rotate_rows(ax[1], angles[:, 1], t)
    t = _rotate_rows(ax[0], angles[:, 0], t)
    return np.sqrt(((hand - t) ** 2).sum(axis=1))


def pearson_scan(a, b) -> float:
    """Plain-formula Pearson correlation of two sequences."""
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(va * vb)
