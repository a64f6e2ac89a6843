"""Reference implementations that only the tests use.

Each is an independent route to something the package computes, or the
writer of a file the package reads: the closed psi map against the
incidence recursion, a raster count of a plane tower's image against the
Jacobian integral, the example family's boxes against the corpus's family
pieces and the closed-form norms, and the corpus JSON writer against
load_corpus.
"""

import json

import numpy as np

from momentray.corpus import CORPUS_VERSION
from momentray.geometry import PSI, incidence_path, split_params

# ---------------------------------------------------------------------------
# geometry


def _as_point(x):
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("point must be a 1-d sequence with at least 2 coordinates")
    return p


def psi_map_closed(base, params):
    """Non-recursive form of the psi map, used to cross-check the recursion.

    With t1 = x1 and exponent e = coordinate index - 1:

        even d: (t_{k+1}, ..., x_i + sum_j (t_j^e - t_{j+1}^e) s_j, ...)
        odd d:  (s_{k+1}, ..., same sum + s_{k+1} t_{k+1}^e, ...)
    """
    p = _as_point(base)
    params = np.asarray(params, dtype=float)
    d = p.size
    if params.size != d:
        raise ValueError("closed form needs a full parameter vector (length d)")
    k = d // 2
    t, s = split_params(PSI, p[0], params)
    exps = np.arange(1, d)
    tp = t[:, None] ** exps[None, :]
    out = np.empty_like(p)
    # pairs (t_j, t_{j+1}) for j = 1..k multiply s_1..s_k
    acc = p[1:] + ((tp[:k] - tp[1 : k + 1]) * s[:k, None]).sum(axis=0)
    if d % 2 == 0:
        out[0] = t[k]
        out[1:] = acc
    else:
        out[0] = s[k]
        out[1:] = acc + s[k] * tp[k]
    return out


# ---------------------------------------------------------------------------
# refinement towers


def _map_param_grid(tower, offs):
    """Image points of an offs-grid placed inside every top cell."""
    top = tower.top
    axes = top.params[:, :, None] + offs * top.widths[:, :, None]  # (n, 2, m)
    grid = np.stack(np.broadcast_arrays(axes[:, 0, :, None], axes[:, 1, None, :]), axis=-1)
    return incidence_path(tower.base, grid.reshape(-1, 2), tower.start)[-1]


_RASTER_N = 256


def rasterized_image_measure(tower):
    """Direct image-volume estimate for plane towers by rasterization.

    Maps a grid inside every top cell through the incidence map and counts
    hit cells of a 256 x 256 raster over the image bounding box.  The grid
    density is chosen so neighbouring image points land within one raster
    cell of each other (estimated from cell-corner displacements), otherwise
    the count undershoots through coverage gaps.
    """
    if tower.dim != 2:
        raise ValueError("rasterization oracle is for dimension 2 only")
    corners = _map_param_grid(tower, np.array([-0.5, 0.5]))
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    cell = span / _RASTER_N
    quad = corners.reshape(-1, 2, 2, 2)
    step_a = np.abs(quad[:, 1, :, :] - quad[:, 0, :, :]) / cell
    step_b = np.abs(quad[:, :, 1, :] - quad[:, :, 0, :]) / cell
    needed = max(step_a.max(), step_b.max())
    sub = int(np.clip(np.ceil(1.5 * needed), 3, 64))
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    points = _map_param_grid(tower, offs)
    ij = np.clip(((points - lo) / cell).astype(int), 0, _RASTER_N - 1)
    flat = np.unique(ij[:, 0] * _RASTER_N + ij[:, 1])
    return flat.size * float(cell.prod())


# ---------------------------------------------------------------------------
# the example family


def family_bounds(d, n_start, k_max, half_scale):
    """(n, d, 2) bounds of pieces k = n_start..k_max of the example family:
    the box with half-sides half_scale k^-i centered at (0, k^2, ..., k^d).
    half_scale 1 gives the unit-weight family, 0.5 the minorant's pieces,
    whose weights are 1 / k."""
    ks = np.arange(n_start, k_max + 1).astype(float)
    center = np.zeros((ks.size, d))
    center[:, 1:] = ks[:, None] ** np.arange(2, d + 1)
    half = half_scale / ks[:, None] ** np.arange(1, d + 1)
    return np.stack([center - half, center + half], axis=2)


# ---------------------------------------------------------------------------
# the corpus file that load_corpus reads


def union_to_jsonable(region):
    """A BoxUnionSet's (n, d, 2) bounds as nested lists."""
    return region.bounds.tolist()


def entry_to_jsonable(entry):
    return {
        "id": entry.entry_id,
        "dim": entry.dim,
        "E": union_to_jsonable(entry.E),
        "F": union_to_jsonable(entry.F),
        "interval": [entry.interval.lo, entry.interval.hi],
        "window": [entry.window.lo, entry.window.hi],
        "tags": list(entry.tags),
    }


def save_corpus(entries, path):
    payload = {
        "version": CORPUS_VERSION,
        "entries": [entry_to_jsonable(e) for e in entries],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
