"""The dense quadrature rows and the dense pairing table G, n x n at the
nodes: the oracle of the block-by-block table build and of the potentials.

`rows` forms the rows as the table build did before it went block by block:
the weighted kernel samples, one triangle at the nodes mirrored, with the
near panels swapped for their exact contributions (`riesz._near_panels`).
"""

import numpy as np

from choquard_lab import riesz


def rows(grid, alpha, targets):
    """Quadrature rows: rows[k] @ g.values is (I_alpha * g)(targets[k])."""
    t = np.asarray(targets, dtype=float)
    idx, nodes = grid.panels.nodes, np.array_equal(t, grid.r)
    k, p, cor = riesz._near_panels(grid, alpha, t)
    out, work = np.empty((t.size, grid.n)), riesz._workspace(grid.n)
    for s in range(0, t.size, riesz._BLOCK):
        e, c = s + riesz._BLOCK, s if nodes else 0
        blk = out[s:e]
        blk[:, c:] = riesz._block_samples(grid, alpha, t[s:e], slice(c, None), work)
        if nodes:
            out[e:, s:e] = blk[:, e:].T
        a, b = np.searchsorted(k, (s, e))
        kb, cols = k[a:b, None], idx[p[a:b]]
        sampled = blk[kb - s, cols] * grid.panel_weights[p[a:b]]
        blk *= grid.w
        np.add.at(out, (kb, cols), cor[a:b] - sampled)
    return out


def dense_table(grid, alpha):
    """G: the rows at the nodes weighted by the node weights and symmetrized,
    G = (W M + (W M)^T) / 2."""
    WM = grid.weights_full[:, None] * rows(grid, alpha, grid.r)
    return 0.5 * (WM + WM.T)


def compress(G):
    """`riesz._compress` of a dense G, each block a view of it."""
    return riesz._compress(len(G), lambda r, c: G[r, c])
