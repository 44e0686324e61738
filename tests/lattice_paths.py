"""Test helper: the vertex paths of a configuration given by its north-step array."""

from qpaths.configs import Vertex
from qpaths.exact import StartSequence


def paths_from_abscissas(seq: StartSequence, b) -> tuple[tuple[Vertex, ...], ...]:
    """Vertex paths of the configuration with north-step array b, the
    inverse of ``configs.abscissas``.

    b[i][k] is the column of the north step of path i from row k to row
    k + 1, stored flat in that order, as ``abscissas`` returns it.
    """
    steps = iter(b)
    paths = []
    for i, x in enumerate(seq.values):
        verts = [(x, 0)]
        for k in range(i):
            col = next(steps)
            verts += [(c, k) for c in range(x - 1, col - 1, -1)]
            verts.append((col, k + 1))
            x = col
        verts += [(c, i) for c in range(x - 1, -1, -1)]
        paths.append(tuple(verts))
    return tuple(paths)
