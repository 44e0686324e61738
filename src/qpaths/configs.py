"""Explicit path configurations: enumeration, areas, the reflection onto the
dual sequence, north-step arrays and the closed-form extremal states.

Path i runs from (a_i, 0) to (0, i) with west/north steps on the integer
lattice, and its area is the sum of its north-step abscissas. The reflected
(complementary) model is the same kind of configuration on
dual_sequence(starts); dual_config maps one ensemble onto the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidArgument, SizeLimitExceeded
from .exact import StartSequence, dual_sequence

Vertex = tuple[int, int]

ENUM_MAX_N = 3
ENUM_MAX_TOP = 8


@dataclass(frozen=True)
class PathConfig:
    """A full non-intersecting configuration, one vertex tuple per path."""

    starts: StartSequence
    paths: tuple[tuple[Vertex, ...], ...]

    def __post_init__(self):
        if len(self.paths) != self.starts.n + 1:
            raise InvalidArgument("one path per start is required")
        seen: set[Vertex] = set()
        for i, path in enumerate(self.paths):
            self._check_path(i, path)
            for v in path:
                if v in seen:
                    raise InvalidArgument(f"paths are not vertex-disjoint at {v}")
                seen.add(v)

    def _check_path(self, i: int, path: tuple[Vertex, ...]) -> None:
        start, end = (self.starts[i], 0), (0, i)
        if not path or path[0] != start or path[-1] != end:
            raise InvalidArgument(f"path {i} must run from {start} to {end}")
        for (x0, y0), (x1, y1) in zip(path, path[1:]):
            if (x1 - x0, y1 - y0) not in ((-1, 0), (0, 1)):
                raise InvalidArgument(f"path {i} has an illegal step ({x0},{y0})->({x1},{y1})")

    def north_steps(self) -> Iterator[Vertex]:
        """Yield (x, y) for each north step (x,y)->(x,y+1)."""
        for path in self.paths:
            for (x0, y0), (x1, y1) in zip(path, path[1:]):
                if y1 == y0 + 1:
                    yield (x0, y0)

    def total_area(self) -> int:
        """The weighted area: the sum of the north-step abscissas."""
        return sum(x for x, _ in self.north_steps())


def _monotone_paths(start: Vertex, end: Vertex, blocked: set[Vertex]) -> Iterator[tuple[Vertex, ...]]:
    # All west/north paths start -> end avoiding blocked vertices.
    sx, sy = start
    ex, ey = end
    if sx < ex or sy > ey or start in blocked:
        return
    if start == end:
        yield (start,)
        return
    for step in ((-1, 0), (0, 1)):
        nxt = (sx + step[0], sy + step[1])
        for rest in _monotone_paths(nxt, end, blocked):
            yield (start,) + rest


def enumerate_configs(seq: StartSequence) -> list[PathConfig]:
    """Exhaustively enumerate configurations (guarded brute force).

    Enumeration is limited to n <= 3, a_n <= 8.
    """
    if seq.n > ENUM_MAX_N or seq.top > ENUM_MAX_TOP:
        raise SizeLimitExceeded(
            f"enumeration is limited to n <= {ENUM_MAX_N} and a_n <= {ENUM_MAX_TOP}"
        )
    configs: list[PathConfig] = []

    def recurse(i: int, blocked: set[Vertex], chosen: list[tuple[Vertex, ...]]) -> None:
        if i > seq.n:
            configs.append(PathConfig(seq, tuple(chosen)))
            return
        for path in _monotone_paths((seq[i], 0), (0, i), blocked):
            chosen.append(path)
            recurse(i + 1, blocked | set(path), chosen)
            chosen.pop()

    recurse(0, set(), [])
    return configs


def dual_config(config: PathConfig) -> PathConfig:
    """The reflected configuration on dual_sequence(config.starts).

    Dual path i starts at (a_n - a_{n-i}, 0). At each point (x, y) it steps
    north when (a_n + 1 + y - x, y) is a north step of config, and west
    otherwise, until it reaches (0, i). The map is an involution and a
    bijection onto the dual ensemble, and A(c) + A(dual_config(c)) is the
    exponent e of the duality Z_a(q) = q**e Z_dual(1/q).
    """
    seq = config.starts
    dual = dual_sequence(seq)
    norths = set(config.north_steps())
    paths = []
    for i, x in enumerate(dual.values):
        y = 0
        path = [(x, y)]
        # A west/north path to (0, i) takes x + i steps; PathConfig checks the end.
        for _ in range(x + i):
            if (seq.top + 1 + y - x, y) in norths:
                y += 1
            else:
                x -= 1
            path.append((x, y))
        paths.append(tuple(path))
    return PathConfig(dual, tuple(paths))


def min_area_abscissas(seq: StartSequence) -> list[int]:
    """North-step array of the q -> 0 ground state: b[i][k] = a_{i-k-1} + k + 1.

    Every north step sits one column right of the north step of path i - 1
    one row lower, or of the start a_{i-1} at k = 0: the least value the
    paths allow. Unrolled down the diagonal, that is a_{i-k-1} + k + 1.
    """
    a = seq.values
    return [a[i - k - 1] + k + 1 for i in range(1, seq.n + 1) for k in range(i)]


def max_area_abscissas(seq: StartSequence) -> list[int]:
    """North-step array of the q -> infinity ground state: b[i][k] = a_i."""
    a = seq.values
    return [a[i] for i in range(1, seq.n + 1) for _ in range(i)]

