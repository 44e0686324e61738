"""Explicit path configurations: enumeration, areas, the family bijection,
north-step arrays and the closed-form extremal states.

First-family paths run from (a_i, 0) to (0, i) with west/north steps on the
integer lattice. Second-family paths live on the half-integer columns: path i
runs from (a_{n-i} + 1/2, 0) to (a_n + 1/2 + i, i) with east/northeast steps,
northeast steps crossing the north steps of a first-family configuration.
Second-family x coordinates are stored doubled (always odd integers) so the
lattice stays integral.
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
    family: str = "first"

    def __post_init__(self):
        if self.family not in ("first", "second"):
            raise InvalidArgument(f"family must be 'first' or 'second', got {self.family!r}")
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
        n = self.starts.n
        if self.family == "first":
            start = (self.starts[i], 0)
            end = (0, i)
            steps = {(-1, 0), (0, 1)}
        else:
            start = (2 * self.starts[n - i] + 1, 0)
            end = (2 * self.starts[n] + 1 + 2 * i, i)
            steps = {(2, 0), (2, 1)}
        if not path or path[0] != start or path[-1] != end:
            raise InvalidArgument(f"path {i} must run from {start} to {end}")
        for (x0, y0), (x1, y1) in zip(path, path[1:]):
            if (x1 - x0, y1 - y0) not in steps:
                raise InvalidArgument(f"path {i} has an illegal step ({x0},{y0})->({x1},{y1})")

    def north_steps(self) -> Iterator[Vertex]:
        """Yield (x, y) for each north step (x,y)->(x,y+1), first family only."""
        if self.family != "first":
            raise InvalidArgument("north_steps applies to first-family configurations")
        for path in self.paths:
            for (x0, y0), (x1, y1) in zip(path, path[1:]):
                if y1 == y0 + 1:
                    yield (x0, y0)

    def crossings(self) -> Iterator[Vertex]:
        """Yield (column, y) for each northeast crossing, second family only."""
        if self.family != "second":
            raise InvalidArgument("crossings applies to second-family configurations")
        for path in self.paths:
            for (x0, y0), (x1, y1) in zip(path, path[1:]):
                if y1 == y0 + 1:
                    yield ((x0 + 1) // 2, y0)

    def areas(self) -> tuple[int, ...]:
        """Per-path weighted area: sum of north-step abscissas (or crossing columns)."""
        out = []
        for path in self.paths:
            total = 0
            for (x0, y0), (x1, y1) in zip(path, path[1:]):
                if y1 == y0 + 1:
                    total += x0 if self.family == "first" else (x0 + 1) // 2
            out.append(total)
        return tuple(out)

    def total_area(self) -> int:
        return sum(self.areas())


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
            configs.append(PathConfig(seq, tuple(chosen), "first"))
            return
        for path in _monotone_paths((seq[i], 0), (0, i), blocked):
            chosen.append(path)
            recurse(i + 1, blocked | set(path), chosen)
            chosen.pop()

    recurse(0, set(), [])
    return configs


def to_second_family(config: PathConfig) -> PathConfig:
    """Map a first-family configuration to its overpassing second-family image.

    Each second path performs east steps on the half-integer columns and
    overpasses every encountered north step with a northeast step; the total
    weighted area is preserved.
    """
    if config.family != "first":
        raise InvalidArgument("to_second_family requires a first-family configuration")
    seq = config.starts
    n = seq.n
    norths = set(config.north_steps())
    paths = []
    for i in range(n + 1):
        xd = 2 * seq[n - i] + 1
        y = 0
        xd_end = 2 * seq.top + 1 + 2 * i
        path = [(xd, y)]
        while (xd, y) != (xd_end, i):
            column = (xd + 1) // 2
            if (column, y) in norths:
                xd, y = xd + 2, y + 1
            else:
                xd += 2
            path.append((xd, y))
        paths.append(tuple(path))
    return PathConfig(seq, tuple(paths), "second")


def from_second_family(config: PathConfig) -> PathConfig:
    """Invert to_second_family: rebuild the unique first-family pre-image."""
    if config.family != "second":
        raise InvalidArgument("from_second_family requires a second-family configuration")
    seq = config.starts
    n = seq.n
    cross = set(config.crossings())
    paths = []
    for i in range(n + 1):
        x, y = seq[i], 0
        path = [(x, y)]
        while (x, y) != (0, i):
            if (x, y) in cross:
                y += 1
            else:
                x -= 1
            if x < 0 or y > i:
                raise InvalidArgument("crossing pattern does not reassemble into paths")
            path.append((x, y))
        paths.append(tuple(path))
    return PathConfig(seq, tuple(paths), "first")


def reflect_second_family(config: PathConfig) -> PathConfig:
    """Reflect a second-family configuration onto the dual start sequence.

    The reflection x -> a_n + 1/2 + y - x sends northeast steps to north
    steps and east steps to west steps, producing a first-family
    configuration over the dual sequence. Applying the coordinate map twice
    is the identity.
    """
    if config.family != "second":
        raise InvalidArgument("reflect_second_family requires a second-family configuration")
    seq = config.starts
    dual = dual_sequence(seq)
    paths = []
    for path in config.paths:
        image = tuple(((2 * seq.top + 1 + 2 * y - xd) // 2, y) for xd, y in path)
        paths.append(image)
    return PathConfig(dual, tuple(paths), "first")


def abscissas(config: PathConfig) -> list[int]:
    """The north-step array b of a first-family configuration.

    b[i][k] is the column of the north step of path i from row k to row
    k + 1, for 1 <= i <= n and 0 <= k < i, stored flat in that order.
    """
    if config.family != "first":
        raise InvalidArgument("abscissas requires a first-family configuration")
    return [x for x, _ in config.north_steps()]


def paths_from_abscissas(seq: StartSequence, b) -> tuple[tuple[Vertex, ...], ...]:
    """Vertex paths of the configuration with north-step array b."""
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


def min_area_config(seq: StartSequence) -> PathConfig:
    """Ground state for q -> 0, the configuration of least area."""
    return PathConfig(seq, paths_from_abscissas(seq, min_area_abscissas(seq)), "first")


def max_area_config(seq: StartSequence) -> PathConfig:
    """Ground state for q -> infinity: go straight north, then west."""
    return PathConfig(seq, paths_from_abscissas(seq, max_area_abscissas(seq)), "first")
