"""Chain-with-side-chain graphs and their absorber decorations.

The model graph is a main chain of N vertices, optionally carrying a side
chain of S vertices mounted at (or near) the chain center. Two decorations
support the absorber-based first-passage estimators: a single "sticky"
pendant vertex, and a ring grown out of a target vertex.

Vertices are 1-indexed everywhere in the public interface. Main-chain
vertices are 1..N in order, side-chain vertices N+1..N+S, and decoration
vertices always take the highest indices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError, refuse_over

Edge = tuple[int, int]

# most vertices a graph may have: the walks build dense n x n matrices and
# take their full eigendecomposition: at 2,048 the adjacency is 32 MiB and
# eigh took 1.1-2.1 s on a 2-vCPU host (OpenBLAS 0.3.31)
MAX_VERTICES = 2048


def check_vertex_count(n: int) -> None:
    """Refuse more than MAX_VERTICES vertices, before any per-vertex structure is built."""
    refuse_over(n, MAX_VERTICES, "a graph of {} vertices")


def _normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValidationError(f"self-loop on vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted graph with 1-indexed vertices."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"vertex count must be >= 1, got {self.n}")
        check_vertex_count(self.n)
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValidationError(f"edge ({u},{v}) outside vertex range 1..{self.n}")

    def check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise ValidationError(f"vertex {v} not in graph with {self.n} vertices")

    @cached_property
    def _neighbor_map(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbors of every vertex; entry v - 1 belongs to vertex v."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u - 1].append(v)
            adj[v - 1].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._neighbor_map[v - 1])

    def neighbors(self, v: int) -> list[int]:
        self.check_vertex(v)
        return list(self._neighbor_map[v - 1])

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix."""
        j = np.zeros((self.n, self.n))
        for u, v in self.edges:
            j[u - 1, v - 1] = 1.0
            j[v - 1, u - 1] = 1.0
        return j

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = {1}
        queue = deque([1])
        while queue:
            u = queue.popleft()
            for w in self._neighbor_map[u - 1]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n


@dataclass(frozen=True)
class SideChainConfig:
    """Main chain of N vertices with S side vertices mounted at center + offset.

    The center of an odd chain is c = (N+1)/2; for even N (not used in the
    reference experiments) it is defined as floor(N/2) + 1.
    """

    N: int
    S: int = 0
    offset: int = 0

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValidationError(f"N must be >= 2, got {self.N}")
        if self.S < 0:
            raise ValidationError(f"S must be >= 0, got {self.S}")
        check_vertex_count(self.N + self.S)
        if not (1 <= self.mount <= self.N):
            raise ValidationError(
                f"mount position {self.mount} outside chain 1..{self.N} "
                f"(offset {self.offset})"
            )

    @property
    def center(self) -> int:
        return (self.N + 1) // 2 if self.N % 2 else self.N // 2 + 1

    @property
    def mount(self) -> int:
        return self.center + self.offset


def path_graph(n: int) -> Graph:
    """Plain chain 1-2-...-n."""
    if n < 1:
        raise ValidationError(f"path needs at least 1 vertex, got {n}")
    edges = frozenset(_normalize_edge(i, i + 1) for i in range(1, n))
    return Graph(n=n, edges=edges)


def build_side_chain_graph(cfg: SideChainConfig) -> Graph:
    """Chain 1..N plus a side chain N+1..N+S hanging off the mount vertex."""
    edges = [(i, i + 1) for i in range(1, cfg.N)]
    if cfg.S >= 1:
        edges.append(_normalize_edge(cfg.mount, cfg.N + 1))
        for k in range(2, cfg.S + 1):
            edges.append((cfg.N + k - 1, cfg.N + k))
    return Graph(n=cfg.N + cfg.S, edges=frozenset(edges))


def attach_sticky_vertex(g: Graph, target: int) -> Graph:
    """New graph with one pendant vertex, g.n + 1, joined to target."""
    g.check_vertex(target)
    return Graph(n=g.n + 1, edges=g.edges | {_normalize_edge(target, g.n + 1)})


def check_ring(g: Graph, target: int, m: int) -> None:
    """Refuse an m-cycle at target that dress_with_ring could not build."""
    g.check_vertex(target)
    if m < 3:
        raise ValidationError(f"ring size must be >= 3, got {m}")
    check_vertex_count(g.n + m - 1)


def dress_with_ring(g: Graph, target: int, m: int) -> Graph:
    """Grow target into an m-cycle by appending m - 1 chained ring vertices.

    The last new vertex closes the cycle back onto target, so target ends up
    with two ring neighbors.
    """
    check_ring(g, target, m)
    edges = set(g.edges)
    prev = target
    for k in range(1, m):
        cur = g.n + k
        edges.add(_normalize_edge(prev, cur))
        prev = cur
    edges.add(_normalize_edge(prev, target))
    return Graph(n=g.n + m - 1, edges=frozenset(edges))


@dataclass(frozen=True)
class ColorAssignment:
    """Two-coloring of a bipartite graph; colors[v-1] in {1, 2}, vertex 1 gets 1."""

    colors: tuple[int, ...]
    n1: int = field(init=False)
    n2: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n1", sum(1 for c in self.colors if c == 1))
        object.__setattr__(self, "n2", sum(1 for c in self.colors if c == 2))

    def class_indices(self, color: int) -> np.ndarray:
        """0-based indices of the vertices in the given color class."""
        return np.array([i for i, c in enumerate(self.colors) if c == color], dtype=int)


def bipartite_coloring(g: Graph) -> ColorAssignment:
    """Two-coloring by breadth-first parity from vertex 1.

    Raises ValidationError when an odd cycle is present (possible for
    ring decorations of odd size).
    """
    colors = [0] * g.n
    colors[0] = 1
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if colors[w - 1] == 0:
                colors[w - 1] = 3 - colors[u - 1]
                queue.append(w)
            elif colors[w - 1] == colors[u - 1]:
                raise ValidationError(
                    f"edge ({u},{w}) joins two vertices of the same parity class"
                )
    if any(c == 0 for c in colors):
        raise ValidationError("graph is not connected; coloring undefined")
    return ColorAssignment(colors=tuple(colors))


def to_edge_list_text(g: Graph) -> str:
    """Serialize as 'n=<count>' followed by one 'u v' line per edge."""
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    """Parse the edge-list format produced by to_edge_list_text."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValidationError("first line must be 'n=<count>'")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise ValidationError(f"bad vertex count line {lines[0]!r}") from exc
    check_vertex_count(n)
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValidationError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValidationError(f"bad edge line {ln!r}") from exc
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValidationError(f"edge ({u},{v}) outside vertex range 1..{n}")
        edges.add(_normalize_edge(u, v))
    return Graph(n=n, edges=frozenset(edges))
