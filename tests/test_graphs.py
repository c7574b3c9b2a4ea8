import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctwalk import (
    Graph,
    SideChainConfig,
    ValidationError,
    attach_sticky_vertex,
    bipartite_coloring,
    build_side_chain_graph,
    dress_with_ring,
    from_edge_list_text,
    path_graph,
    to_edge_list_text,
)
from ctwalk.graphs import MAX_VERTICES


def chain(n, s=0, offset=0):
    return build_side_chain_graph(SideChainConfig(N=n, S=s, offset=offset))


side_chain_configs = st.builds(
    SideChainConfig,
    N=st.integers(2, 30),
    S=st.integers(0, 3),
    offset=st.integers(0, 0),
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_three_path_is_a_path():
    g = chain(3)
    assert g.n == 3
    assert g.edges == frozenset({(1, 2), (2, 3)})


def test_side_vertex_joins_center():
    g = chain(3, s=1)
    assert g.edges == frozenset({(1, 2), (2, 3), (2, 4)})


def test_two_side_vertices_on_nine_chain():
    g = chain(9, s=2)
    assert g.n == 11
    assert (5, 10) in g.edges
    assert (10, 11) in g.edges


def test_mount_follows_offset():
    g = chain(9, s=1, offset=2)
    assert (7, 10) in g.edges


def test_even_chain_center_definition():
    assert SideChainConfig(N=4).center == 3
    assert SideChainConfig(N=9).center == 5


@pytest.mark.parametrize(
    "n, s, offset",
    [(1, 0, 0), (2, -1, 0), (9, 1, 5), (9, 1, -5), (3, 0, 2)],
)
def test_invalid_configs_rejected(n, s, offset):
    with pytest.raises(ValidationError):
        SideChainConfig(N=n, S=s, offset=offset)


@given(side_chain_configs)
def test_edge_count_is_chain_plus_side(cfg):
    g = build_side_chain_graph(cfg)
    assert len(g.edges) == cfg.N - 1 + cfg.S
    assert g.is_connected()


@given(st.integers(1, 10).map(lambda k: 2 * k + 1), st.integers(0, 3))
def test_reflection_symmetry_at_zero_offset(n, s):
    """For odd N the map i -> N+1-i on the main chain fixes the edge set."""
    g = build_side_chain_graph(SideChainConfig(N=n, S=s, offset=0))

    def mirror(v):
        return n + 1 - v if v <= n else v

    mirrored = frozenset(tuple(sorted((mirror(u), mirror(v)))) for u, v in g.edges)
    assert mirrored == g.edges


# ---------------------------------------------------------------------------
# degree
# ---------------------------------------------------------------------------

def test_degrees_on_paths():
    g = chain(3)
    assert g.degree(2) == 2
    assert g.degree(1) == 1
    assert chain(9, s=1).degree(5) == 3


def test_degree_unknown_vertex():
    with pytest.raises(ValidationError, match="vertex 4 not in graph with 3 vertices"):
        chain(3).degree(4)


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------

def test_three_path_coloring():
    c = bipartite_coloring(chain(3))
    assert c.colors == (1, 2, 1)
    assert (c.n1, c.n2) == (2, 1)


def test_nine_path_class_sizes():
    c = bipartite_coloring(chain(9))
    assert (c.n1, c.n2) == (5, 4)


def test_odd_ring_is_not_bipartite():
    g = dress_with_ring(path_graph(2), 2, 3)
    with pytest.raises(ValidationError, match="joins two vertices of the same parity class"):
        bipartite_coloring(g)


@given(side_chain_configs)
def test_side_chain_graphs_are_bipartite(cfg):
    c = bipartite_coloring(build_side_chain_graph(cfg))
    assert c.n1 + c.n2 == cfg.N + cfg.S
    assert c.colors[0] == 1


# ---------------------------------------------------------------------------
# decorations
# ---------------------------------------------------------------------------

def test_sticky_on_nine_path():
    g = attach_sticky_vertex(chain(9), 9)
    assert g.n == 10
    assert (9, 10) in g.edges


def test_sticky_on_two_path():
    g = attach_sticky_vertex(path_graph(2), 2)
    assert g.edges == frozenset({(1, 2), (2, 3)})


def test_sticky_index_comes_after_side_chain():
    g = attach_sticky_vertex(chain(9, s=2), 9)
    assert g.n == 12
    assert (9, 12) in g.edges


def test_ring_on_nine_path():
    g = dress_with_ring(chain(9), 9, 10)
    assert g.n == 18
    assert set(g.neighbors(9)) == {8, 10, 18}


def test_ring_on_fortythree_path():
    g = dress_with_ring(chain(43), 43, 44)
    assert g.n == 86
    assert set(g.neighbors(43)) == {42, 44, 86}


def test_small_ring_on_two_path():
    g = dress_with_ring(path_graph(2), 2, 3)
    assert g.n == 4
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (2, 4)})


def test_ring_too_small():
    with pytest.raises(ValidationError):
        dress_with_ring(chain(9), 9, 2)


def test_vertex_count_is_bounded_before_any_vertex_is_built():
    top = MAX_VERTICES
    assert chain(top - 1, s=1).n == top
    assert dress_with_ring(chain(9), 9, top - 8).n == top
    assert from_edge_list_text(f"n={top}\n1 2\n").n == top
    for build in (lambda: SideChainConfig(N=top, S=1),
                  lambda: SideChainConfig(N=top + 1),
                  lambda: dress_with_ring(chain(9), 9, top - 7),
                  lambda: from_edge_list_text("n=10000000\n1 2\n"),
                  lambda: Graph(n=top + 1, edges=frozenset())):
        with pytest.raises(ValidationError,
                           match=f"of ({top + 1}|10000000) vertices exceeds the budget of {top}$"):
            build()


@given(side_chain_configs, st.integers(3, 8))
def test_decorations_preserve_existing_edges(cfg, m):
    g = build_side_chain_graph(cfg)
    assert g.edges <= attach_sticky_vertex(g, cfg.N).edges
    assert g.edges <= dress_with_ring(g, cfg.N, m).edges


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_edge_list_round_trip():
    g = chain(9, s=2, offset=1)
    back = from_edge_list_text(to_edge_list_text(g))
    assert back.n == g.n
    assert back.edges == g.edges


def test_edge_list_format():
    text = to_edge_list_text(path_graph(3))
    assert text.splitlines()[0] == "n=3"
    assert "1 2" in text


@pytest.mark.parametrize("bad", ["", "3\n1 2", "n=2\n1 3", "n=2\n1 2 3"])
def test_edge_list_rejects_malformed(bad):
    with pytest.raises(ValidationError):
        from_edge_list_text(bad)


def test_adjacency_is_symmetric_binary():
    j = chain(9, s=2).adjacency()
    assert np.array_equal(j, j.T)
    assert set(np.unique(j)) <= {0.0, 1.0}
    assert np.all(np.diag(j) == 0.0)
