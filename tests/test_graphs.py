from __future__ import annotations

import dataclasses
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lplab.graphs
from lplab.errors import FormatError, UsageError
from lplab.graphs import (
    Graph,
    bfs_distances,
    encode_graph6,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from oracles import all_pairs_distances, format_edge_list, from_networkx, to_networkx


def small_graphs(max_n=7):
    """Hypothesis strategy: a random simple graph on 1..max_n vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = list(itertools.combinations(range(n), 2))
        picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        return Graph.from_edges(n, picked)

    return build()


class TestEdgeList:
    def test_p4(self):
        g = parse_edge_list("4 3\n0 1\n1 2\n2 3")
        assert g.n == 4 and g.m == 3
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_k1(self):
        g = parse_edge_list("1 0")
        assert g.n == 1 and g.m == 0

    def test_star(self):
        g = parse_edge_list("4 3\n0 1\n0 2\n0 3")
        assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3)]
        assert g.degree(0) == 3

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "4\n",
            "4 1\n0 0",  # self-loop
            "4 2\n0 1\n1 0",  # duplicate edge
            "4 1\n0 9",  # out of range
            "4 1\nx y",
            "4 2\n0 1",  # wrong edge count
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(FormatError):
            parse_edge_list(text)

    @pytest.mark.parametrize("text, message", [
        ("a b\n", "header must be 'n m', got 'a b'"),
        ("3 1\n0 1 2", "malformed edge line '0 1 2'"),
    ])
    def test_malformed_message(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message

    def test_order_zero_rejected(self):
        with pytest.raises(UsageError, match="graph order must be >= 1, got 0"):
            Graph.from_edges(0, [])

    def test_format_round_trip(self, c5):
        assert sorted(parse_edge_list(format_edge_list(c5)).edges()) == sorted(c5.edges())


# each malformed line and its FormatError message
GRAPH6_ERRORS = {
    "": "empty graph6 string",
    ">>graph6<<": "empty graph6 string",
    # str.strip takes \x1f for whitespace
    "C\x1f": "truncated graph6 bit-stream at offset 1: need 1 data bytes, got 0",
    "C h": "invalid graph6 byte ' ' at offset 1",
    "Ch\x7f": "invalid graph6 byte '\\x7f' at offset 2",
    "~??Ch!": "invalid graph6 byte '!' at offset 5",
    "C": "truncated graph6 bit-stream at offset 1: need 1 data bytes, got 0",
    "~??C": "truncated graph6 bit-stream at offset 4: need 1 data bytes, got 0",
    "~?@?": "truncated graph6 bit-stream at offset 4: need 336 data bytes, got 0",
    "~~?????A": "truncated graph6 bit-stream at offset 8: need 1 data bytes, got 0",
    "Chh": "trailing bytes after graph6 data at offset 2",
    "?": "graph6 order must be >= 1",
    "~~??????": "graph6 order must be >= 1",
    "~": "truncated graph6 order header at offset 1",
    "~??": "truncated graph6 order header at offset 1",
    "~~?????": "truncated graph6 order header at offset 2",
    ":?": "sparse6 order must be >= 1",
}


class TestGraph6:
    def test_k1(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0
        assert encode_graph6(g) == "@"

    def test_p4(self):
        g = parse_graph6("Ch")
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert encode_graph6(g) == "Ch"

    def test_k13(self):
        g = parse_graph6("Cs")
        assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3)]

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<Ch").m == 3

    @pytest.mark.parametrize("line", list(GRAPH6_ERRORS))
    def test_malformed(self, line):
        with pytest.raises(FormatError) as exc:
            parse_graph6(line)
        assert str(exc.value) == GRAPH6_ERRORS[line]

    @pytest.mark.parametrize("line, offset", [
        ("B~", 1),  # K3 is Bw: its 3 edge bits leave 3 padding bits
        ("Bx", 1),
        ("A`", 1),  # K2 is A_: 5 padding bits
        ("D?A", 2),  # order 5: 10 edge bits, 2 padding bits in the second byte
        (">>graph6<<B~", 1),
    ])
    def test_nonzero_padding(self, line, offset):
        with pytest.raises(FormatError, match=f"nonzero padding bits .* at offset {offset}$"):
            parse_graph6(line)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 64])
    def test_complete_graphs_pad_with_zeros(self, n):
        # the complete graph sets every edge bit; the padding stays zero
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i)])
        assert parse_graph6(encode_graph6(g)).m == g.m

    def test_round_trip_corpus(self, corpus_by_n):
        for gs in corpus_by_n.values():
            for g in gs:
                s = encode_graph6(g)
                g2 = parse_graph6(s)
                assert g2.n == g.n and sorted(g2.edges()) == sorted(g.edges())

    def test_against_networkx(self, corpus_by_n):
        for g in corpus_by_n[6]:
            ours = encode_graph6(g)
            theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
            assert ours == theirs
            back = from_networkx(nx.from_graph6_bytes(ours.encode()))
            assert sorted(back.edges()) == sorted(g.edges())

    def test_eight_byte_order(self):
        # 258,047 is the largest order of the four-byte form
        assert lplab.graphs._g6_encode_order(258047) == "~}~~"
        order = lplab.graphs._g6_encode_order(258048)
        assert order == "~~???~??"
        assert lplab.graphs._g6_parse_order(order) == (258048, 8)

    def test_large_order_header(self):
        n = 70
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        g2 = parse_graph6(encode_graph6(g))
        assert g2.n == n and sorted(g2.edges()) == sorted(g.edges())


class TestSparse6:
    def test_round_trip_via_networkx(self, corpus_by_n):
        for g in corpus_by_n[6][:40]:
            line = nx.to_sparse6_bytes(to_networkx(g), header=False).decode().strip()
            g2 = parse_graph6(line)
            assert sorted(g2.edges()) == sorted(g.edges())

    def test_header(self):
        g = parse_graph6(">>sparse6<<:Cca")
        assert g.n == 4

    def test_self_loop(self):
        # order 2, one bit per vertex: the unit b = 0, x = 0 is the edge
        # (0, 0), and 1111 pads the byte
        with pytest.raises(FormatError, match="sparse6 self-loop at vertex 0"):
            parse_graph6(":AN")


class TestMasks:
    def test_fields(self, p4):
        assert [f.name for f in dataclasses.fields(Graph)] == ["n", "nbr_masks", "m"]
        assert repr(p4) == "Graph(n=4, nbr_masks=(2, 5, 10, 4), m=3)"

    def test_edges_in_order(self, p4, k13, h_graph):
        # by u, then v, ascending; construct.subdivide numbers fresh vertices
        # in this order
        assert list(p4.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert list(k13.edges()) == [(0, 1), (0, 2), (0, 3)]
        assert list(h_graph.edges()) == [
            (0, 1), (0, 5), (0, 9), (1, 2), (1, 6), (2, 3), (2, 7), (3, 8),
            (3, 10), (4, 6), (4, 7), (4, 11), (5, 7), (5, 8), (6, 8),
        ]

    def test_degree(self, k13, h_graph):
        assert [k13.degree(v) for v in range(4)] == [3, 1, 1, 1]
        assert [h_graph.degree(v) for v in range(12)] == [3] * 9 + [1] * 3


class TestDistances:
    def test_bfs_p4_single(self, p4):
        assert bfs_distances(p4, {0}) == [0, 1, 2, 3]

    def test_bfs_p4_multi(self, p4):
        assert bfs_distances(p4, {0, 3}) == [0, 1, 1, 0]

    def test_bfs_k13(self, k13):
        assert bfs_distances(k13, {1}) == [1, 0, 2, 2]

    def test_bfs_empty_sources(self, p4):
        with pytest.raises(UsageError):
            bfs_distances(p4, set())

    def test_bfs_source_out_of_range(self, p4):
        for bad in (-1, 4):
            with pytest.raises(UsageError, match="out of range"):
                bfs_distances(p4, {0, bad})

    def test_bfs_is_min_over_sources(self, corpus_by_n, h_g1):
        rng = random.Random(2026)
        disconnected = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5)])
        graphs = [g for gs in corpus_by_n.values() for g in gs] + [disconnected, h_g1]
        for g in graphs:
            d = all_pairs_distances(g)
            for _ in range(3):
                src = rng.sample(range(g.n), rng.randint(1, g.n))
                want = [
                    min((d[s][v] for s in src if d[s][v] is not None), default=None)
                    for v in range(g.n)
                ]
                assert bfs_distances(g, src) == want

    def test_bfs_unreachable(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert bfs_distances(g, {0}) == [0, 1, None, None]

    def test_connected(self, p4, k13):
        assert is_connected(p4) and is_connected(k13)
        assert is_connected(Graph.from_edges(1, []))
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_connected_is_no_field(self, monkeypatch):
        # found on the first read and kept; a graph that has read it equals
        # and hashes as one that has not
        calls = 0
        search = lplab.graphs.masks_connected

        def counting(masks):
            nonlocal calls
            calls += 1
            return search(masks)

        monkeypatch.setattr(lplab.graphs, "masks_connected", counting)
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        h = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert is_connected(g) and is_connected(g) and calls == 1
        assert g == h and hash(g) == hash(h) and calls == 1
        assert "connected" not in repr(g)
        assert not is_connected(Graph.from_edges(2, [])) and calls == 2

    def test_all_pairs_p4(self, p4):
        assert all_pairs_distances(p4)[0] == [0, 1, 2, 3]

    def test_all_pairs_c5(self, c5):
        d = all_pairs_distances(c5)
        for u in range(5):
            for v in range(5):
                assert d[u][v] == d[v][u]
                assert d[u][v] in ({0} if u == v else {1, 2})

    def test_bfs_matches_all_pairs_corpus(self, corpus_by_n):
        for gs in corpus_by_n.values():
            for g in gs:
                d = all_pairs_distances(g)
                for s in range(g.n):
                    assert bfs_distances(g, {s}) == d[s]


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_graph6_round_trip_property(g):
    g2 = parse_graph6(encode_graph6(g))
    assert g2.n == g.n and sorted(g2.edges()) == sorted(g.edges())


@st.composite
def graphs_up_to_70(draw) -> Graph:
    """A random simple graph on 1..70 vertices, across the one-byte graph6
    order (n <= 62) and the "~" order that follows it."""
    n = draw(st.integers(1, 70))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


@given(graphs_up_to_70())
@settings(max_examples=150, deadline=None)
def test_graph6_codec_round_trip_up_to_70(g):
    line = encode_graph6(g)
    assert parse_graph6(line) == g
    # networkx writes the canonical line on its own, and it reads back as is
    theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
    assert line == theirs
    assert encode_graph6(parse_graph6(theirs)) == theirs
    assert (line[0] == "~") == (g.n > 62)


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_triangle_inequality(g):
    d = all_pairs_distances(g)
    for u, v, w in itertools.product(range(g.n), repeat=3):
        if d[u][v] is not None and d[v][w] is not None and d[u][w] is not None:
            assert d[u][w] <= d[u][v] + d[v][w]


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_adjacent_levels_differ_by_at_most_one(g):
    dist = bfs_distances(g, {0})
    for u, v in g.edges():
        if dist[u] is not None and dist[v] is not None:
            assert abs(dist[u] - dist[v]) <= 1
