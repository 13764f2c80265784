"""Immutable undirected simple graphs, hop distances, and graph6/sparse6 I/O.

Vertices are dense 0-based integers.  A graph is its per-vertex neighbour
bit masks: bit v of nbr_masks[u] is set iff uv is an edge.  Edges, degrees
and distances are all read from the masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import FormatError, UsageError

# One-byte graph6 headers cover n <= 62; larger graphs travel as edge lists.
GRAPH6_SMALL_MAX = 62

DistanceVector = list  # list[Optional[int]]; None marks an unreachable vertex


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    nbr_masks: tuple[int, ...]
    m: int
    # whether the graph is connected, once is_connected has searched; no
    # field, so equality, hash and repr are the three fields' alone
    _connected = None

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise UsageError(f"graph order must be >= 1, got {n}")
        masks = [0] * n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise FormatError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise FormatError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return Graph(n=n, nbr_masks=tuple(masks), m=len(seen))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, by u then v ascending."""
        for u in range(self.n):
            for v in _bits(self.nbr_masks[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def degree(self, v: int) -> int:
        return self.nbr_masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.nbr_masks[u] >> v & 1)

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# edge-list format


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" / "u v" edge-list format."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"malformed edge line {ln!r}") from None
        edges.append((u, v))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# graph6 / sparse6


# a graph6 data byte's six bits, high bit first, and back.  The bit-stream
# lists the pairs (0, 1), (0, 2), (1, 2), (0, 3), ... in order, so read into
# one int whose bit i is stream bit i, the x bits of row x are the low x
# bits of x's neighbour mask
_G6_BITS = {63 + i: format(i, "06b") for i in range(64)}
_G6_CHARS = {format(i, "06b"): chr(63 + i) for i in range(64)}


def _g6_check_bytes(s: str) -> None:
    for off, ch in enumerate(s):
        if not (63 <= ord(ch) <= 126):
            raise FormatError(f"invalid graph6 byte {ch!r} at offset {off}")


def _g6_parse_order(s: str) -> tuple[int, int]:
    """Return (n, offset of first data byte)."""
    if not s:
        raise FormatError("empty graph6 string")
    c0 = ord(s[0]) - 63
    if c0 < 63:
        return c0, 1
    if len(s) < 4:
        raise FormatError("truncated graph6 order header at offset 1")
    if s[1] != "~":
        n = 0
        for i in range(1, 4):
            n = (n << 6) | (ord(s[i]) - 63)
        return n, 4
    if len(s) < 8:
        raise FormatError("truncated graph6 order header at offset 2")
    n = 0
    for i in range(2, 8):
        n = (n << 6) | (ord(s[i]) - 63)
    return n, 8


def _g6_encode_order(n: int) -> str:
    if n <= GRAPH6_SMALL_MAX:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> sh) & 63) + 63) for sh in (12, 6, 0))
    return "~~" + "".join(chr(((n >> sh) & 63) + 63) for sh in (30, 24, 18, 12, 6, 0))


def parse_graph6(line: str) -> Graph:
    """Decode a graph6 (or sparse6) line into a Graph."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    elif s.startswith(">>sparse6<<"):
        s = s[len(">>sparse6<<"):]
    if s.startswith(":"):
        return _parse_sparse6(s)
    _g6_check_bytes(s)
    n, off = _g6_parse_order(s)
    if n < 1:
        raise FormatError("graph6 order must be >= 1")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - off < need:
        raise FormatError(
            f"truncated graph6 bit-stream at offset {len(s)}: "
            f"need {need} data bytes, got {len(s) - off}"
        )
    if len(s) - off > need:
        raise FormatError(f"trailing bytes after graph6 data at offset {off + need}")
    # the bit-stream is padded with zeros to a multiple of 6 bits; a set
    # padding bit would be dropped, and the line read as another graph's
    if need and (ord(s[off + need - 1]) - 63) & ((1 << (6 * need - nbits)) - 1):
        raise FormatError(
            f"nonzero padding bits in the last graph6 data byte at offset {off + need - 1}"
        )
    # the data bytes' bits, read backwards: stream bit i is bit i
    stream = int(s[off:].translate(_G6_BITS)[::-1], 2) if need else 0
    masks = [0] * n
    shift = 0
    for x in range(1, n):
        row = stream >> shift & ((1 << x) - 1)  # the neighbours of x below x
        shift += x
        masks[x] |= row
        while row:
            low = row & -row
            masks[low.bit_length() - 1] |= 1 << x
            row ^= low
    return Graph(n=n, nbr_masks=tuple(masks), m=stream.bit_count())


def _parse_sparse6(s: str) -> Graph:
    body = s[1:]
    _g6_check_bytes(body)
    n, off = _g6_parse_order(body)
    if n < 1:
        raise FormatError("sparse6 order must be >= 1")
    k = max(1, (n - 1).bit_length())
    bits = []
    for ch in body[off:]:
        byte = ord(ch) - 63
        bits.extend((byte >> sh) & 1 for sh in range(5, -1, -1))
    edges = []
    seen = set()
    v = 0
    pos = 0
    while pos + 1 + k <= len(bits):
        b = bits[pos]
        x = 0
        for i in range(pos + 1, pos + 1 + k):
            x = (x << 1) | bits[i]
        pos += 1 + k
        if b:
            v += 1
        if v >= n or x >= n:
            break
        if x > v:
            v = x
        else:
            if x == v:
                raise FormatError(f"sparse6 self-loop at vertex {x}")
            key = (x, v)
            if key not in seen:  # padding may repeat the final edge
                seen.add(key)
                edges.append(key)
    return Graph.from_edges(n, edges)


def encode_graph6(g: Graph) -> str:
    """Encode a Graph as a canonical graph6 line (inverse of parse_graph6)."""
    masks = g.nbr_masks
    stream = shift = 0  # bit i is stream bit i, as in parse_graph6
    for x in range(1, g.n):
        stream |= (masks[x] & ((1 << x) - 1)) << shift
        shift += x
    # the stream in order, padded with zeros to whole bytes
    size = (shift + 5) // 6 * 6
    bits = format(stream, f"0{size}b")[::-1]
    return _g6_encode_order(g.n) + "".join(
        [_G6_CHARS[bits[i:i + 6]] for i in range(0, size, 6)]
    )


# ---------------------------------------------------------------------------
# distances


def bfs_distances(g: Graph, sources: Iterable[int]) -> DistanceVector:
    """Multi-source BFS: entry v is min over s in sources of d_G(v, s)."""
    dist: list[Optional[int]] = [None] * g.n
    masks = g.nbr_masks
    seen = reach = 0
    for s in sources:
        if not 0 <= s < g.n:
            raise UsageError(f"source vertex {s} out of range")
        dist[s] = 0
        seen |= 1 << s
        reach |= masks[s]
    if not seen:
        raise UsageError("source set must be nonempty")
    # layer by layer: reach is the union of the last layer's neighbour
    # masks, and its unseen part is the next layer
    d = 1
    frontier = reach & ~seen
    while frontier:
        seen |= frontier
        reach = 0
        while frontier:
            low = frontier & -frontier
            v = low.bit_length() - 1
            dist[v] = d
            reach |= masks[v]
            frontier ^= low
        frontier = reach & ~seen
        d += 1
    return dist


def is_connected(g: Graph) -> bool:
    """Whether g is connected, searched for on the first call only and kept
    on g: a scan, its path enumeration and its conjecture check each ask.

    The answer is set with object.__setattr__, as a frozen dataclass sets
    its fields, which keeps g's attributes stored inline: a
    functools.cached_property, which writes g.__dict__, made every later
    attribute read of g about four times slower (Python 3.11).
    """
    connected = g._connected
    if connected is None:
        connected = masks_connected(g.nbr_masks)
        object.__setattr__(g, "_connected", connected)
    return connected


def masks_connected(masks: Sequence[int]) -> bool:
    """True iff the graph with these neighbour masks is connected."""
    seen = frontier = 1
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(masks)) - 1
