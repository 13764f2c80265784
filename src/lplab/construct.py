"""Pendant-edge extension, t-fold edge subdivision, and the G_t construction
that turns a no-common-vertex witness into instances with unboundedly large f.

G_t needs no longest-path search: its members are longest by the length
argument in build_gt's docstring.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .errors import LplabError, UsageError
from .graphs import GRAPH6_SMALL_MAX, Graph, encode_graph6
from .systems import PathSystem, common_vertices, make_path_system


@dataclass(frozen=True)
class ConstructionResult:
    graph: Graph
    system: PathSystem
    base_n: int
    base_m: int
    k: int
    t: int
    pendant_count: int
    vertex_count: int
    exact_bound: int  # (n + p) + t (m + p)
    nominal_bound: int  # n + t (m + 2k), assuming all 2k member ends are distinct
    f_value: int
    f_lower_witnessed: Optional[bool]  # None when the base has a common vertex

    def to_json(self) -> dict:
        from .bounds import REPORT_SCHEMA

        g = self.graph
        return {
            "schema": REPORT_SCHEMA,
            "base": {"n": self.base_n, "m": self.base_m, "k": self.k},
            "t": self.t,
            "pendants": self.pendant_count,
            "vertex_count": self.vertex_count,
            "exact_bound": self.exact_bound,
            "nominal_bound": self.nominal_bound,
            "graph6": encode_graph6(g) if g.n <= GRAPH6_SMALL_MAX else None,
            "edge_list": None if g.n <= GRAPH6_SMALL_MAX else {
                "n": g.n,
                "edges": [list(e) for e in g.edges()],
            },
            "members": [list(p.vertices) for p in self.system.paths],
            "f": self.f_value,
            "f_lower_witnessed": self.f_lower_witnessed,
        }


def attach_pendants(g: Graph, ps: PathSystem) -> tuple[Graph, PathSystem]:
    """Attach one pendant vertex to each distinct member end-vertex and
    prolong every member through the pendants at its ends."""
    ends = sorted({p.vertices[0] for p in ps.paths} | {p.vertices[-1] for p in ps.paths})
    pendant_of = {v: g.n + i for i, v in enumerate(ends)}
    edges = list(g.edges()) + [(v, pendant_of[v]) for v in ends]
    g2 = Graph.from_edges(g.n + len(ends), edges)
    members = []
    for p in ps.paths:
        seq = list(p.vertices)
        if len(seq) == 1:
            members.append([pendant_of[seq[0]]] + seq)
        else:
            members.append([pendant_of[seq[0]]] + seq + [pendant_of[seq[-1]]])
    return g2, make_path_system(g2, members, require_longest=False)


def subdivide(g: Graph, t: int, ps: PathSystem) -> tuple[Graph, PathSystem]:
    """Replace every edge by a path through t fresh vertices; rewrite members.

    Fresh vertices are numbered after the existing ones, in sorted edge order.
    t = 0 is the identity.
    """
    if t < 0:
        raise UsageError(f"t must be >= 0, got {t}")
    if t == 0:
        return g, ps
    edge_list = list(g.edges())
    new_edges = []
    chain_of = {}
    for i, (u, v) in enumerate(edge_list):
        ws = [g.n + i * t + s for s in range(t)]
        chain_of[(u, v)] = ws
        seq = [u] + ws + [v]
        new_edges.extend(zip(seq, seq[1:]))
    g2 = Graph.from_edges(g.n + t * g.m, new_edges)
    members = []
    for p in ps.paths:
        seq = list(p.vertices)
        out = [seq[0]]
        for a, b in zip(seq, seq[1:]):
            key = (a, b) if a < b else (b, a)
            ws = chain_of[key]
            out.extend(ws if a < b else ws[::-1])
            out.append(b)
        members.append(out)
    return g2, make_path_system(g2, members, require_longest=False)


def build_gt(g: Graph, ps: PathSystem, t: int) -> ConstructionResult:
    """Run the full construction; its members come back certified longest.

    Let G_0 be g with the pendants and l = ell(g), which the certified base
    system gives.  The G_0 vertices on any path Q of G_t form a path P of
    G_0.  Pendants have degree 1, so they can only be ends of P; with p of
    its two ends pendants, P has at most l + p edges.  A pendant end has no
    spare edge, and any other end adds a partial run of at most t
    subdivision vertices, so |Q| <= (t + 1)(l + p) + t(2 - p), which is at
    most (t + 1)(l + 2): the member length checked below.  For a one-vertex
    g, G_t is a path and the member spans it.
    """
    if not ps.longest_certified:
        raise UsageError("build_gt requires a certified base system")
    if t < 0:
        raise UsageError(f"t must be >= 0, got {t}")
    k = ps.k
    base_common = common_vertices(ps)
    g1, ps1 = attach_pendants(g, ps)
    p = g1.n - g.n
    g2, ps2 = subdivide(g1, t, ps1)
    nominal_bound = g.n + t * (g.m + 2 * k)

    expected_len = (ps.paths[0].length + 2) * (t + 1)
    for idx, member in enumerate(ps2.paths):
        if g.n > 1 and member.length != expected_len:
            raise LplabError(
                f"member {idx} has length {member.length}, expected {expected_len}"
            )
    ps2 = dataclasses.replace(ps2, longest_certified=True)

    f_value, _ = ps2.path_distance
    f_lower_witnessed: Optional[bool] = None
    if not base_common:
        f_lower_witnessed = f_value >= t

    return ConstructionResult(
        graph=g2,
        system=ps2,
        base_n=g.n,
        base_m=g.m,
        k=k,
        t=t,
        pendant_count=p,
        vertex_count=g2.n,
        exact_bound=(g.n + p) + t * (g.m + p),
        nominal_bound=nominal_bound,
        f_value=f_value,
        f_lower_witnessed=f_lower_witnessed,
    )
