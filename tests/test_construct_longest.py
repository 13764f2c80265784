"""The DFS as oracle for build_gt's claim that every member of G_t is longest.

build_gt certifies its members by a length argument, not by a search; these
tests run the longest-path DFS on G_t and compare.
"""

from __future__ import annotations

import pytest

from conftest import H_SYSTEM
from lplab.construct import build_gt
from lplab.longest import enumerate_longest_paths, longest_path_length
from lplab.systems import certified_system, make_path_system

# G_t of at most this many vertices go through the DFS in the sweep below
MAX_GT_N = 45


@pytest.mark.parametrize("t", range(5))
def test_h_system_certified(h_graph, t):
    res = build_gt(h_graph, make_path_system(h_graph, H_SYSTEM, require_longest=True), t)
    assert res.system.longest_certified
    # ell(H) = 9, and each member gains two pendant edges before subdivision
    assert longest_path_length(res.graph) == 11 * (t + 1)
    assert {p.length for p in res.system.paths} == {11 * (t + 1)}


def test_members_longest_on_small_bases(corpus_by_n):
    built = 0
    for n in range(1, 7):
        for g in corpus_by_n[n]:
            lps = enumerate_longest_paths(g, cap=50)
            for members in (lps.paths[:1], lps.paths[:3]):
                ps = certified_system(g, members, lps.length)
                for t in range(3):
                    res = build_gt(g, ps, t)
                    if res.graph.n > MAX_GT_N:
                        break
                    ell = longest_path_length(res.graph)
                    assert [p.length for p in res.system.paths] == [ell] * ps.k, (
                        g.n,
                        [p.vertices for p in members],
                        t,
                    )
                    built += 1
    assert built == 858
