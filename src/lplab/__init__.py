"""lplab: longest-path intersection toolkit for connected graphs.

Computes the path-distance-function of a set of longest paths, checks the
associated lemma and theorem inequalities with exact rational arithmetic,
replays the proof surgery, builds the pendant/subdivision construction, and
scans small-graph corpora for conjecture counterexamples.
"""

from .errors import FormatError, LplabError, UsageError
from .graphs import (
    Graph,
    bfs_distances,
    encode_graph6,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from .longest import (
    LongestPathSet,
    Path,
    enumerate_longest_paths,
    is_path,
    longest_path_length,
)
from .systems import (
    GoodPath,
    PathSystem,
    common_vertices,
    enumerate_good_paths,
    make_path_system,
    path_distance_value,
)
from .bounds import (
    CheckReport,
    SurgeryTrace,
    check_corollary1,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_theorem,
    lemma1_rhs,
    ratio_table,
    surgery_trace,
    theorem_bound,
)
from .construct import ConstructionResult, attach_pendants, build_gt, subdivide
from .harness import (
    ConjectureVerdict,
    ScanConfig,
    SearchReport,
    check_conjecture,
    generate_connected_graphs,
    scan_stream,
)

__version__ = "0.1.0"
