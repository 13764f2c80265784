"""Exact-rational bound formulas, instance-level lemma/theorem checks, and
replay of the proof surgery (paths R, S1, S2, S3 and the (*) / (**) totals).

Verdicts are exact; no floating point touches one.  The Lemma 3 / Corollary 1
checker compares integers and builds Fractions only for its report fields;
the other checks compare fractions.Fraction values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import UsageError
from .longest import Path, is_path
from .systems import PathSystem

REPORT_SCHEMA = "lplab-report/2"

DEFAULT_CHECKS = ("lemma1", "lemma2", "lemma3", "cor1", "theorem")


def check_names(checks: str | Sequence[str] | None) -> tuple[str, ...]:
    """The checks that a comma list or a sequence of names asks for, or
    DEFAULT_CHECKS if it is empty or None; a name not among DEFAULT_CHECKS
    is a UsageError."""
    if not checks:
        return DEFAULT_CHECKS
    names = tuple(checks.split(",") if isinstance(checks, str) else checks)
    unknown = set(names) - set(DEFAULT_CHECKS)
    if unknown:
        raise UsageError(f"unknown checks: {sorted(unknown)}")
    return names


# Known ratio constants carried from the literature (cited, not re-proven).
D3_UPPER = Fraction(1, 17)
D4_UPPER = Fraction(3, 16)
D7_LOWER = Fraction(1, 17)


def frac_str(x: Optional[Fraction]) -> Optional[str]:
    if x is None:
        return None
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class CheckReport:
    """Verdict of one lemma/theorem check on one concrete instance."""

    check_id: str
    instance: dict
    status: str  # "pass" | "fail" | "vacuous"
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None
    witness: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "vacuous"):
            raise UsageError(f"bad report status {self.status!r}")
        if self.status == "fail" and self.witness is None:
            raise UsageError("failing reports must carry a witness payload")

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "check": self.check_id,
            "instance": self.instance,
            "status": self.status,
            "lhs": frac_str(self.lhs),
            "rhs": frac_str(self.rhs),
            "witness": self.witness,
        }


def instance_id(ps: PathSystem) -> dict:
    return {
        "graph6": ps.graph6,
        "members": [list(p.vertices) for p in ps.paths],
        "certified": ps.longest_certified,
    }


# ---------------------------------------------------------------------------
# closed-form bounds


def lemma1_rhs(k: int, ell: int, n_counts: Sequence[int]) -> Fraction:
    """(k*ell + k + (k-2)n_1 + (k-3)n_2 + ... + n_{k-2}) / (k-1)."""
    if k < 3:
        raise UsageError(f"k must be >= 3, got {k}")
    if ell < 0 or any(c < 0 for c in n_counts):
        raise UsageError("ell and the n_i counts must be nonnegative")
    if len(n_counts) != k - 2:
        raise UsageError(f"expected {k - 2} counts n_1..n_{k - 2}, got {len(n_counts)}")
    total = k * ell + k
    for j, nj in enumerate(n_counts, start=1):
        total += (k - 1 - j) * nj
    return Fraction(total, k - 1)


def general_ratio_bound(k: int) -> Fraction:
    """(k^3 - 4k^2 + 5k - 2) / (6k^2 - 8k), the general d_k upper ratio."""
    if k < 3:
        raise UsageError(f"k must be >= 3, got {k}")
    return Fraction(k**3 - 4 * k**2 + 5 * k - 2, 6 * k**2 - 8 * k)


def theorem_bound_parts(k: int, n: int) -> dict[str, Optional[Fraction]]:
    """The general-k f bound at order n, plus the tighter k=4 bound when it applies."""
    if k < 3:
        raise UsageError(f"k must be >= 3, got {k}")
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    general = Fraction(
        (k**3 - 4 * k**2 + 5 * k - 2) * n - 2 * k**3 + 8 * k**2 - 6 * k,
        6 * k**2 - 8 * k,
    )
    k4 = Fraction(3 * n - 4, 16) if k == 4 else None
    return {"general": general, "k4": k4}


def theorem_check_id(k: int) -> str:
    """The check id of the theorem bound at k: thm2 for the k = 4 bound,
    thm3 for the general one."""
    return "thm2" if k == 4 else "thm3"


@functools.lru_cache(maxsize=256)
def theorem_bound(k: int, n: int) -> Fraction:
    """Best proven upper bound on f for k longest paths in a connected graph on n vertices.

    Memoised on (k, n): a scan asks once per graph, for a few orders.
    """
    return min(b for b in theorem_bound_parts(k, n).values() if b is not None)


def ratio_table(k_max: int) -> list[dict]:
    """Best known upper and lower bounds on the ratio d_k for k = 3..k_max."""
    if k_max < 3:
        raise UsageError(f"k_max must be >= 3, got {k_max}")
    rows = []
    for k in range(3, k_max + 1):
        if k == 3:
            upper = D3_UPPER
        elif k == 4:
            upper = D4_UPPER
        else:
            upper = general_ratio_bound(k)
        lower = D7_LOWER if k >= 7 else Fraction(0)
        rows.append({"k": k, "upper": upper, "lower": lower})
    return rows


# ---------------------------------------------------------------------------
# instance checks


def _require_certified(ps: PathSystem, what: str) -> None:
    if not ps.longest_certified:
        raise UsageError(f"{what} applies to certified longest-path systems only")


def check_lemma1(ps: PathSystem) -> CheckReport:
    """n >= lemma1_rhs whenever f > 0; vacuous at f = 0."""
    _require_certified(ps, "lemma1")
    if ps.k < 3:
        raise UsageError(f"lemma1 needs k >= 3, got {ps.k}")
    inst = instance_id(ps)
    f, minimizers = ps.path_distance
    if f == 0:
        return CheckReport("lemma1", inst, "vacuous")
    n_counts = ps.n_counts
    ell = ps.paths[0].length
    rhs = lemma1_rhs(ps.k, ell, n_counts[: ps.k - 2])
    lhs = Fraction(ps.graph.n)
    if lhs >= rhs:
        return CheckReport("lemma1", inst, "pass", lhs, rhs)
    return CheckReport(
        "lemma1",
        inst,
        "fail",
        lhs,
        rhs,
        witness={"f": f, "minimizers": sorted(minimizers), "n_counts": list(n_counts)},
    )


def check_lemma2(ps: PathSystem) -> CheckReport:
    """(some host has t' = 1) implies f = 0.

    f = 0 makes the implication hold outright (pass); with f > 0 the
    contrapositive demands t' >= 2 on every host, and an all-t'-ge-2 instance
    never exercises the antecedent (vacuous).
    """
    _require_certified(ps, "lemma2")
    if ps.k < 3:
        raise UsageError(f"lemma2 needs k >= 3, got {ps.k}")
    inst = instance_id(ps)
    tprimes = list(ps.t_primes)
    f, minimizers = ps.path_distance
    if f == 0:
        return CheckReport(
            "lemma2", inst, "pass", Fraction(0), Fraction(0),
            witness={"t_prime": tprimes},
        )
    if min(tprimes) >= 2:
        return CheckReport("lemma2", inst, "vacuous", witness={"t_prime": tprimes})
    return CheckReport(
        "lemma2",
        inst,
        "fail",
        Fraction(f),
        Fraction(0),
        witness={"t_prime": tprimes, "f": f, "minimizers": sorted(minimizers)},
    )


def _lemma3_constant(k: int) -> Fraction:
    """The constant c of Lemma 3, (k - 1)/2; Corollary 1 sharpens it to 1 at k = 4."""
    return Fraction(k - 1, 2)


def check_lemma3(ps: PathSystem) -> list[CheckReport]:
    """Both parts of the X1..X^{k-2} lemma; returns [part (i), part (ii)] reports."""
    _require_certified(ps, "lemma3")
    if ps.k < 3:
        raise UsageError(f"lemma3 needs k >= 3, got {ps.k}")
    return _check_good_path_bounds(ps, _lemma3_constant(ps.k), "lemma3i", "lemma3ii")


def check_corollary1(ps: PathSystem) -> list[CheckReport]:
    """The k = 4 sharpening: f <= |V(Q)| - 1 and |X^1 u X^2| >= t'(f - 1)."""
    _require_certified(ps, "corollary1")
    if ps.k != 4:
        raise UsageError(f"corollary1 needs k = 4 exactly, got {ps.k}")
    return _check_good_path_bounds(ps, Fraction(1), "cor1i", "cor1ii")


def _check_good_path_bounds(
    ps: PathSystem, c: Fraction, id_i: str, id_ii: str
) -> list[CheckReport]:
    """(i) f <= c(|V(Q)| - 1) for every good Q on every host, and
    (ii) |X^1 u ... u X^{k-2}| >= t'(f/c - 1) for every host.

    With c = cn/cd and cn > 0 both verdicts compare integers: (i) is
    f*cd <= cn*m with m = |V(Q)| - 1, and (ii) is gap >= 0 with
    gap = |X|*cn - t'(f*cd - cn), which is cn times lhs - rhs.  Fractions are
    built only for the report fields.  Both parts read the per-host
    summaries (least |V(Q)|, t', |X|); the GoodPath lists are read only to
    name the Q of a failing part (i).
    """
    k = ps.k
    inst = instance_id(ps)
    f, _ = ps.path_distance
    cn, cd = c.numerator, c.denominator
    fcd = f * cd
    least = [s.min_vertices for s in ps.good_summaries if s.min_vertices is not None]

    if not least:
        rep_i = CheckReport(id_i, inst, "vacuous")
    else:
        min_m = min(least) - 1
        if fcd <= cn * min_m:
            rep_i = CheckReport(id_i, inst, "pass", Fraction(f), min_m * c)
        else:
            # the first failing Q in host order, then subpath order
            h, q = next(
                (h, q)
                for h in range(k)
                for q in ps.good_paths(h)
                if fcd > cn * (q.n_vertices - 1)
            )
            rep_i = CheckReport(
                id_i, inst, "fail", Fraction(f), (q.n_vertices - 1) * c,
                witness={"host": h, "subpath": [q.start, q.end]},
            )

    sizes = ps.x_low_sizes
    tps = ps.t_primes
    gaps = [size * cn - tp * (fcd - cn) for size, tp in zip(sizes, tps)]
    # a failure names the first failing host; a pass, the first with least gap
    h_fail = next((h for h in range(k) if gaps[h] < 0), None)
    h = min(range(k), key=gaps.__getitem__) if h_fail is None else h_fail
    lhs, rhs = Fraction(sizes[h]), Fraction(tps[h] * (fcd - cn), cn)
    if h_fail is None:
        rep_ii = CheckReport(id_ii, inst, "pass", lhs, rhs)
    else:
        rep_ii = CheckReport(
            id_ii, inst, "fail", lhs, rhs,
            witness={"host": h, "t_prime": tps[h], "f": f},
        )
    return [rep_i, rep_ii]


def check_theorem(ps: PathSystem) -> CheckReport:
    """f(G, P) <= theorem_bound(k, n), exact rationals."""
    _require_certified(ps, "theorem check")
    if ps.k < 3:
        raise UsageError(f"theorem check needs k >= 3, got {ps.k}")
    inst = instance_id(ps)
    check_id = theorem_check_id(ps.k)
    f, minimizers = ps.path_distance
    parts = theorem_bound_parts(ps.k, ps.graph.n)
    bound = theorem_bound(ps.k, ps.graph.n)
    lhs = Fraction(f)
    witness_base = {
        "bound_general": frac_str(parts["general"]),
        "bound_k4": frac_str(parts["k4"]),
    }
    if lhs <= bound:
        return CheckReport(check_id, inst, "pass", lhs, bound, witness=witness_base)
    return CheckReport(
        check_id,
        inst,
        "fail",
        lhs,
        bound,
        witness={**witness_base, "f": f, "minimizers": sorted(minimizers)},
    )


def run_checks(ps: PathSystem, checks: Sequence[str]) -> list[CheckReport]:
    """Run those of the named checks that apply to a system of ps.k members.

    Reports come in DEFAULT_CHECKS order whatever the order of checks.
    """
    reports = []
    if ps.k < 3:
        return reports
    if "lemma1" in checks:
        reports.append(check_lemma1(ps))
    if "lemma2" in checks:
        reports.append(check_lemma2(ps))
    if "lemma3" in checks:
        reports.extend(check_lemma3(ps))
    if "cor1" in checks and ps.k == 4:
        reports.extend(check_corollary1(ps))
    if "theorem" in checks:
        reports.append(check_theorem(ps))
    return reports


def common_vertex_verdicts(k: int, checks: Sequence[str]) -> list[tuple[str, str]]:
    """(check id, status) of each lemma check among checks that run_checks
    reports on any certified system of k members with a common vertex, in
    DEFAULT_CHECKS order; "theorem" is left to the caller.

    Proof.  Let every member hold the vertex c.  Then c's distance sum is 0,
    so f = 0: lemma1 is vacuous and lemma2 passes, by their definitions.  On
    every host, the single vertex c is a good subpath: it lies on every
    other member, and k >= 3 leaves two of them to serve as its ends i != j.
    So each host's least |V(Q)| is 1, and part (i) of Lemma 3 and of
    Corollary 1 reads f = 0 <= c(1 - 1) = 0.  With f = 0, part (ii)'s gap
    |X|*cn - t'(f*cd - cn) is |X|*cn + t'*cn >= 0.  Both parts pass.
    """
    pairs: list[tuple[str, str]] = []
    if k < 3:
        return pairs
    if "lemma1" in checks:
        pairs.append(("lemma1", "vacuous"))
    if "lemma2" in checks:
        pairs.append(("lemma2", "pass"))
    if "lemma3" in checks:
        pairs += [("lemma3i", "pass"), ("lemma3ii", "pass")]
    if "cor1" in checks and k == 4:
        pairs += [("cor1i", "pass"), ("cor1ii", "pass")]
    return pairs


# ---------------------------------------------------------------------------
# proof surgery


@dataclass(frozen=True)
class SurgeryTrace:
    """Concrete replay of the proofs' path construction on one instance."""

    host_index: int
    q_start: int
    q_end: int
    pair: tuple[int, int]
    u: int
    v: int
    r_vertices: tuple[int, ...]
    x: int
    u2: int
    v2: int
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    s3: tuple[int, ...]
    segment_lengths: tuple[int, int, int]
    segment_bounds: tuple[Fraction, Fraction, Fraction]
    r_direction: int  # +1 toward the stored P1 orientation end, -1 otherwise

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "host": self.host_index,
            "q": [self.q_start, self.q_end],
            "pair": list(self.pair),
            "u": self.u,
            "v": self.v,
            "r": list(self.r_vertices),
            "x": self.x,
            "u2": self.u2,
            "v2": self.v2,
            "s1": list(self.s1),
            "s2": list(self.s2),
            "s3": list(self.s3),
            "segment_lengths": list(self.segment_lengths),
            "segment_bounds": [frac_str(b) for b in self.segment_bounds],
            "r_direction": self.r_direction,
        }


def _shortest_to_set_on_path(p: Path, u: int, target_mask: int) -> Optional[tuple[list[int], int]]:
    """Shortest subpath of p from u to a vertex of target_mask, walked along p.

    Returns (vertex list from u to the hit, direction) or None when neither
    direction reaches the target.  Ties go toward p's canonical end.
    """
    seq = p.vertices
    pos = seq.index(u)
    toward_canonical_end = 1 if seq[0] <= seq[-1] else -1
    hits = []
    for direction in (1, -1):
        i = pos
        while 0 <= i < len(seq):
            if target_mask >> seq[i] & 1:
                hits.append((abs(i - pos), direction, i))
                break
            i += direction
    if not hits:
        return None
    hits.sort(key=lambda h: (h[0], -h[1] * toward_canonical_end))
    _, direction, stop = hits[0]
    idx = range(pos, stop + 1) if direction == 1 else range(pos, stop - 1, -1)
    return [seq[t] for t in idx], direction


def surgery_trace(
    ps: PathSystem, host_index: Optional[int] = None
) -> tuple[Optional[SurgeryTrace], CheckReport]:
    """Replay the proof surgery; check segment inequalities on certified systems.

    Uncertified systems run in relaxed mode: S1-S3 are still required to be
    paths of G, but the length inequalities are not asserted.  host_index
    overrides the minimizing-host rule (useful for hand-built fixtures).
    """
    if ps.k < 3:
        raise UsageError(f"surgery needs k >= 3, got {ps.k}")
    inst = instance_id(ps)
    g = ps.graph
    k = ps.k
    if host_index is not None and not 0 <= host_index < k:
        raise UsageError(f"host index {host_index} out of range")
    certified = ps.longest_certified
    f, _ = ps.path_distance
    if certified and f == 0:
        return None, CheckReport("surgery", inst, "vacuous", witness={"f": 0})

    if host_index is not None:
        host = host_index
    else:
        # the first host of least |X^1 u ... u X^{k-2}|
        host = min(range(k), key=ps.x_low_sizes.__getitem__)
    host_path = ps.paths[host]
    goods = ps.good_paths(host)

    # unit = f/c, with Corollary 1's c = 1 at k = 4 and Lemma 3's c otherwise
    unit = Fraction(f) if k == 4 else f / _lemma3_constant(k)
    bounds3 = (unit, unit + 1, unit)

    for q in goods:
        for (i, j) in q.witness_pairs:
            u = host_path.vertices[q.start]
            v = host_path.vertices[q.end]
            p1, p2 = ps.paths[i], ps.paths[j]
            r = _shortest_to_set_on_path(p1, u, p2.mask)
            if r is None:
                continue
            r_seq, r_dir = r
            x = r_seq[-1]
            seq2 = list(p2.vertices)
            if seq2.index(v) > seq2.index(x):
                seq2.reverse()
            pos_v = seq2.index(v)
            pos_x = seq2.index(x)
            q_rev = list(host_path.vertices[q.start : q.end + 1][::-1])  # v..u
            q_fwd = list(host_path.vertices[q.start : q.end + 1])  # u..v
            s1 = list(reversed(seq2[pos_v:])) + q_rev[1:] + r_seq[1:-1]
            s2 = seq2[: pos_v + 1] + q_rev[1:] + r_seq[1:] + seq2[pos_x + 1 :]
            s3 = seq2[: pos_x + 1] + r_seq[::-1][1:] + q_fwd[1:-1]
            if not (is_path(g, s1) and is_path(g, s2) and is_path(g, s3)):
                continue
            seg_lengths = (
                pos_v,  # |V(u2 P2 v)| - 1
                pos_x - pos_v,  # |V(v P2 x)| - 1
                len(seq2) - 1 - pos_x,  # |V(x P2 v2)| - 1
            )
            trace = SurgeryTrace(
                host_index=host,
                q_start=q.start,
                q_end=q.end,
                pair=(i, j),
                u=u,
                v=v,
                r_vertices=tuple(r_seq),
                x=x,
                u2=seq2[0],
                v2=seq2[-1],
                s1=tuple(s1),
                s2=tuple(s2),
                s3=tuple(s3),
                segment_lengths=seg_lengths,
                segment_bounds=bounds3,
                r_direction=r_dir,
            )
            if not certified:
                return trace, CheckReport(
                    "surgery", inst, "pass", witness={"mode": "relaxed"}
                )
            ell = host_path.length
            star_lhs = Fraction(ell)
            star_rhs = 3 * unit + 1
            ok = all(
                Fraction(sl) >= sb for sl, sb in zip(seg_lengths, bounds3)
            ) and star_lhs >= star_rhs
            if ok:
                return trace, CheckReport("surgery", inst, "pass", star_lhs, star_rhs)
            return trace, CheckReport(
                "surgery",
                inst,
                "fail",
                star_lhs,
                star_rhs,
                witness={
                    "f": f,
                    "segment_lengths": list(seg_lengths),
                    "segment_bounds": [frac_str(b) for b in bounds3],
                    "trace": trace.to_json(),
                },
            )
    return None, CheckReport(
        "surgery",
        inst,
        "vacuous",
        witness={"reason": "construction inapplicable", "f": f},
    )
