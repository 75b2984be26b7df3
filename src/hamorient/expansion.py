"""Robust out-expansion certification and sparse-cut search.

The two sides of the structural dichotomy for dense digraphs: either a
digraph has an alpha-sparse cut (few edges forward across an ordered
bipartition) or every moderately sized vertex set S has a large robust
out-neighborhood (vertices receiving at least ceil(nu*n) edges from S).

Certification first tries a degree bound: with t = ceil(nu*n), a set S
of size s has in RN(S) every vertex of in-degree at least n - s + t,
and, counting the edges S sends, at least
ceil((D(s) - n(t-1)) / (s - t + 1)) vertices, D(s) the sum of the s
smallest out-degrees. If either count reaches s + t for every size in
the window, no set can violate, and the verdict is a certificate of
mode "degree" that checked no set. Otherwise exact certification, like
exact cut search, enumerates all 2^n subsets, which stays affordable up
to n = 24: each subset splits into a low half (the first ceil(n/2)
vertices) and a high half, per-half tables are built once, and a block
of consecutive high halves is evaluated against every low half at once
with integer numpy kernels. The cut sweep adds per-half "out-degree
minus internal edges" sums and subtracts the half-to-half edge counts,
whose rows within a block follow by doubling; with the low halves
ordered by size, one np.minimum.reduceat per block gives each row's
fewest forward edges at each size of X1, and only those minima are
divided into ratios. The
expander sweep assembles each robust out-neighbourhood as a union of
ANDs of per-half vertex masks (L_k: at least k in-neighbours in the low
half, H_k: in the high half). Both report exactly what a set-by-set
sweep in ascending mask order would. Above the cap both directions
degrade honestly: where the bound fails, sampled certification can only
return a violator or "inconclusive", and cut search becomes
deterministic local search from prefix and hint starts, whose empty
result is flagged non-exhaustive.

Above the cap both paths probe the proper prefixes of the same vertex
orders, the condensation order and degree orders (_orders), and walk
each order once. Cut search adds v to a prefix S with
d+(v) - |N+(v) & S| - |N-(v) & S| forward edges; certification adds row
v of the 0/1 out-adjacency matrix A to S's vector of in-counts, whose
entries that reach ceil(nu*n) are RN(S). Either way a prefix costs O(n),
with no n x n product. A hill climb keeps one int16 vector of per-vertex
gains (out-neighbours in X2 minus in-neighbours in X1), offset so that
every X1 entry lies below every X2 entry: each step takes the best move
out of X1 with one argmin and the best move into X1 with one argmax, and
a move of v adds or subtracts row v of A + A^T. The climbs of one search
run one after another. All of these give exactly the results of
set-by-set loops.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .bitset import bit_list, bits_of, int_ceil, int_floor, mask_of
from .digraph import (Digraph, degree_profile, set_rows,
                      strongly_connected_components)
from .errors import InputError, PreconditionError

EXACT_SWEEP_CAP = 24

# Each step of the exact sweeps handles 2**_BLOCK_BITS consecutive high
# halves at once. Larger blocks cut interpreter overhead but not numpy
# work; at n = 24 this size keeps the traced peak allocation at 875 KiB
# for the expander sweep and 466 KiB for the cut sweep.
_BLOCK_BITS = 5


def _half_counts(masks: list[int], bits: int, dtype=np.uint8) -> np.ndarray:
    """Row v: popcount(s & masks[v]) for every subset s of a half."""
    subs = np.arange(1 << bits, dtype=np.uint32)
    tab = np.empty((len(masks), 1 << bits), dtype=dtype)
    for v, m in enumerate(masks):
        tab[v] = np.bitwise_count(subs & m)
    return tab


def _at_least(tab: np.ndarray, k: int) -> np.ndarray:
    """Vertex mask, per column s, of the rows v with tab[v][s] >= k."""
    out = np.zeros(tab.shape[1], dtype=np.uint32)
    for v, row in enumerate(tab):
        out |= (row >= k).astype(np.uint32) << np.uint32(v)
    return out


def _adjacency(g: Digraph) -> np.ndarray:
    """Out-adjacency matrix: entry [u, v] is 1 iff u -> v; int16 holds
    every count up to N_MAX = 4096."""
    return set_rows(g.out_adj, g.n).astype(np.int16)


def robust_out_neighborhood(g: Digraph, s: int, nu: float) -> int:
    """Vertices receiving at least ceil(nu*n) edges from the set s.

    The threshold is integral and at least 1 for any positive nu, so the
    test is monotone in s.
    """
    if nu <= 0 or nu >= 1:
        raise InputError(f"nu must be in (0,1), got {nu}")
    thr = max(1, int_ceil(nu * g.n))
    out = 0
    for v in range(g.n):
        if (g.in_adj[v] & s).bit_count() >= thr:
            out |= 1 << v
    return out


@dataclass(frozen=True)
class ExpansionVerdict:
    outcome: str                  # expander | violator | inconclusive
    mode: str                     # exact | degree | sampled
    nu: float
    tau: float
    checked_sets: int
    violator: int | None = None   # vertex mask of the violating S
    rn_size: int | None = None
    set_size: int | None = None

    def to_json_dict(self) -> dict:
        d = {
            "outcome": self.outcome,
            "params": {"nu": self.nu, "tau": self.tau},
            "counts": {"checked_sets": self.checked_sets},
            "mode": self.mode,
        }
        if self.violator is not None:
            d["set"] = bit_list(self.violator)
            d["counts"]["set_size"] = self.set_size
            d["counts"]["rn_size"] = self.rn_size
        return d


def _size_bounds(n: int, tau: float) -> tuple[int, int]:
    return max(1, int_ceil(tau * n)), int_floor((1 - tau) * n)


def _degree_bound_certifies(g: Digraph, nu: float, tau: float) -> bool:
    """True when degrees alone force |RN(S)| >= |S| + t for every S in the
    size window, t = max(1, ceil(nu*n)); integers only.

    For |S| = s, each of the A(s) vertices with in-degree at least
    n - s + t has t in-neighbours in S. S sends at least D(s) edges, the
    sum of the s smallest out-degrees, and a vertex receives at most s of
    them if it is in RN(S) and at most t - 1 if not, so for s >= t
    |RN(S)| >= B(s) = ceil((D(s) - n(t-1)) / (s - t + 1)).
    """
    n = g.n
    t = max(1, int_ceil(nu * n))
    lo, hi = _size_bounds(n, tau)
    indeg = sorted(a.bit_count() for a in g.in_adj)
    d = [0, *accumulate(sorted(a.bit_count() for a in g.out_adj))]
    for s in range(lo, hi + 1):
        a = n - bisect_left(indeg, n - s + t)
        b = -((n * (t - 1) - d[s]) // (s - t + 1)) if s >= t else 0
        if max(a, b) < s + t:
            return False
    return True


def _exact_expander_sweep(g: Digraph, nu: float, tau: float) -> ExpansionVerdict:
    """Sweep every S with lo <= |S| <= hi in ascending mask order.

    S splits into a low half s_lo (the first ceil(n/2) vertices) and a
    high half s_hi. Vertex v has at least thr in-neighbours in S exactly
    when tab_lo[v][s_lo] >= k and tab_hi[v][s_hi] >= thr - k for some k,
    so RN(S) is the union over k of L_k[s_lo] & H_(thr-k)[s_hi], where
    L_k and H_k are uint32 vertex masks. A block of consecutive high
    halves is evaluated at once; popcounts are taken only where RN(S) is
    not all of V or |S| > n - thr, since elsewhere S cannot violate. The
    first violator in mask order is reported, and checked_sets counts the
    eligible sets up to and including the violator's high half.
    """
    n = g.n
    thr = max(1, int_ceil(nu * n))
    lo, hi = _size_bounds(n, tau)
    if lo > hi or n == 0:
        return ExpansionVerdict("expander", "exact", nu, tau, 0)
    n1 = (n + 1) // 2
    n2 = n - n1
    lo_mask = (1 << n1) - 1
    tab_lo = _half_counts([a & lo_mask for a in g.in_adj], n1)
    tab_hi = _half_counts([a >> n1 for a in g.in_adj], n2)
    # L_0 and H_0 are all of V, so the terms k = thr and k = 0 are L_thr
    # and H_thr; the terms in between need both halves.
    l_thr = _at_least(tab_lo, thr)
    h_thr = _at_least(tab_hi, thr)[:, None]
    mids = [(_at_least(tab_lo, k), _at_least(tab_hi, thr - k)[:, None])
            for k in range(max(1, thr - n2), min(thr - 1, n1) + 1)]
    del tab_lo, tab_hi
    full = np.uint32((1 << n) - 1)

    pc_lo = np.bitwise_count(np.arange(1 << n1, dtype=np.uint32)).astype(np.int16)
    pc_hi = np.bitwise_count(np.arange(1 << n2, dtype=np.uint32)).astype(np.int16)
    # row c: which s_lo give an eligible |S| when |s_hi| = c, and how many
    hi_size = np.arange(n2 + 1, dtype=np.int16)[:, None]
    elig = (pc_lo >= lo - hi_size) & (pc_lo <= hi - hi_size)
    elig_count = elig.sum(axis=1)

    blk = 1 << min(_BLOCK_BITS, n2)
    rn = np.empty((blk, 1 << n1), dtype=np.uint32)
    checked = 0
    for b0 in range(0, 1 << n2, blk):
        c = pc_hi[b0:b0 + blk]
        np.bitwise_or(l_thr, h_thr[b0:b0 + blk], out=rn)
        for l_k, h_k in mids:
            rn |= l_k & h_k[b0:b0 + blk]
        # S with RN(S) = V can violate only if |S| > n - thr
        cand = rn != full
        cand |= pc_lo > n - thr - c[:, None]
        cand &= elig[c]
        cand = np.flatnonzero(cand)
        if cand.size:
            r, s_lo = np.divmod(cand, 1 << n1)
            set_size = pc_lo[s_lo] + c[r]
            rn_size = np.bitwise_count(rn.ravel()[cand]).astype(np.int16)
            bad = rn_size < set_size + thr
            if bad.any():
                j = int(np.argmax(bad))
                row = b0 + int(r[j])
                checked += int(elig_count[c[:r[j] + 1]].sum())
                return ExpansionVerdict(
                    "violator", "exact", nu, tau, checked,
                    violator=(row << n1) | int(s_lo[j]),
                    rn_size=int(rn_size[j]), set_size=int(set_size[j]))
        checked += int(elig_count[c].sum())
    return ExpansionVerdict("expander", "exact", nu, tau, checked)


def _orders(g: Digraph,
            degree_orders: int) -> list[tuple[list[int], range | list[int]]]:
    """The vertex orders whose prefixes the above-cap paths probe, each
    with the prefix lengths it keeps, in probe order.

    First the condensation order without its last component, keeping the
    prefixes that end a component; then the first `degree_orders` of
    out-degree descending, in-degree descending, out-degree ascending and
    in-degree ascending (ties to the smaller vertex), without the last
    vertex, keeping every prefix."""
    prof = degree_profile(g)
    comps = strongly_connected_components(g)[:-1]
    orders = [([v for c in comps for v in bit_list(c)],
               list(accumulate(c.bit_count() for c in comps)))]
    keys = ((-1, prof.out_degrees), (-1, prof.in_degrees),
            (1, prof.out_degrees), (1, prof.in_degrees))
    for sign, deg in keys[:degree_orders]:
        orders.append((sorted(range(g.n), key=lambda u: (sign * deg[u], u))[:-1],
                       range(1, g.n)))
    return orders


def _prefixes(g: Digraph, degree_orders: int) -> list[tuple[int, int]]:
    """(S, e+(S, V \\ S)) for the kept prefixes S of _orders(g,
    degree_orders), in order.

    Each order is walked once. Adding v to S adds its out-edges that
    leave S + v and drops the edges from S into v, which no longer cross:
    d+(v) - |N+(v) & S| - |N-(v) & S| (no loops, so v is in neither)."""
    out_adj, in_adj = g.out_adj, g.in_adj
    outdeg = [a.bit_count() for a in out_adj]
    found = []
    for order, ends in _orders(g, degree_orders):
        s = e = 0
        walked = []
        for v in order:
            e += (outdeg[v] - (out_adj[v] & s).bit_count()
                  - (in_adj[v] & s).bit_count())
            s |= 1 << v
            walked.append((s, e))
        found += [walked[end - 1] for end in ends]
    return found


def _sampled_verdict(g: Digraph, nu: float, tau: float) -> ExpansionVerdict:
    """Probe the kept prefixes of _orders(g, 3) whose size lies in the
    window for a violator.

    Each order is walked once with the in-counts of its prefix S: adding
    v to S adds row v of the out-adjacency matrix, and |RN(S)| is the
    number of counts that reach ceil(nu*n), O(n) per prefix. The first
    prefix with |RN(S)| < |S| + ceil(nu*n) is the violator, checked_sets
    its position among the probed prefixes. Finding none reads
    inconclusive, never expander."""
    lo, hi = _size_bounds(g.n, tau)
    thr = max(1, int_ceil(nu * g.n))
    adj = set_rows(g.out_adj, g.n)
    checked = 0
    for order, ends in _orders(g, 3):
        counts = np.zeros(g.n, dtype=np.int16)
        size = 0
        for end in ends:
            if end > hi:
                break
            if end < lo:
                continue
            for v in order[size:end]:
                counts += adj[v]
            size = end
            checked += 1
            rn_size = int(np.count_nonzero(counts >= thr))
            if rn_size < size + thr:
                return ExpansionVerdict(
                    "violator", "sampled", nu, tau, checked,
                    violator=mask_of(order[:size]), rn_size=rn_size,
                    set_size=size)
    return ExpansionVerdict("inconclusive", "sampled", nu, tau, checked)


def certify_expander(g: Digraph, nu: float, tau: float,
                     exact_threshold: int = EXACT_SWEEP_CAP) -> ExpansionVerdict:
    """Certify g as a robust (nu,tau)-outexpander or exhibit a violator.

    First tries the degree bound of _degree_bound_certifies: when it
    holds, the verdict is expander with mode "degree" and checked_sets 0,
    since no set was checked. Otherwise a host of at most exact_threshold
    vertices (0..24) has every subset in the window
    tau*n <= |S| <= (1-tau)*n swept, and a larger one is probed by
    _sampled_verdict over the in-window condensation and degree-order
    prefixes, where finding no violator reads inconclusive, never a
    certificate.
    """
    if not 0 < nu < 1:
        raise InputError(f"nu must be in (0,1), got {nu}")
    if not 0 < tau < 0.5:
        raise InputError(f"tau must be in (0,1/2), got {tau}")
    if not 0 <= exact_threshold <= EXACT_SWEEP_CAP:
        raise InputError(f"exact_threshold must lie in 0..{EXACT_SWEEP_CAP}, "
                         f"got {exact_threshold}")
    if _degree_bound_certifies(g, nu, tau):
        return ExpansionVerdict("expander", "degree", nu, tau, 0)
    if g.n <= exact_threshold:
        return _exact_expander_sweep(g, nu, tau)
    return _sampled_verdict(g, nu, tau)


@dataclass(frozen=True)
class CutCertificate:
    side1: int            # vertex mask X1; forward direction is X1 -> X2
    side2: int
    e_forward: int
    alpha_achieved: float
    exact: bool


@dataclass(frozen=True)
class CutSearchResult:
    found: bool
    certificate: CutCertificate | None
    best: CutCertificate | None       # best-ratio cut seen regardless of alpha
    near_misses: tuple[CutCertificate, ...]
    mode: str                         # exact | heuristic
    climb_moves: int = 0              # accepted hill-climb moves, all climbs
    climb_steps: int = 0              # steps of the longest climb


def _cut_ratio(e_fwd: int, s1: int, s2: int) -> float:
    return e_fwd / (s1 * s2)


def _half_sums(outdeg: list[int], out_adj: list[int], in_adj: list[int]) -> np.ndarray:
    """f[s] = out-degree sum over s minus the edges inside s, for every
    subset s of one half, by doubling over the half's bits (the adjacency
    masks are shifted so that bit j is the half's vertex j)."""
    f = np.zeros(1 << len(outdeg), dtype=np.int16)
    for j, d in enumerate(outdeg):
        subs = np.arange(1 << j, dtype=np.uint32)
        touch = (np.bitwise_count(subs & out_adj[j]).astype(np.int16)
                 + np.bitwise_count(subs & in_adj[j]))
        f[1 << j:2 << j] = f[:1 << j] + (d - touch)
    return f


def _exact_cut_sweep(g: Digraph) -> tuple[int, int, float]:
    """Minimum-ratio cut over all 2^n - 2 ordered bipartitions.

    Returns (mask of X1, e_forward, ratio), smallest mask on ties. With X1
    split into a low half s_lo and a high half s_hi,
    e+(X1, V\\X1) = f_lo[s_lo] + f_hi[s_hi] - X[s_hi, s_lo], where f_half
    is out-degree sum minus internal edges and X[s_hi, s_lo] sums, over w
    in s_hi, the edges T_w[s_lo] between w and s_lo in either direction.
    The low halves are ordered by size (a stable sort, so each size group
    is ascending), and a block of consecutive high halves is evaluated at
    once: its first row holds f_lo - X for the block's fixed high bits,
    and the other rows follow by doubling,
    rows[2^j:2^(j+1)] = rows[:2^j] - T_j. All cuts in one row and size
    group share |X1| * |X2|, so only the group minima (np.minimum.reduceat)
    plus f_hi are divided. The best ratio is replaced only on strict
    improvement, block by block; the winning row alone then gives the
    smallest s_lo among its tied groups.
    """
    n = g.n
    n1 = (n + 1) // 2
    n2 = n - n1
    lo_mask = (1 << n1) - 1
    outdeg = [a.bit_count() for a in g.out_adj]
    out_lo = [a & lo_mask for a in g.out_adj]
    in_lo = [a & lo_mask for a in g.in_adj]
    pc_lo = np.bitwise_count(np.arange(1 << n1, dtype=np.uint32))
    order = np.argsort(pc_lo, kind="stable")
    starts = np.searchsorted(pc_lo[order], np.arange(n1 + 2))
    f_lo = _half_sums(outdeg[:n1], out_lo, in_lo)[order]
    f_hi = _half_sums(outdeg[n1:], [a >> n1 for a in g.out_adj[n1:]],
                      [a >> n1 for a in g.in_adj[n1:]])
    # T_w for w in the high half, in the same column order
    cross = _half_counts(out_lo[n1:], n1, np.int16)
    cross += _half_counts(in_lo[n1:], n1)
    cross = cross[:, order]
    pc_hi = np.bitwise_count(np.arange(1 << n2, dtype=np.uint32)).astype(np.intp)
    # [|s_hi|, |s_lo|]: |X1|*|X2|; the empty and the full set get 1 here
    # and ratio inf below
    size = np.arange(n2 + 1)[:, None] + np.arange(n1 + 1)
    denom = np.maximum(size * (n - size), 1)

    # int16 holds every count: at n = 24, f_half <= 12*23 and X <= 2*12*12
    bb = min(_BLOCK_BITS, n2)
    blk = 1 << bb
    rows = np.empty((blk, 1 << n1), dtype=np.int16)
    best_ratio = np.inf
    best_mask = 0
    best_e = 0
    for b0 in range(0, 1 << n2, blk):
        rows[0] = f_lo
        for w in bits_of(b0):
            rows[0] -= cross[w]
        for j in range(bb):
            np.subtract(rows[:1 << j], cross[j], out=rows[1 << j:2 << j])
        e = np.minimum.reduceat(rows, starts[:-1], axis=1)
        e += f_hi[b0:b0 + blk, None]
        ratio = e / denom[pc_hi[b0:b0 + blk]]
        if b0 == 0:
            ratio[0, 0] = np.inf
        if b0 + blk == 1 << n2:
            ratio[-1, -1] = np.inf
        r, c = divmod(int(np.argmin(ratio)), n1 + 1)
        if ratio[r, c] < best_ratio - 1e-15:
            best_ratio = float(ratio[r, c])
            # a size group lists its s_lo ascending, so its first minimum
            # is its smallest cut; the smallest over the tied groups wins
            s_lo, c = min(
                (int(order[starts[k] + np.argmin(rows[r, starts[k]:starts[k + 1]])]), k)
                for k in np.flatnonzero(ratio[r] == best_ratio))
            best_mask = ((b0 + r) << n1) | s_lo
            best_e = int(e[r, c])
    return best_mask, best_e, best_ratio


# Heuristic cut search reports at most _NEAR_MISS_CAP near misses. A
# climb stops after _CLIMB_STEP_CAP accepted moves.
_NEAR_MISS_CAP = 8
_CLIMB_STEP_CAP = 10_000
# Key offset of the climbs: above every |gain| <= N_MAX - 1, and small
# enough that every key fits int16.
_KEY_OFFSET = 1 << 13


def _hill_climbs(adj: np.ndarray,
                 starts: list[int]) -> tuple[list[tuple[int, int, float, int]], int]:
    """Steepest-descent single-vertex moves on the forward-density ratio,
    one climb per start, each run to its end before the next starts.

    Returns, per start, (X1, e_forward, ratio, accepted moves), and the
    steps of the longest climb: its moves plus the step that finds no
    move left, at most _CLIMB_STEP_CAP. gain[v] is the number of
    out-neighbours of v in X2 minus its in-neighbours in X1, so moving v
    changes e_forward by -gain[v] from X1 and by +gain[v] from X2, and
    every gain by +-(row v + column v of adj). A climb keeps one int16 key
    vector, -(OFF + gain) on X1 and OFF - gain on X2: every X1 key is
    below every X2 key, so its argmin is the best move out of X1 and its
    argmax the best move into X1, both ties to the smallest vertex. The
    move with the smaller new ratio wins (ties to the smaller vertex), a
    move that would empty a side gets ratio inf, and the move is taken
    only if it beats the current ratio by more than 1e-15. A climb stops
    after _CLIMB_STEP_CAP moves.
    """
    n = adj.shape[0]
    sym = adj + adj.T
    outdeg = adj.sum(axis=1, dtype=np.int16)
    out = []
    steps = 0
    for x1 in starts:
        side = set_rows([x1], n)[0].astype(bool)
        gain = outdeg - sym[side].sum(axis=0, dtype=np.int16)
        key = np.where(side, -(_KEY_OFFSET + gain), _KEY_OFFSET - gain)
        # sum over X1 of out-degree + gain = 2 * e_forward
        e = int(outdeg[side].sum() + gain[side].sum()) // 2
        s1 = x1.bit_count()
        ratio = e / (s1 * (n - s1))
        moves = 0
        while moves < _CLIMB_STEP_CAP:
            v_out, v_in = int(key.argmin()), int(key.argmax())
            e_out = e + _KEY_OFFSET + int(key[v_out])
            e_in = e + _KEY_OFFSET - int(key[v_in])
            r_out = e_out / ((s1 - 1) * (n - s1 + 1)) if s1 > 1 else np.inf
            r_in = e_in / ((s1 + 1) * (n - s1 - 1)) if s1 < n - 1 else np.inf
            # sign +1 moves v out of X1, -1 into X1
            if r_out < r_in or (r_out == r_in and v_out < v_in):
                r, v, e_new, sign = r_out, v_out, e_out, 1
            else:
                r, v, e_new, sign = r_in, v_in, e_in, -1
            if not r < ratio - 1e-15:
                break
            # every key moves by -+(row v of sym), and v's own key crosses
            # the offset
            key -= sign * sym[v]
            key[v] += sign * 2 * _KEY_OFFSET
            x1 ^= 1 << v
            e, s1, ratio = e_new, s1 - sign, r
            moves += 1
        out.append((x1, e, ratio, moves))
        steps = max(steps, min(moves + 1, _CLIMB_STEP_CAP))
    return out, steps


def find_sparse_cut(g: Digraph, alpha: float,
                    hints: tuple[int, ...] = ()) -> CutSearchResult:
    """Hunt a cut (X1, X2) with e+(X1,X2) <= alpha*|X1|*|X2|.

    Exact sweep up to n = 24 (so an empty result is a proof of absence);
    beyond that, local search from condensation prefixes, degree prefixes
    and hint masks, whose forward edge counts come from the prefix walk of
    _prefixes. Climbs start from the hints, then the 8 best prefix
    starts, and their results are considered in that order after the
    prefix starts. Above minimum degree n a sparse cut shows in the
    degree orders: the side sending few edges forward must make up its
    degree by receiving edges. climb_moves sums the accepted moves of all
    climbs, climb_steps counts the steps of the longest climb (its moves
    plus one, at most _CLIMB_STEP_CAP). Up to _NEAR_MISS_CAP near misses
    within a factor 2 of alpha are reported for diagnostics.
    """
    if g.n < 2:
        raise PreconditionError("cuts need at least 2 vertices")
    if not alpha >= 0:
        raise InputError(f"alpha must be a number >= 0, got {alpha}")
    if g.n <= EXACT_SWEEP_CAP:
        mask, e, ratio = _exact_cut_sweep(g)
        cert = CutCertificate(mask, g.vertex_mask & ~mask, e, ratio, True)
        found = ratio <= alpha + 1e-12
        near = () if found or ratio > 2 * alpha else (cert,)
        return CutSearchResult(found, cert if found else None, cert, near, "exact")

    n = g.n
    best: tuple[float, int, int] | None = None   # ratio, mask, e
    near: list[CutCertificate] = []

    def consider(x1: int, e: int, ratio: float):
        nonlocal best
        if best is None or ratio < best[0] - 1e-15 or (abs(ratio - best[0]) <= 1e-15 and x1 < best[1]):
            best = (ratio, x1, e)
        if alpha < ratio <= 2 * alpha and len(near) < _NEAR_MISS_CAP:
            near.append(CutCertificate(x1, g.vertex_mask & ~x1, e, ratio, False))

    # structured starts are proper, non-empty prefixes
    starts = [(s, e, _cut_ratio(e, s.bit_count(), n - s.bit_count()))
              for s, e in _prefixes(g, 4)]
    for s, e, ratio in starts:
        consider(s, e, ratio)
    # climb from the hints, then the most promising structured starts
    starts.sort(key=lambda start: start[2])
    climbs = [h & g.vertex_mask for h in hints] + [s for s, _, _ in starts[:8]]
    results, steps = _hill_climbs(
        _adjacency(g), [x1 for x1 in climbs if 0 < x1 < g.vertex_mask])
    for *cut, _ in results:
        consider(*cut)

    assert best is not None
    ratio, mask, e = best
    cert = CutCertificate(mask, g.vertex_mask & ~mask, e, ratio, False)
    found = ratio <= alpha + 1e-12
    return CutSearchResult(found, cert if found else None, cert, tuple(near),
                           "heuristic", sum(r[3] for r in results), steps)


@dataclass(frozen=True)
class DichotomyResult:
    kind: str                       # "cut" | "expander" | "unresolved" (sampled only)
    nu: float
    tau: float
    alpha: float
    cut: CutCertificate | None
    verdict: ExpansionVerdict | None
    exact: bool


def sparse_or_expander(g: Digraph, eta: float, alpha: float,
                       tau: float) -> DichotomyResult:
    """Either an alpha-sparse cut or a robust (nu,tau)-outexpander verdict,
    with nu := alpha*tau*eta/4.

    Requires min total degree at least (1+eta)n. Below the exact cap both
    branches are exhaustive, so exactly one of the two outcomes is always
    produced; a simultaneous exact no-cut and exact violator would
    contradict the dichotomy theorem and raises.
    """
    n = g.n
    if not 0 < tau < 0.5:
        raise InputError(f"tau must be in (0,1/2), got {tau}")
    prof = degree_profile(g)
    need = (1 + eta) * n
    if prof.min_total < need - 1e-9:
        raise PreconditionError(
            f"min degree {prof.min_total} below (1+eta)n = {need:.2f}")
    nu = alpha * tau * eta / 4
    cut_res = find_sparse_cut(g, alpha)
    exact = cut_res.mode == "exact"
    if cut_res.found:
        return DichotomyResult("cut", nu, tau, alpha, cut_res.certificate, None, exact)
    verdict = certify_expander(g, nu, tau)
    if verdict.outcome == "violator" and exact:
        raise RuntimeError(
            "dichotomy violated: exact sweep found neither an alpha-sparse cut "
            "nor a robust outexpander; this indicates an implementation bug")
    if verdict.outcome == "violator":
        # heuristic cut search missed; retry seeded from the violator before
        # conceding an unresolved answer
        s = verdict.violator
        rn = robust_out_neighborhood(g, s, nu)
        retry = find_sparse_cut(g, alpha, hints=(s, s | rn, g.vertex_mask & ~rn))
        if retry.found:
            return DichotomyResult("cut", nu, tau, alpha, retry.certificate, verdict, False)
        return DichotomyResult("unresolved", nu, tau, alpha, None, verdict, False)
    return DichotomyResult("expander", nu, tau, alpha, None, verdict, exact)
