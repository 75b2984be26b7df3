"""Robust out-expansion certification and sparse-cut search.

The two sides of the structural dichotomy for dense digraphs: either a
digraph has an alpha-sparse cut (few edges forward across an ordered
bipartition) or every moderately sized vertex set S has a large robust
out-neighborhood (vertices receiving at least ceil(nu*n) edges from S).

Exact certification and exact cut search enumerate all 2^n subsets, which
stays affordable up to n = 24: each subset splits into a low half (the
first ceil(n/2) vertices) and a high half, per-half tables are built once,
and a block of consecutive high halves is evaluated against every low half
at once with integer numpy kernels. The cut sweep adds per-half
"out-degree minus internal edges" sums and subtracts the half-to-half edge
counts, whose rows within a block follow by doubling; the expander sweep
assembles each robust out-neighbourhood as a union of ANDs of per-half
vertex masks (L_k: at least k in-neighbours in the low half, H_k: in the
high half). Both report exactly what a set-by-set sweep in ascending mask
order would. Above the cap both directions degrade honestly: sampled
certification can only return a violator or "inconclusive", and cut
search becomes seeded local search whose empty result is flagged
non-exhaustive.

The above-cap paths share one 0/1 out-adjacency matrix A of the digraph.
For a 0/1 matrix S whose rows are vertex sets, (S @ A)[i, v] counts the
in-neighbours of v in set i: thresholding those counts gives every
sampled robust out-neighbourhood at once, and summing them over the
complement of each set gives every cut start's forward edge count. The
hill climbs of one cut search run in lockstep, one row per climb of a
k x n int16 matrix of per-vertex gains (out-neighbours in X2 minus
in-neighbours in X1), offset so that every X1 entry lies below every X2
entry: each step takes every live climb's best move out of X1 with one
row-wise argmin and its best move into X1 with one argmax, and a move of
v updates its row with row v plus column v of A. A climb leaves the batch
when it stops. All three give exactly the results of set-by-set loops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .bitset import bit_list, bits_of, int_ceil, int_floor, mask_of
from .digraph import (Digraph, degree_profile, row_masks, set_rows,
                      strongly_connected_components)
from .errors import CapabilityError, InputError, PreconditionError

EXACT_SWEEP_CAP = 24

_POP16 = None


def _pop16():
    global _POP16
    if _POP16 is None:
        t = np.arange(1 << 16, dtype=np.uint32)
        t = (t & 0x5555) + ((t >> 1) & 0x5555)
        t = (t & 0x3333) + ((t >> 2) & 0x3333)
        t = (t & 0x0F0F) + ((t >> 4) & 0x0F0F)
        t = (t & 0x00FF) + ((t >> 8) & 0x00FF)
        _POP16 = t.astype(np.uint8)
    return _POP16


def _popcount_u32(a: np.ndarray) -> np.ndarray:
    p = _pop16()
    return p[a & 0xFFFF] + p[a >> 16]


# Each step of the exact sweeps handles 2**_BLOCK_BITS consecutive high
# halves at once. Larger blocks cut interpreter overhead but not numpy
# work; at n = 24 this size keeps each sweep's peak allocation under 1 MiB.
_BLOCK_BITS = 3


def _half_counts(masks: list[int], bits: int, dtype=np.uint8) -> np.ndarray:
    """Row v: popcount(s & masks[v]) for every subset s of a half."""
    subs = np.arange(1 << bits, dtype=np.uint32)
    tab = np.empty((len(masks), 1 << bits), dtype=dtype)
    for v, m in enumerate(masks):
        tab[v] = _popcount_u32(subs & m)
    return tab


def _at_least(tab: np.ndarray, k: int) -> np.ndarray:
    """Vertex mask, per column s, of the rows v with tab[v][s] >= k."""
    out = np.zeros(tab.shape[1], dtype=np.uint32)
    for v, row in enumerate(tab):
        out |= (row >= k).astype(np.uint32) << np.uint32(v)
    return out


# Above the cap, vertex sets are 0/1 rows and the digraph is its 0/1
# out-adjacency matrix; int16 holds every count up to N_MAX = 4096. Sets
# are multiplied in chunks of _ROW_CHUNK rows, which bounds the temporary
# matrices and lets certification stop at the chunk with the first violator.
_ROW_CHUNK = 256


def _adjacency(g: Digraph) -> np.ndarray:
    """Out-adjacency matrix: entry [u, v] is 1 iff u -> v."""
    return set_rows(g.out_adj, g.n).astype(np.int16)


def _row_chunks(masks: list[int], adj: np.ndarray):
    """Yield (offset, rows, counts) per chunk of masks, where rows holds the
    sets as 0/1 rows and counts = rows @ adj, i.e. counts[i, v] is the
    number of in-neighbours of v in set i.

    einsum multiplies int16 matrices with vectorised sum-of-products
    loops, single-threaded and exact; matmul has no fast path for integer
    types and is several times slower."""
    for i in range(0, len(masks), _ROW_CHUNK):
        rows = set_rows(masks[i:i + _ROW_CHUNK], adj.shape[0]).astype(np.int16)
        yield i, rows, np.einsum("iu,uv->iv", rows, adj)


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
class ExpansionParams:
    nu: float
    tau: float
    mode: str = "auto"            # exact | sampled | auto
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.nu < 1:
            raise InputError(f"nu must be in (0,1), got {self.nu}")
        if not 0 < self.tau < 0.5:
            raise InputError(f"tau must be in (0,1/2), got {self.tau}")
        if self.mode not in ("exact", "sampled", "auto"):
            raise InputError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class ExpansionVerdict:
    outcome: str                  # expander | violator | inconclusive
    mode: str                     # exact | sampled
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

    pc_lo = _popcount_u32(np.arange(1 << n1, dtype=np.uint32)).astype(np.int16)
    pc_hi = _popcount_u32(np.arange(1 << n2, dtype=np.uint32)).astype(np.int16)
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
            rn_size = _popcount_u32(rn.ravel()[cand]).astype(np.int16)
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


def _prefix_masks(g: Digraph, orders: int) -> list[int]:
    """Proper prefixes of the condensation order, then of the first
    `orders` degree orders: out-degree descending, in-degree descending,
    out-degree ascending, in-degree ascending (ties to the smaller vertex)."""
    n = g.n
    masks: list[int] = []
    acc = 0
    for comp in strongly_connected_components(g)[:-1]:
        acc |= comp
        masks.append(acc)
    prof = degree_profile(g)
    keys = ((-1, prof.out_degrees), (-1, prof.in_degrees),
            (1, prof.out_degrees), (1, prof.in_degrees))
    for sign, deg in keys[:orders]:
        acc = 0
        for v in sorted(range(n), key=lambda u: (sign * deg[u], u))[:-1]:
            acc |= 1 << v
            masks.append(acc)
    return masks


# Sampled certification draws this many random sets at each of ten sizes
# spread over the size window.
_SAMPLES_PER_DECILE = 64


def _sampled_candidates(g: Digraph, lo: int, hi: int, seed: int) -> list[int]:
    n = g.n
    rng = random.Random(seed)
    cands: list[int] = []
    # random sets at a spread of sizes
    for dec in range(10):
        size = lo + (hi - lo) * dec // 9 if hi > lo else lo
        for _ in range(_SAMPLES_PER_DECILE):
            cands.append(mask_of(rng.sample(range(n), size)))
    # structured prefixes, within the size window
    return cands + [s for s in _prefix_masks(g, 3) if lo <= s.bit_count() <= hi]


def certify_expander(g: Digraph, p: ExpansionParams) -> ExpansionVerdict:
    """Certify g as a robust (nu,tau)-outexpander or exhibit a violator.

    Exact mode sweeps every subset with tau*n <= |S| <= (1-tau)*n and is
    capped at n = 24. Sampled mode probes _SAMPLES_PER_DECILE random sets
    per size decile plus condensation and degree-order prefixes; finding
    no violator is reported as inconclusive, never as a certificate. The
    candidates are multiplied by the adjacency matrix a chunk at a time:
    |RN(S)| is the number of entries of S's row of counts that reach
    ceil(nu*n), and the first candidate in order with
    |RN(S)| < |S| + ceil(nu*n) is the violator, checked_sets its position.
    """
    mode = p.mode
    if mode == "auto":
        mode = "exact" if g.n <= EXACT_SWEEP_CAP else "sampled"
    if mode == "exact":
        if g.n > EXACT_SWEEP_CAP:
            raise CapabilityError(
                f"exact certification capped at n={EXACT_SWEEP_CAP}, got {g.n}")
        return _exact_expander_sweep(g, p.nu, p.tau)
    lo, hi = _size_bounds(g.n, p.tau)
    if lo > hi:
        return ExpansionVerdict("expander", "sampled", p.nu, p.tau, 0)
    thr = max(1, int_ceil(p.nu * g.n))
    cands = _sampled_candidates(g, lo, hi, p.seed)
    for i, rows, counts in _row_chunks(cands, _adjacency(g)):
        rn_size = (counts >= thr).sum(axis=1)
        set_size = rows.sum(axis=1)
        bad = np.flatnonzero(rn_size < set_size + thr)
        if bad.size:
            j = int(bad[0])
            return ExpansionVerdict(
                "violator", "sampled", p.nu, p.tau, i + j + 1,
                violator=cands[i + j], rn_size=int(rn_size[j]),
                set_size=int(set_size[j]))
    return ExpansionVerdict("inconclusive", "sampled", p.nu, p.tau, len(cands))


@dataclass(frozen=True)
class CutCertificate:
    side1: int            # vertex mask X1; forward direction is X1 -> X2
    side2: int
    e_forward: int
    alpha_achieved: float
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "cut": bit_list(self.side1),
            "e_forward": self.e_forward,
            "alpha_achieved": self.alpha_achieved,
            "exact": self.exact,
        }


@dataclass(frozen=True)
class CutSearchResult:
    found: bool
    certificate: CutCertificate | None
    best: CutCertificate | None       # best-ratio cut seen regardless of alpha
    near_misses: tuple[CutCertificate, ...]
    mode: str                         # exact | heuristic
    climb_moves: int = 0              # accepted hill-climb moves, all climbs
    climb_steps: int = 0              # lockstep steps of the climbs


def _cut_ratio(e_fwd: int, s1: int, s2: int) -> float:
    return e_fwd / (s1 * s2)


def _half_sums(outdeg: list[int], out_adj: list[int], in_adj: list[int]) -> np.ndarray:
    """f[s] = out-degree sum over s minus the edges inside s, for every
    subset s of one half, by doubling over the half's bits (the adjacency
    masks are shifted so that bit j is the half's vertex j)."""
    f = np.zeros(1 << len(outdeg), dtype=np.int16)
    for j, d in enumerate(outdeg):
        subs = np.arange(1 << j, dtype=np.uint32)
        touch = (_popcount_u32(subs & out_adj[j]).astype(np.int16)
                 + _popcount_u32(subs & in_adj[j]))
        f[1 << j:2 << j] = f[:1 << j] + (d - touch)
    return f


def _exact_cut_sweep(g: Digraph) -> tuple[int, int, float]:
    """Minimum-ratio cut over all 2^n - 2 ordered bipartitions.

    Returns (mask of X1, e_forward, ratio), smallest mask on ties. With X1
    split into a low half s_lo and a high half s_hi,
    e+(X1, V\\X1) = f_lo[s_lo] + f_hi[s_hi] - X[s_hi, s_lo], where f_half
    is out-degree sum minus internal edges and X[s_hi, s_lo] sums, over w
    in s_hi, the edges T_w[s_lo] between w and s_lo in either direction.
    A block of consecutive high halves is evaluated at once: its first row
    of X sums T_w over the block's fixed high bits, and the other rows
    follow by doubling, rows[2^j:2^(j+1)] = rows[:2^j] + T_j. The best
    ratio is replaced only on strict improvement, block by block.
    """
    n = g.n
    n1 = (n + 1) // 2
    n2 = n - n1
    lo_mask = (1 << n1) - 1
    outdeg = [a.bit_count() for a in g.out_adj]
    out_lo = [a & lo_mask for a in g.out_adj]
    in_lo = [a & lo_mask for a in g.in_adj]
    f_lo = _half_sums(outdeg[:n1], out_lo, in_lo)
    f_hi = _half_sums(outdeg[n1:], [a >> n1 for a in g.out_adj[n1:]],
                      [a >> n1 for a in g.in_adj[n1:]])
    # T_w for w in the high half
    cross = _half_counts(out_lo[n1:], n1, np.int16)
    cross += _half_counts(in_lo[n1:], n1)
    pc_lo = _popcount_u32(np.arange(1 << n1, dtype=np.uint32)).astype(np.intp)
    pc_hi = _popcount_u32(np.arange(1 << n2, dtype=np.uint32)).astype(np.intp)
    # row c: |X1|*|X2| for every s_lo when |s_hi| = c; the empty and the
    # full set get 1 here and are masked out below
    prod = np.array([k * (n - k) or 1 for k in range(n + 1)], dtype=np.float64)
    denom = np.empty((n2 + 1, 1 << n1))
    for c in range(n2 + 1):
        denom[c] = prod[pc_lo + c]

    # int16 holds every count: at n = 24, f_half <= 12*23 and X <= 2*12*12
    bb = min(_BLOCK_BITS, n2)
    blk = 1 << bb
    rows = np.empty((blk, 1 << n1), dtype=np.int16)
    ratio = np.empty((blk, 1 << n1))
    best_ratio = np.inf
    best_mask = 0
    best_e = 0
    for b0 in range(0, 1 << n2, blk):
        rows[0] = 0
        for w in bits_of(b0):
            rows[0] += cross[w]
        for j in range(bb):
            np.add(rows[:1 << j], cross[j], out=rows[1 << j:2 << j])
        np.subtract(f_hi[b0:b0 + blk, None], rows, out=rows)
        rows += f_lo
        # ratio holds |X1|*|X2| until the division
        np.take(denom, pc_hi[b0:b0 + blk], axis=0, out=ratio, mode="clip")
        np.divide(rows, ratio, out=ratio)
        if b0 == 0:
            ratio[0, 0] = np.inf
        if b0 + blk == 1 << n2:
            ratio[-1, -1] = np.inf
        i = int(np.argmin(ratio))
        r, s_lo = divmod(i, 1 << n1)
        if ratio[r, s_lo] < best_ratio - 1e-15:
            best_ratio = float(ratio[r, s_lo])
            best_mask = ((b0 + r) << n1) | s_lo
            best_e = int(rows[r, s_lo])
    return best_mask, best_e, best_ratio


# Heuristic cut search climbs from _RESTARTS random cuts besides its
# structured starts, and reports at most _NEAR_MISS_CAP near misses. A
# climb stops after _CLIMB_STEP_CAP accepted moves.
_RESTARTS = 32
_NEAR_MISS_CAP = 8
_CLIMB_STEP_CAP = 10_000
# Key offset of the lockstep climbs: above every |gain| <= N_MAX - 1, and
# small enough that every key fits int16.
_KEY_OFFSET = 1 << 13


def _hill_climbs(adj: np.ndarray,
                 starts: list[int]) -> tuple[list[tuple[int, int, float, int]], int]:
    """Steepest-descent single-vertex moves on the forward-density ratio,
    one climb per start, all run in lockstep.

    Returns, per start, (X1, e_forward, ratio, accepted moves), and the
    number of lockstep steps. gain[v] is the number of out-neighbours of v
    in X2 minus its in-neighbours in X1, so moving v changes e_forward by
    -gain[v] from X1 and by +gain[v] from X2; moving v changes every gain
    by +-(row v + column v of adj). Each climb is one row of the int16
    matrix key = -(OFF + gain) on X1 and OFF - gain on X2: every X1 key is
    below every X2 key, so the row's argmin is the best move out of X1 and
    its argmax the best move into X1, both ties to the smallest vertex.
    The move with the smaller new ratio wins (ties to the smaller vertex),
    a move that would empty a side gets ratio inf, and the move is taken
    only if it beats the current ratio by more than 1e-15. numpy's float64
    division of these integers gives the same float as Python's int / int.
    A climb that stops, or reaches _CLIMB_STEP_CAP moves, leaves the batch.
    """
    n = adj.shape[0]
    out: list = [None] * len(starts)
    if not starts:
        return out, 0
    # a move of v subtracts row v (out of X1) or row n + v (into X1) of
    # step from the key: +-(row v + column v of adj), with the diagonal
    # entry moving v's own key across the offset
    step = np.empty((2 * n, n), dtype=np.int16)
    sym = np.add(adj, adj.T, out=step[:n])
    np.negative(sym, out=step[n:])
    outdeg = adj.sum(axis=1)
    rows = set_rows(starts, n).astype(np.int16)
    gain = outdeg.astype(np.int16) - np.einsum("iu,uv->iv", rows, sym)
    key = np.int16(_KEY_OFFSET) * (1 - 2 * rows) - gain
    # sum over X1 of out-degree + gain = 2 * e_forward
    e = (rows @ outdeg + (rows * gain).sum(axis=1)) // 2
    s1 = rows.sum(axis=1)
    ratio = e / (s1 * (n - s1))
    del rows, gain
    diag = np.arange(n)
    step[diag, diag] = -2 * _KEY_OFFSET
    step[n + diag, diag] = 2 * _KEY_OFFSET
    # |X1| * |X2| after a move out of (into) X1, by the current |X1|; 1
    # stands in for the 0 of a move that would empty a side
    size = np.arange(n + 1)
    d_out = np.maximum((size - 1) * (n - size + 1), 1)
    d_in = np.maximum((size + 1) * (n - size - 1), 1)
    live = np.arange(len(starts))
    base = live * n
    # a move's new e_forward is eo + key out of X1 and eo - key into X1
    eo = e + _KEY_OFFSET
    steps = moves = 0

    def leave(keep: np.ndarray):
        gone = np.flatnonzero(~keep)
        masks = row_masks(key[gone] < 0)
        for j, x1 in zip(gone, masks):
            out[live[j]] = (x1, int(eo[j]) - _KEY_OFFSET, float(ratio[j]), moves)

    while moves < _CLIMB_STEP_CAP:
        steps += 1
        v_out = key.argmin(axis=1)
        v_in = key.argmax(axis=1)
        flat = key.ravel()
        ne_out = eo + flat[base + v_out]
        ne_in = eo - flat[base + v_in]
        r_out = np.where(s1 > 1, ne_out / d_out[s1], np.inf)
        r_in = np.where(s1 < n - 1, ne_in / d_in[s1], np.inf)
        take_out = (r_out < r_in) | ((r_out == r_in) & (v_out < v_in))
        r = np.where(take_out, r_out, r_in)
        ok = r < ratio - 1e-15
        if not ok.all():
            leave(ok)
            live, key, s1 = live[ok], key[ok], s1[ok]
            v_out, v_in, take_out = v_out[ok], v_in[ok], take_out[ok]
            ne_out, ne_in, r = ne_out[ok], ne_in[ok], r[ok]
            base = np.arange(live.size) * n
            if not live.size:
                break
        moves += 1
        key -= step[np.where(take_out, v_out, v_in + n)]
        eo = np.where(take_out, ne_out, ne_in) + _KEY_OFFSET
        s1 = np.where(take_out, s1 - 1, s1 + 1)
        ratio = r
    if live.size:
        leave(np.zeros(live.size, dtype=bool))
    return out, steps


def find_sparse_cut(g: Digraph, alpha: float, seed: int = 0,
                    hints: tuple[int, ...] = ()) -> CutSearchResult:
    """Hunt a cut (X1, X2) with e+(X1,X2) <= alpha*|X1|*|X2|.

    Exact sweep up to n = 24 (so an empty result is a proof of absence);
    beyond that, seeded local search from condensation prefixes, degree
    prefixes, hint masks, and _RESTARTS random balanced cuts drawn from
    seed. Every prefix start is evaluated at once from its row of S @ A (A
    the adjacency matrix): its forward edges are the counts on its
    complement. The restart sets are drawn first, then one lockstep batch
    climbs from the hints, the 8 best prefix starts and the restarts; the
    results are considered in that order, after the prefix starts.
    climb_moves sums the accepted moves of all climbs, climb_steps counts
    the lockstep steps (at most the longest climb's moves plus one). Up to _NEAR_MISS_CAP near misses within a
    factor 2 of alpha are reported for diagnostics.
    """
    if g.n < 2:
        raise PreconditionError("cuts need at least 2 vertices")
    if g.n <= EXACT_SWEEP_CAP:
        mask, e, ratio = _exact_cut_sweep(g)
        cert = CutCertificate(mask, g.vertex_mask & ~mask, e, ratio, True)
        found = ratio <= alpha + 1e-12
        near = () if found or ratio > 2 * alpha else (cert,)
        return CutSearchResult(found, cert if found else None, cert, near, "exact")

    rng = random.Random(seed)
    n = g.n
    adj = _adjacency(g)
    best: tuple[float, int, int] | None = None   # ratio, mask, e
    near: list[CutCertificate] = []

    def consider(x1: int, e: int, ratio: float):
        nonlocal best
        if best is None or ratio < best[0] - 1e-15 or (abs(ratio - best[0]) <= 1e-15 and x1 < best[1]):
            best = (ratio, x1, e)
        if alpha < ratio <= 2 * alpha and len(near) < _NEAR_MISS_CAP:
            near.append(CutCertificate(x1, g.vertex_mask & ~x1, e, ratio, False))

    # structured starts are proper, non-empty prefixes; the comprehension
    # frees the last chunk's matrices before the climbs allocate theirs
    prefixes = _prefix_masks(g, 4)
    fwd = [e for _, rows, counts in _row_chunks(prefixes, adj)
           for e in (counts * (1 - rows)).sum(axis=1, dtype=np.int64).tolist()]
    starts = [(s, e, _cut_ratio(e, s.bit_count(), n - s.bit_count()))
              for s, e in zip(prefixes, fwd)]
    for s, e, ratio in starts:
        consider(s, e, ratio)
    # climb from the hints, the most promising structured starts, then
    # random restarts
    starts.sort(key=lambda start: start[2])
    climbs = [h & g.vertex_mask for h in hints] + [s for s, _, _ in starts[:8]]
    for _ in range(_RESTARTS):
        size = rng.randint(max(1, n // 4), max(1, 3 * n // 4))
        climbs.append(mask_of(rng.sample(range(n), size)))
    results, steps = _hill_climbs(
        adj, [x1 for x1 in climbs if 0 < x1 < g.vertex_mask])
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


def sparse_or_expander(g: Digraph, eta: float, alpha: float, tau: float,
                       seed: int = 0) -> DichotomyResult:
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
    exact = n <= EXACT_SWEEP_CAP
    cut_res = find_sparse_cut(g, alpha)
    if cut_res.found:
        return DichotomyResult("cut", nu, tau, alpha, cut_res.certificate, None, cut_res.mode == "exact")
    mode = "exact" if exact else "sampled"
    verdict = certify_expander(g, ExpansionParams(nu=nu, tau=tau, mode=mode, seed=seed))
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
