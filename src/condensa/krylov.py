"""Sparse direct factorizations, preconditioned CG/MINRES, and pencils.

factor_spd factors an SPD matrix in the order it is given.  Large ones
(SUPERNODAL_MIN rows on) go to SupernodalCholesky, a supernodal
multifrontal Cholesky in numpy that reads its elimination tree off the
matrix pattern, assembles its groups of equal-height fronts in batches
(a whole group, or the fronts of a large group one by one) with
vectorized scatters, frees each update matrix once its parent has taken
it, factors each front with LAPACK, and solves with batched products
over the groups; smaller ones, and minimum-degree orders, to SuperLU.
Its peak memory is known from the symbolic phase, before anything is
allocated.

Stopping rule for both Krylov drivers: relative preconditioned residual
sqrt(r' P^-1 r) / sqrt(r0' P^-1 r0) <= tol, zero initial guess.  Kernel
deflation projects the declared null vectors out of the right-hand side
and out of every operator application, keeping iterates orthogonal to
them.
"""

from __future__ import annotations

import itertools
import math
import mmap
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "KrylovReport",
    "NotSymmetricPositiveDefinite",
    "factor_spd",
    "SupernodalCholesky",
    "InsufficientMemory",
    "SUPERNODAL_MIN",
    "cg",
    "minres",
    "generalized_eigs",
    "DENSE_MAX",
    "ARPACK_MAXITER",
    "ARPACK_TOL_TOP",
    "ARPACK_TOL_BOTTOM",
    "KERNEL_SHIFT",
]

# largest pencil dimension for dense eigh: generalized_eigs switches to ARPACK
# above it (except for mode="full").  scripts/eig_crossover.py times both on
# the probe, lifting and full pencils at 2D n=4-8, k=2 (2 CPUs, best of 3,
# dense/ARPACK seconds by size):
#   345 aux_coercivity "extreme" 0.008/0.013, inf_sup "min" 0.009/0.008
#   390 condensed_velocity "extreme" 0.012/0.013
#   399 lifting and darcy_lifting_vs_aux "max" 0.012/0.006-0.007
#   408 stokes_lifting "max" 0.011/0.009
#   504 aux_coercivity "extreme" 0.015/0.018, inf_sup "min" 0.018/0.010
#   528 lifting and darcy_lifting_vs_aux "max" 0.020-0.021/0.007-0.009
#   576 condensed_velocity "extreme" 0.024/0.019
#   600 Darcy full pencil "magnitude" 0.026/0.029
#   624 ch_coercivity "extreme" 0.031/0.016
#   888 Stokes full pencil "magnitude" 0.068/0.029
# and ARPACK 1.4-14x faster from 645 to 3600.  spectra2d (seed 3, six
# alternating pairs) read wall_s 0.647 s at 400 against 0.667 s at 600,
# lower in 5 of 6
DENSE_MAX = 400

# cap on the restarts of each ARPACK solve; every solve of acceptance
# criteria 6-8 converges within 100, and at 30 the regular-mode "magnitude"
# top of the Darcy full pencil at 2D n=8 (size 2448) runs out
ARPACK_MAXITER = 1000

# relative Ritz residual ||A v - theta B v|| / |theta| that each ARPACK end
# must reach, sized to the accuracy the constants are reported to (the
# tests check them to 1e-8 against dense eigh).  For a symmetric pencil
# the Ritz value is off by about the squared residual over the gap to the
# next eigenvalue, so each end needs less than machine precision, which
# can be out of reach when the wanted end is a cluster.
#
# The top of "max" and "extreme" is a shift-invert solve for theta =
# 1 / (lambda - sigma) with sigma just above the spectrum, whose wanted
# theta is the largest in magnitude; it converges on a clustered top
# (the Darcy full pencil at 2D n=4 and 8, xi=1e-6, gamma=1e4), where the
# regular-mode solve did not.  At 1e-8 every top value of acceptance
# criteria 6-8 (n <= 16) stayed within 8e-15 of its 1e-12 value.  The
# "magnitude" top is a regular-mode "LM" solve, whose gap can be small
ARPACK_TOL_TOP = 1e-8
# The bottom (shift-invert) solves for theta = 1 / (lambda - sigma), whose
# wanted values are the largest and well apart relative to their size.  At
# 1e-6 every bottom value of criteria 6-8 stayed within 1.9e-13 of its
# 1e-12 value
ARPACK_TOL_BOTTOM = 1e-6

# the shift above the top: a regular-mode estimate est of the largest
# eigenvalue to a relative residual of SHIFT_EST_TOL (a Ritz value, so
# est <= lambda_max), then sigma = est + delta * max(|est|, max_i |A_ii /
# B_ii|) for delta = SHIFT_GAP, SHIFT_GAP * SHIFT_GROWTH, ... until sigma B
# - A has a Cholesky-like factor, at most SHIFT_TRIES times (a delta of up
# to 164): the factor certifies sigma > lambda_max and is the solve of the
# shift-invert step
SHIFT_EST_TOL = 1e-2
SHIFT_GAP = 1e-2
SHIFT_GROWTH = 4.0
SHIFT_TRIES = 8

# the shift-invert solve for the eigenvalues nearest zero factors A - sigma B
# at sigma = -KERNEL_SHIFT * max_i |A_ii / B_ii|, never at 0: with a declared
# kernel A is singular, and a shift of 0 returned c_i of the monolithic
# Stokes pencil (2D, nu=1e-6) 85% off at n=4 and 65% off at n=6
KERNEL_SHIFT = 1e-8

# an eigenvalue at most KERNEL_RTOL times the largest |eigenvalue| counts as
# a kernel eigenvalue: declared ones are dropped, undeclared ones rejected
KERNEL_RTOL = 1e-7


class NotSymmetricPositiveDefinite(np.linalg.LinAlgError):
    pass


@dataclass
class KrylovReport:
    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)

    @property
    def final_relative(self) -> float:
        """The last relative residual; 0.0 when there is none (a zero
        right-hand side converges at once)."""
        return self.residuals[-1] if self.residuals else 0.0

    def write_csv(self, path) -> None:
        """Residual history as `iteration,residual` lines."""
        with open(path, "w") as fh:
            fh.write("iteration,residual\n")
            for i, r in enumerate(self.residuals, start=1):
                fh.write(f"{i},{r!r}\n")


def _as_csc(S):
    if sp.issparse(S):
        return S.tocsc()
    return sp.csc_matrix(np.asarray(S))


class Factor:
    """SuperLU factor of an SPD matrix."""

    def __init__(self, lu):
        self._lu = lu

    @property
    def fill(self) -> int:
        """Stored entries of the factor: both triangles."""
        return int(self._lu.L.nnz + self._lu.U.nnz)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=float))


def _ranges(starts, counts):
    """Concatenation of arange(s, s + c) over paired starts and counts."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.repeat(np.asarray(starts, dtype=np.int64) - np.cumsum(counts) + counts,
                     counts) + np.arange(counts.sum())


def _elimination_tree(ptr, lower):
    """Liu's elimination tree, with path compression, of the graph whose
    vertex i has the neighbours j < i lower[ptr[i]:ptr[i + 1]]."""
    n = len(ptr) - 1
    parent = [-1] * n
    ancestor = [-1] * n
    for i in range(n):
        for j in lower[ptr[i]:ptr[i + 1]]:
            while True:
                a = ancestor[j]
                if a == i:
                    break
                ancestor[j] = i
                if a == -1:
                    parent[j] = i
                    break
                j = a
    return np.array(parent, dtype=np.int64)


@dataclass
class _Supernodes:
    """Symbolic factorization: supernode s pivots on the dofs
    first[s]:stop[s], its column of L has the sorted rows
    rows[rptr[s]:rptr[s + 1]] (all >= stop[s]), and parent[s] is its parent
    in the elimination tree (-1 at a root), height[s] its distance from
    the leaves.  The columns bptr[b]:bptr[b + 1] of A share one pattern
    (block b), and each supernode is a run of whole blocks."""

    first: np.ndarray
    stop: np.ndarray
    rows: np.ndarray
    rptr: np.ndarray
    parent: np.ndarray
    height: np.ndarray
    bptr: np.ndarray


def _supernodes(A) -> _Supernodes:
    """Supernodes of the Cholesky factor of A (canonical CSC) in the given
    order, read off the pattern of A alone.  Consecutive columns with equal
    patterns form a block (the dofs of one facet or one cell); the
    elimination tree is built on the block graph, and a chain of blocks,
    each the only child of the next, is one fundamental supernode."""
    indptr, indices = A.indptr, A.indices
    lens = np.diff(indptr)
    if not lens.all():
        raise NotSymmetricPositiveDefinite("empty column: matrix is singular")
    # does column c + 1 repeat the pattern of column c?
    nxt = np.minimum(np.arange(indices.size) + np.repeat(lens, lens), indices.size - 1)
    same = ((lens[:-1] == lens[1:])
            & np.logical_and.reduceat(indices[nxt] == indices, indptr[:-1])[:-1])
    bptr = np.flatnonzero(np.concatenate(([True], ~same, [True])))
    nb = bptr.size - 1
    blen = np.diff(bptr)
    block = np.repeat(np.arange(nb), blen)

    # block pairs (c, r), r > c, from each block's first column; its rows
    # ascend, so repeated pairs are adjacent
    lead = bptr[:-1]
    c = np.repeat(np.arange(nb), lens[lead])
    r = block[indices[_ranges(indptr[lead], lens[lead])]]
    keep = r > c
    keep[1:] &= (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    c, r = c[keep], r[keep]
    by_row = np.argsort(r, kind="stable")
    parent = _elimination_tree(np.searchsorted(r[by_row], np.arange(nb + 1)).tolist(),
                               c[by_row].tolist())

    children = np.bincount(parent[parent >= 0], minlength=nb)
    joins = np.zeros(nb, dtype=bool)
    joins[1:] = (parent[:-1] == np.arange(1, nb)) & (children[1:] == 1)
    start = np.flatnonzero(~joins)
    end = np.append(start[1:], nb)
    ns = start.size
    top = parent[end - 1]
    sparent = np.where(top >= 0, (np.cumsum(~joins) - 1)[top], -1)

    # row blocks of each supernode: its own below-diagonal blocks and its
    # children's, children first (parents come later in the order)
    col_ptr = np.searchsorted(c, np.arange(nb + 1)).tolist()
    r = r.tolist()
    kids = [[] for _ in range(ns)]
    for s in np.flatnonzero(sparent >= 0).tolist():
        kids[sparent[s]].append(s)
    struct = [None] * ns
    height = [0] * ns
    for s, (b0, b1) in enumerate(zip(start.tolist(), end.tolist())):
        blocks = set(r[col_ptr[b0]:col_ptr[b1]])
        for k in kids[s]:
            blocks.update(struct[k])
            height[s] = max(height[s], height[k] + 1)
        struct[s] = sorted(b for b in blocks if b >= b1)
    flat = np.fromiter(itertools.chain.from_iterable(struct), dtype=np.int64)
    nrow = np.bincount(np.repeat(np.arange(ns), [len(st) for st in struct]),
                       weights=blen[flat], minlength=ns).astype(np.int64)
    return _Supernodes(bptr[start], bptr[end], _ranges(bptr[flat], blen[flat]),
                       np.concatenate(([0], np.cumsum(nrow))), sparent,
                       np.array(height, dtype=np.int64), bptr)


def _runs(idx, cut):
    """(start, stop, value at start) of each run of consecutive values in
    increasing idx, with no run crossing the value cut."""
    brk = (np.diff(idx) != 1) | (idx[:-1] == cut - 1)
    lo = [0] + (np.flatnonzero(brk) + 1).tolist()
    return list(zip(lo, lo[1:] + [idx.size], idx[lo].tolist()))


def _extend_add(L11, L21, U, X, runs):
    """Add X, on and below its diagonal, into a front at the positions p
    (increasing, given as runs of consecutive values, none crossing np):
    rows and columns p < np into L11 (np x np), the rest of the pivot
    columns into L21 and of the rows into U (both shifted by np).  One
    slice add per pair of runs."""
    Np = L11.shape[0]
    for a, (i0, i1, r) in enumerate(runs):
        for j0, j1, c in runs[:a + 1]:
            if r < Np:
                L11[r:r + i1 - i0, c:c + j1 - j0] += X[i0:i1, j0:j1]
            elif c < Np:
                L21[r - Np:r - Np + i1 - i0, c:c + j1 - j0] += X[i0:i1, j0:j1]
            else:
                U[r - Np:r - Np + i1 - i0, c - Np:c - Np + j1 - j0] += X[i0:i1, j0:j1]


def _scatter_updates(F, row, U, X, k, pos, m1):
    """Add the update matrices X (Q, m, m) into the fronts k (Q,) of a
    batch: row and column i of X[q] go to position pos[q, i] of front k[q],
    the first m1 to pivots.  X[q][:, :m1] goes into the pivot columns,
    whose row p of front g starts at F[row[g, p]], and X[q][m1:, m1:] into
    the batch's update matrices U (B, Nr, Nr), each by one scatter-add over
    whole rectangles: the upper triangle of X is zero and lands in upper
    triangles that no kernel reads."""
    Np = row.shape[1] - U.shape[1]
    Nr = U.shape[1]
    if m1:
        np.add.at(F, (row[k[:, None], pos][:, :, None] + pos[:, None, :m1]).ravel(),
                  X[:, :, :m1].ravel())
    if Nr and m1 < pos.shape[1]:
        u = pos[:, m1:] - Np
        rows = (k[:, None] * Nr + u) * Nr
        np.add.at(U.reshape(-1), (rows[:, :, None] + u[:, None, :]).ravel(),
                  X[:, m1:, m1:].ravel())


# Updates with at least _SLICE_ROWS rows are extend-added one at a time,
# one slice add per pair of runs of their row positions (few in facet
# order), lower triangle only: about 4 us per pair plus 4-7 ns per entry.
# Smaller ones go in per group of origin and count of rows that land on
# pivots, by two scatter-adds over whole squares (the pivot columns, the
# rest), at most _EXTEND_CHUNK entries and as many int64 addresses at a
# time.  At 3D n=8 (2 CPUs, best of 11) thresholds of 64, 128 and 256 rows
# gave the same extend-add time, 0.15-0.17 s: a scatter-add over the
# square costs about what slices over the triangle do.  The same threshold
# sets a group's batch: below it all G fronts in one padded (G, Nr, Nr)
# array, whose last view frees it; from it on one front at a time, each
# keeping its update in an array of its own row count
_SLICE_ROWS = 64
_EXTEND_CHUNK = 1 << 18

# smallest matrix dimension that factor_spd factors by SupernodalCholesky;
# below it SuperLU, in the same order.  Measured on 2 CPUs, factor best of
# 5 and one solve best of 20, SuperLU / supernodal (k=2 S_P; Darcy at
# xi=0.3, gamma=2): 3D Darcy 4032 dofs 0.056 / 0.049 s (medians equal) and
# 1.18 / 0.99 ms, 14256 dofs 0.23 / 0.20 s and 6.8 / 5.0 ms, 34560 dofs
# 1.23 / 0.52 s and 23.2 / 16.8 ms; 2D Darcy 9024 dofs 0.026 / 0.053 s and
# 1.77 / 1.25 ms, 36480 dofs 0.136 / 0.190 s and 12.5 / 7.5 ms; 2D Stokes
# 27456 dofs 0.150 / 0.156 s and 6.4 / 4.9 ms; the block-diagonal
# counterexample S_P, 9024 dofs, 0.003 / 0.029 s and 1.12 / 0.71 ms.  2D
# matrices of this size still factor faster by SuperLU, and the B of the
# probe pencils (2016-2448 dofs, 21-25 groups) factored 6-9x and solved
# 2.3-2.6x slower by the supernodal factor: each group costs a few numpy
# calls per solve.  The crossover has not moved below 8192 in 2D
SUPERNODAL_MIN = 8192


class InsufficientMemory(MemoryError):
    """A factor would need more memory at its peak than is available."""


def _mem_available(meminfo="/proc/meminfo"):
    """MemAvailable of meminfo in bytes, or None where it cannot be read."""
    try:
        with open(meminfo) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


@dataclass
class _Schedule:
    """The order in which SupernodalCholesky builds its fronts.  Supernodes
    of one height in the elimination tree whose pivot and row counts fall
    in the same power-of-two classes form a group, built in one step:
    group gi is order[cuts[gi]:cuts[gi + 1]], its fronts padded to width[gi]
    pivots and rows[gi] rows below them, and supernode s is front slot[s]
    of group group[s].  The children of s are kids[kid_ptr[s]:kid_ptr[s + 1]],
    in increasing order, and the last update of group gi is taken by the
    front at order[last[gi]] (-1 when no member has a parent)."""

    order: np.ndarray
    cuts: np.ndarray
    group: np.ndarray
    slot: np.ndarray
    width: np.ndarray
    rows: np.ndarray
    kids: np.ndarray
    kid_ptr: np.ndarray
    last: np.ndarray


def _schedule(tree: _Supernodes) -> _Schedule:
    npiv, nrow = tree.stop - tree.first, np.diff(tree.rptr)
    shape = np.ceil(np.log2(npiv)) * 64 + np.ceil(np.log2(nrow + 1))
    order = np.lexsort((shape, tree.height))
    key = tree.height[order] * 4096 + shape[order]
    cuts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    group = np.searchsorted(cuts, rank, side="right") - 1
    kids = np.argsort(tree.parent, kind="stable")
    child = np.flatnonzero(tree.parent >= 0)
    last = np.full(cuts.size - 1, -1)
    np.maximum.at(last, group[child], rank[tree.parent[child]])
    return _Schedule(order, cuts, group, rank - cuts[group],
                     np.maximum.reduceat(npiv[order], cuts[:-1]),
                     np.maximum.reduceat(nrow[order], cuts[:-1]), kids,
                     np.searchsorted(tree.parent[kids], np.arange(tree.parent.size + 1)),
                     last)


def _peak_bytes(tree: _Supernodes, plan: _Schedule) -> int:
    """Bytes SupernodalCholesky holds at its peak, from its schedule alone.
    Held throughout: the solve slots (2n int64) and the rows of the
    symbolic factor (one int64 per row of each front).  Then each group's F
    and row slots, kept from that group on, and the padded U of each batch,
    in the batches SupernodalCholesky builds: U holds the batch's updates
    until the last of them has been taken, unless a one-front batch does
    not fill it; the front then keeps its update in an array of its own
    row count until its parent front has taken it, and U serves the next
    front.  The peak is taken at each allocation, with the workspace of
    the largest scatter-add of small updates (an X copy, an entry copy and
    an int64 address per entry, at most _EXTEND_CHUNK entries) while a
    batch takes its children; other index temporaries are not counted."""
    nrow = np.diff(tree.rptr)
    cuts, kids, ptr = plan.cuts.tolist(), plan.kids.tolist(), plan.kid_ptr.tolist()
    Nr, last = plan.rows.tolist(), plan.last.tolist()
    rows, grp = nrow.tolist(), plan.group.tolist()
    held = peak = 16 * int(tree.bptr[-1]) + 8 * int(nrow.sum())
    for gi, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        members = plan.order[a:b].tolist()
        G, Np, R = b - a, int(plan.width[gi]), Nr[gi]
        size = G if R < _SLICE_ROWS else 1
        held += 8 * G * ((Np + R) * Np + R)
        U = 0
        for k0 in range(0, G, size):
            batch = members[k0:k0 + size]
            if not U:
                U = 8 * size * R * R
                held += U
            freed, small = 0, {}
            for s in batch:
                for c in kids[ptr[s]:ptr[s + 1]]:
                    src = grp[c]
                    if Nr[src] >= _SLICE_ROWS:
                        freed += 8 * rows[c] ** 2
                    else:
                        small[src] = small.get(src, 0) + Nr[src] ** 2
            for src in small:
                if last[src] < a + k0 + size:
                    freed += 8 * (cuts[src + 1] - cuts[src]) * Nr[src] ** 2
            peak = max(peak, held + 24 * min(_EXTEND_CHUNK, max(small.values(), default=0)))
            held -= freed
            if size > 1 or rows[batch[0]] == R:
                U = 0               # the batch itself holds the updates
            else:
                held += 8 * rows[batch[0]] ** 2
                peak = max(peak, held)
        held -= U
    return peak


def _mapped_zeros(shape, dtype=float):
    """A zero array in an anonymous memory map of its own, unmapped
    (returned to the system) as soon as the array is freed, and populated
    at once, which costs less than a page fault per page.  The factor
    keeps its update matrices there.  In numpy's own arrays they came from
    the C heap (glibc raises its mmap threshold to the largest block freed,
    up to 32 MB), which kept their pages after they were freed: the factor
    of a 3D n=12 S_P then peaked at 754 MB resident for 586 MB allocated,
    and still held 257 MB it had freed when done; in maps it peaked at
    526 MB.  Every global CSR matrix keeps its data and indices in maps
    too (assembly._triplets_csr)."""
    size = np.dtype(dtype).itemsize * math.prod(shape)
    if not size:
        return np.zeros(shape, dtype)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, size, flags=flags), dtype=dtype).reshape(shape)


def _factor_front(L11, L21, U):
    """Factor one assembled front in place: L11 becomes L11^-1, L21 is
    F21 L11^-T and U takes - L21 L21^T (lower triangle).  Transposed views
    are Fortran-ordered, so LAPACK works in place.  potrf zeroes the other
    triangle, which the solves read as part of L11^-1."""
    _, info = sla.lapack.dpotrf(L11.T, lower=0, clean=1, overwrite_a=1)
    if info:
        raise NotSymmetricPositiveDefinite(
            f"non-positive pivot in a front of size {L11.shape[0]}: matrix is not SPD")
    sla.lapack.dtrtri(L11.T, lower=0, overwrite_c=1)
    sla.blas.dtrmm(1.0, L11.T, L21.T, trans_a=1, overwrite_b=1)
    if U.size:
        sla.blas.dsyrk(-1.0, L21.T, beta=1.0, c=U.T, trans=1, lower=0, overwrite_c=1)


class SupernodalCholesky:
    """Supernodal multifrontal Cholesky A = L L^T in the given order
    (Liu, "The multifrontal method for sparse matrix solution", SIAM
    Review 1992).

    Supernodes of one height in the elimination tree whose pivot and row
    counts fall in the same power-of-two classes form a group.  The fronts
    of a group are padded to one shape (Np pivots, Nr rows below them,
    unit diagonal in the pivot padding).  Their pivot columns are
    assembled in the arrays the factor keeps, L11 (G, Np, Np) and L21
    (G, Nr, Np), and the rest of each front in its update matrix: first
    A's entries, one block of equal-pattern columns at a time, then the
    children's update matrices (see _SLICE_ROWS).  Each front is factored
    in place by four LAPACK/BLAS calls: potrf, whose failure certifies the
    matrix is not SPD, trtri (L11^-1), trmm (L21 = F21 L11^-T) and syrk
    (U - L21 L21^T, lower triangle only).  All four come from scipy: numpy
    loads its own OpenBLAS, with its own threads, and alternating between
    the two libraries group by group (numpy's batched Cholesky and
    products, scipy's trtri and syrk) made the factor 1.6x slower on 2
    CPUs than either library alone.  A batched inverse pays for a general
    LU, and a batched product computes both triangles.

    A group is built in batches of fronts (_SLICE_ROWS): below that many
    rows one batch of all G fronts in a padded U (G, Nr, Nr), from it on G
    batches of one front, each reusing one padded U (1, Nr, Nr) so that
    syrk sees one shape for every front of the group (OpenBLAS rounds a
    smaller square differently).  Each group keeps its updates as a list
    of per-front arrays: views of its batch's U, freed with the last of
    them, or an array of the front's own row count (the buffer itself when
    the front fills it).  A parent front releases each update it takes.
    The schedule fixes every allocation and release before any is made:
    peak_bytes is the factor's predicted peak (see _peak_bytes), and a
    peak beyond the memory available raises InsufficientMemory before any
    front is allocated.

    The factor keeps, per group, L11^-1, L21 and the solve slots of the
    fronts' rows; fill counts the entries of L11^-1 and L21, padding
    included.  A is canonical CSC and only its lower triangle is read; the
    caller's arrays are not written.
    """

    def __init__(self, A):
        tree = _supernodes(A)
        plan = _schedule(tree)
        n = A.shape[0]
        first, bptr = tree.first, tree.bptr
        npiv, nrow = tree.stop - first, np.diff(tree.rptr)
        order, cuts, group, slot, width = plan.order, plan.cuts, plan.group, plan.slot, plan.width
        self.peak_bytes = _peak_bytes(tree, plan)
        available = _mem_available()
        if available is not None and self.peak_bytes > available:
            raise InsufficientMemory(
                f"the supernodal factor of a matrix of size {n} needs "
                f"{self.peak_bytes / 1e6:.0f} MB at its peak; {available / 1e6:.0f} MB "
                "are available")

        base = np.concatenate(([0], np.cumsum(np.diff(cuts) * width)))
        # the solves keep front g of group gi's pivots at base[gi] + g Np,
        # padding included, and one zero row last for padded rows
        self._slot = _ranges(base[group] + slot * width[group], npiv)
        self._zero = int(base[-1])
        slot_of = np.append(self._slot, self._zero)

        # A's entries by blocks: the lead column of a block gives the rows,
        # and the front positions, of all its columns.  Each column keeps
        # its rows from the supernode's first pivot on (above the diagonal
        # they land in the upper triangle of the pivot block, never read)
        indptr, indices, data = A.indptr, A.indices, A.data
        blk0 = np.searchsorted(bptr, first)
        nblk = np.searchsorted(bptr, tree.stop) - blk0
        bwidth, lead = np.diff(bptr), bptr[:-1]
        blen = indptr[lead + 1] - indptr[lead]
        ent = _ranges(indptr[lead], blen)
        cut = np.repeat(np.repeat(first, nblk), blen)
        skip = np.bincount(np.repeat(np.arange(lead.size), blen), weights=indices[ent] < cut,
                           minlength=lead.size).astype(np.int64)
        del ent, cut

        # group -> [the update matrix of each member front, the fronts' rows
        # (padded with n)], dropped once its last member has been taken
        updates = {}

        self.n = n
        self.groups = []
        self.fill = 0
        for gi, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            members = order[a:b]
            G, Np, Nr = b - a, int(width[gi]), int(plan.rows[gi])
            M = Np + Nr
            front = np.full((G, M), n)        # dofs of each front, padding n
            kp = np.repeat(np.arange(G), npiv[members])
            front[kp, _ranges(np.zeros(G), npiv[members])] = _ranges(first[members],
                                                                      npiv[members])
            kr = np.repeat(np.arange(G), nrow[members])
            front[kr, Np + _ranges(np.zeros(G), nrow[members])] = \
                tree.rows[_ranges(tree.rptr[members], nrow[members])]
            # position of dof i in front g: where[searchsorted(keys, g (n+1) + i)]
            valid = front < n
            keys = (np.arange(G)[:, None] * (n + 1) + front)[valid]
            where = np.nonzero(valid)[1]

            # the pivot columns of the fronts are assembled where they are
            # factored: rows p < Np of front g in L11[g], the rest in L21[g];
            # row p of front g starts at F[row[g, p]]
            F = np.zeros(G * M * Np)
            L11, L21 = F[:G * Np * Np].reshape(G, Np, Np), F[G * Np * Np:].reshape(G, Nr, Np)
            p = np.arange(M)
            row = np.where(p < Np, p * Np, G * Np * Np + (p - Np) * Np) \
                + np.arange(G)[:, None] * np.where(p < Np, Np * Np, Nr * Np)
            blocks = _ranges(blk0[members], nblk[members])
            owner = np.repeat(np.arange(G), nblk[members])
            for w in np.unique(bwidth[blocks]).tolist():
                blk, gb = blocks[bwidth[blocks] == w], owner[bwidth[blocks] == w]
                cnt = blen[blk] - skip[blk]
                ent = _ranges(indptr[lead[blk]] + skip[blk], cnt)
                g = np.repeat(gb, cnt)
                addr = (row[g, where[np.searchsorted(keys, g * (n + 1) + indices[ent])]]
                        + np.repeat(lead[blk] - first[members][gb], cnt))
                c = np.arange(w)[:, None]   # column c of a block: its lead's entries c blen on
                F[addr + c] = data[ent + np.repeat(blen[blk], cnt) * c]
            pk, pd = np.nonzero(~valid[:, :Np])
            L11[pk, pd, pd] = 1.0

            # the children's updates, by group of origin: their slots there,
            # their fronts here, the positions of their rows in these fronts
            # (padding at Np, where it adds zeros), their row counts, how
            # many land on pivots, and where each batch's children start
            size = G if Nr < _SLICE_ROWS else 1     # fronts per batch
            nkids = plan.kid_ptr[members + 1] - plan.kid_ptr[members]
            kids = plan.kids[_ranges(plan.kid_ptr[members], nkids)]
            home = np.repeat(np.arange(G), nkids)
            src_of = group[kids]
            taking = []
            for src in np.unique(src_of).tolist():
                i = np.flatnonzero(src_of == src)
                q, kq = slot[kids[i]], home[i]
                R = updates[src][1][q]
                pos = where[np.minimum(np.searchsorted(keys, kq[:, None] * (n + 1) + R),
                                       keys.size - 1)]
                real = R < n
                pos[~real] = Np if Nr else 0
                taking.append((src, q, kq, pos, nrow[kids[i]],
                               np.count_nonzero(real & (pos < Np), axis=1),
                               np.searchsorted(kq, np.arange(0, G + 1, size)).tolist()))

            own, U = [], None
            for bi, k0 in enumerate(range(0, G, size)):
                m = int(nrow[members[k0]])
                if U is None:
                    U = _mapped_zeros((size, Nr, Nr))
                else:
                    U[0, :m, :m] = 0.0      # all that this front's update fills
                for src, q, kq, pos, nc, m1, cut in taking:
                    lo, hi = cut[bi], cut[bi + 1]
                    if lo == hi:
                        continue
                    X = updates[src][0]
                    if plan.rows[src] >= _SLICE_ROWS:
                        for qi, k, p, mc in zip(q[lo:hi].tolist(), kq[lo:hi].tolist(),
                                                pos[lo:hi], nc[lo:hi].tolist()):
                            _extend_add(L11[k], L21[k], U[k - k0], X[qi], _runs(p[:mc], Np))
                            X[qi] = None    # released once taken
                    else:
                        step = max(1, _EXTEND_CHUNK // int(plan.rows[src]) ** 2)
                        for c in np.unique(m1[lo:hi]).tolist():
                            sel = lo + np.flatnonzero(m1[lo:hi] == c)
                            for j0 in range(0, sel.size, step):
                                j = sel[j0:j0 + step]
                                _scatter_updates(F, row[k0:k0 + size], U,
                                                 np.array([X[qi] for qi in q[j].tolist()]),
                                                 kq[j] - k0, pos[j], c)
                        for qi in q[lo:hi].tolist():
                            X[qi] = None    # the last view releases its batch
                    del X
                    if plan.last[src] < a + k0 + size:
                        del updates[src]
                for k in range(size):
                    _factor_front(L11[k0 + k], L21[k0 + k], U[k])
                if size > 1 or m == Nr:
                    own.extend(U)       # the batch itself holds the updates
                    U = None
                else:
                    own.append(_mapped_zeros((m, m)))
                    own[-1][:] = U[0, :m, :m]
            if Nr:
                updates[gi] = [own, front[:, Np:]]
            del U
            s, e = int(base[gi]), int(base[gi + 1])
            self.groups.append((s, e, slot_of[front[:, Np:]] - e, L11, L21))
            self.fill += F.size

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for b of shape (n,) or (n, k): forward and backward sweeps
        over the groups on a work array that keeps each group's pivots in
        one slice, front by front with their padding, and a zero row last
        for padded rows.  A group reads and writes its pivots by slice,
        subtracts its forward updates from later groups' pivots with one
        bincount, and gathers its rows in the backward sweep."""
        b = np.asarray(b, dtype=float)
        k = b.size // self.n
        w = np.zeros((self._zero + 1, k))
        w[self._slot] = b.reshape(self.n, k)
        for s, e, r, Linv, L21 in self.groups:
            y = Linv @ w[s:e].reshape(Linv.shape[0], -1, k)
            w[s:e] = y.reshape(-1, k)
            if r.size:
                i = r.ravel() if k == 1 else (r.reshape(-1, 1) * k + np.arange(k)).ravel()
                w[e:] -= np.bincount(i, (L21 @ y).ravel(),
                                     minlength=(self._zero + 1 - e) * k).reshape(-1, k)
        for s, e, r, Linv, L21 in reversed(self.groups):
            rows = np.take(w[e:], r, axis=0)   # 3x faster than w[e:][r] on 2-D w
            z = w[s:e].reshape(Linv.shape[0], -1, k) - L21.transpose(0, 2, 1) @ rows
            w[s:e] = (Linv.transpose(0, 2, 1) @ z).reshape(-1, k)
        return w[self._slot].reshape(b.shape)


def factor_spd(S, reorder: bool = False):
    """Factor an SPD sparse matrix; doubles as the SPD certificate.

    By default the matrix is eliminated in the order it is given: trace
    operators come in the mesh's nested-dissection facet order, which
    fills less than a minimum-degree order.  From SUPERNODAL_MIN rows on,
    a supernodal multifrontal Cholesky (SupernodalCholesky) does it, with
    one facet's dofs per block and the separators as supernodes; a failed
    dense Cholesky of a front certifies the matrix is not SPD, and a
    predicted peak above the memory available raises InsufficientMemory
    before any front is allocated.  Below it,
    and with reorder=True in SuperLU's minimum-degree order (for the
    full preconditioner's whole P, which has no trace structure to order
    by; see precond), SuperLU in symmetric mode with a zero
    diagonal-pivot threshold, which never pivots off the diagonal: its
    factorization is Cholesky-like, and a non-positive pivot certifies the
    matrix is not SPD.  Either factor has solve(b), and fill, the
    number of entries it stores.

    The supernodal factor takes a CSR S as S.T, a CSC view of S's own
    arrays, rather than a CSC copy: it then reads S's upper triangle,
    where a CSC input supplies its lower one.  An S_P that is symmetric
    only to roundoff (each cell's -P21 X block is rounded on its own) is
    factored as the matrix of that triangle.  Any other input, and any
    input to SuperLU, is converted to CSC.
    """
    if not reorder and S.shape[0] >= SUPERNODAL_MIN:
        A = S.T if sp.issparse(S) and S.format == "csr" else _as_csc(S)
        if not A.has_canonical_format:   # A may share S's arrays
            A = A.copy()
            A.sum_duplicates()
        return SupernodalCholesky(A)
    A = _as_csc(S)
    try:
        lu = spla.splu(A, diag_pivot_thresh=0.0,
                       permc_spec="MMD_AT_PLUS_A" if reorder else "NATURAL",
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # exactly singular
        raise NotSymmetricPositiveDefinite(str(exc)) from exc
    if not lu.U.diagonal().min() > 0.0:   # a NaN pivot certifies nothing
        raise NotSymmetricPositiveDefinite("non-positive pivot: matrix is not SPD")
    return Factor(lu)


class _Deflation:
    def __init__(self, kernel):
        basis = []
        for z in kernel:
            v = np.asarray(z, dtype=float).copy()
            for b in basis:
                v -= (b @ v) * b
            nrm = np.linalg.norm(v)
            if nrm > 0:
                basis.append(v / nrm)
        self.basis = basis

    def project(self, x):
        for b in self.basis:
            x = x - (b @ x) * b
        return x

    def wrap(self, apply_fn):
        if not self.basis:
            return apply_fn
        return lambda x: self.project(apply_fn(self.project(x)))


def _krylov_setup(apply_A, apply_Pinv, b, tol, maxit, deflate):
    """cg's and minres's A, P (identity if None) and b, off the kernel ``deflate``."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if maxit < 1:
        raise ValueError(f"maxit must be at least 1, got {maxit}")
    P = apply_Pinv if apply_Pinv is not None else (lambda x: x)
    defl = _Deflation(deflate)
    return defl.wrap(apply_A), defl.wrap(P), defl.project(np.asarray(b, dtype=float))


def cg(apply_A, apply_Pinv, b, tol: float = 1e-10, maxit: int = 999,
       deflate=()) -> tuple[np.ndarray, KrylovReport]:
    """Preconditioned conjugate gradients with breakdown detection."""
    A, P, b = _krylov_setup(apply_A, apply_Pinv, b, tol, maxit, deflate)

    x = np.zeros_like(b)
    r = b.copy()
    z = P(r)
    rho = r @ z
    if rho < 0:
        raise NotSymmetricPositiveDefinite("preconditioner is not positive")
    res0 = np.sqrt(rho)
    history = []
    if res0 == 0.0:
        return x, KrylovReport(0, True, history)
    p = z.copy()
    for it in range(1, maxit + 1):
        Ap = A(p)
        alpha_den = p @ Ap
        if alpha_den <= 0:
            raise NotSymmetricPositiveDefinite(
                "nonpositive curvature: operator not SPD on the working subspace")
        alpha = rho / alpha_den
        x += alpha * p
        r -= alpha * Ap
        z = P(r)
        rho_new = r @ z
        if rho_new < 0:
            raise NotSymmetricPositiveDefinite("preconditioner is not positive")
        rel = float(np.sqrt(rho_new) / res0)
        history.append(rel)
        if len(history) >= 2 and history[-1] > 1.1 * history[-2]:
            warnings.warn("CG preconditioned residual grew by more than 10%",
                          RuntimeWarning, stacklevel=2)
        if rel <= tol:
            return x, KrylovReport(it, True, history)
        p = z + (rho_new / rho) * p
        rho = rho_new
    return x, KrylovReport(maxit, False, history)


def minres(apply_A, apply_Pinv, b, tol: float = 1e-8, maxit: int = 999,
           deflate=()) -> tuple[np.ndarray, KrylovReport]:
    """Preconditioned MINRES (Paige-Saunders); A symmetric, P SPD."""
    A, P, b = _krylov_setup(apply_A, apply_Pinv, b, tol, maxit, deflate)

    x = np.zeros_like(b)
    r1 = b.copy()
    y = P(r1)
    beta1_sq = r1 @ y
    if beta1_sq < 0:
        raise NotSymmetricPositiveDefinite("preconditioner is not positive")
    beta1 = np.sqrt(beta1_sq)
    history = []
    if beta1 == 0.0:
        return x, KrylovReport(0, True, history)

    oldb, beta = 0.0, beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    r2 = r1.copy()
    for it in range(1, maxit + 1):
        v = y / beta
        y = A(v)
        if it >= 2:
            y -= (beta / oldb) * r1
        alfa = v @ y
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = P(r2)
        oldb, beta_sq = beta, r2 @ y
        if beta_sq < 0:
            raise NotSymmetricPositiveDefinite("preconditioner is not positive")
        beta = np.sqrt(beta_sq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x += phi * w
        rel = float(phibar / beta1)
        history.append(rel)
        if rel <= tol:
            return x, KrylovReport(it, True, history)
    return x, KrylovReport(maxit, False, history)


def _dense(M):
    """A Fortran-ordered float copy of M, which LAPACK may overwrite."""
    return M.toarray(order="F") if sp.issparse(M) else np.array(M, dtype=float, order="F")


def generalized_eigs(A, B, mode: str = "full", n_drop: int = 0):
    """Eigenvalues of the symmetric pencil A v = lambda B v with B SPD.

    mode="full" returns all eigenvalues, ascending; "min" and "max" return
    one end of the spectrum as a float, "extreme" returns (min, max) and
    "magnitude" returns (min |lambda|, max |lambda|), for an A that may be
    indefinite.  n_drop declared kernel eigenvalues (smallest in magnitude)
    are removed after checking they are negligible.

    Up to DENSE_MAX, and always for mode="full", one dense LAPACK ?sygv
    solve gives every eigenvalue, in place on one Fortran-ordered copy of
    each matrix.  Above DENSE_MAX the ends come from ARPACK with a fixed
    start vector, in at most ARPACK_MAXITER restarts, each end to its own
    relative residual (ARPACK_TOL_TOP and ARPACK_TOL_BOTTOM, sized to the
    accuracy the constants are reported to).  The top of mode="max" and
    "extreme" comes from a shift-invert solve for the eigenvalue nearest a
    shift sigma above the whole spectrum: a loose regular-mode estimate
    (relative residual SHIFT_EST_TOL, preconditioned by the factor of B)
    sets sigma a little above it, and a Cholesky factor of sigma B - A,
    in minimum-degree order, certifies sigma is above every eigenvalue
    (see _shift_above).  A clustered top, where a regular-mode solve
    stalled (the Darcy full pencil at 2D n=4, xi=1e-6, gamma=1e4, has 24
    eigenvalues within 1e-8 of its top), then converges.  The top of
    mode="magnitude", the largest |lambda| of an indefinite pencil, comes
    from one regular-mode "LM" solve.  The bottom, and the kernel check,
    come from one shift-invert solve for the n_drop + 3 eigenvalues nearest
    sigma = -KERNEL_SHIFT * max_i |A_ii / B_ii|, a small negative shift
    (that maximum is a lower bound of max |lambda|), so that a declared
    kernel never makes A - sigma B singular.  The "min" end is the
    smallest eigenvalue only when A is positive semidefinite, as every
    probe pencil is.  A non-SPD B raises NotSymmetricPositiveDefinite;
    ARPACK running out of restarts, or no certified shift, raises
    ValueError naming the end.
    """
    if mode not in ("full", "extreme", "min", "max", "magnitude"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "full" or A.shape[0] <= DENSE_MAX:
        try:
            vals = sla.eigh(_dense(A), _dense(B), eigvals_only=True, driver="gv",
                            overwrite_a=True, overwrite_b=True)
        except sla.LinAlgError as exc:
            raise NotSymmetricPositiveDefinite(f"B side of the pencil: {exc}") from exc
        vals = _drop_kernel(vals, n_drop)
        if mode == "full":
            return vals
    else:
        vals = _drop_kernel(_sparse_ends(A, B, mode, n_drop), n_drop)
    if mode == "magnitude":
        a = np.abs(vals)
        return float(a.min()), float(a.max())
    lo, hi = float(vals[0]), float(vals[-1])
    return {"min": lo, "max": hi, "extreme": (lo, hi)}[mode]


def _sparse_ends(A, B, mode, n_drop):
    """ARPACK eigenvalues holding the requested ends and the kernel."""
    n = A.shape[0]
    Asp, Bsp = _as_csc(A), _as_csc(B)
    Bop = factor_spd(Bsp)  # also the SPD certificate of B
    v0 = np.random.default_rng(0).standard_normal(n)
    # Rayleigh quotients of unit vectors: a bound below max |lambda|
    scale = np.abs(Asp.diagonal() / Bsp.diagonal()).max()
    vals = []
    if mode != "min":
        Minv = spla.LinearOperator((n, n), matvec=Bop.solve)
        if mode == "magnitude":
            vals.append(_arpack("max", Asp, k=1, M=Bsp, Minv=Minv, v0=v0, which="LM"))
        else:
            est = _arpack("max", Asp, k=1, M=Bsp, Minv=Minv, v0=v0, which="LA",
                          tol=SHIFT_EST_TOL)[0]
            del Minv, Bop   # one factor alive at a time
            sigma, F = _shift_above(Asp, Bsp, est, scale)
            OPinv = spla.LinearOperator((n, n), matvec=lambda x: -F.solve(x))
            vals.append(_arpack("max", Asp, k=1, M=Bsp, sigma=sigma, OPinv=OPinv,
                                which="LM", v0=v0))
            del OPinv, F    # before the bottom end factors A - sigma B
    if mode != "max" or n_drop:
        vals.append(_arpack("min", Asp, k=n_drop + 3, M=Bsp, sigma=-KERNEL_SHIFT * scale,
                            which="LM", v0=v0))
    return np.concatenate(vals)


def _shift_above(A, B, est, scale):
    """(sigma, factor of sigma B - A): a shift above every eigenvalue of the
    pencil, certified by the Cholesky-like factor, searched upwards from the
    estimate est of the largest eigenvalue."""
    delta = SHIFT_GAP
    for _ in range(SHIFT_TRIES):
        sigma = est + delta * max(abs(est), scale)
        if not math.isfinite(sigma):
            break
        try:
            # minimum-degree order: A's pattern need not follow the trace
            # order (stokes_lifting at 2D n=16: 7.7M entries and 1.2 s in
            # the given order, 1.0M and 0.07 s in minimum degree)
            return sigma, factor_spd(sigma * B - A, reorder=True)
        except NotSymmetricPositiveDefinite:
            delta *= SHIFT_GROWTH
    raise ValueError(f"no shift above the 'max' end of a pencil of size {A.shape[0]} "
                     f"within {SHIFT_TRIES} tries from the estimate {est!r}")


def _arpack(end, A, tol=None, **kwargs):
    if tol is None:
        tol = ARPACK_TOL_TOP if end == "max" else ARPACK_TOL_BOTTOM
    try:
        return spla.eigsh(A, maxiter=ARPACK_MAXITER, tol=tol,
                          return_eigenvectors=False, **kwargs)
    except spla.ArpackNoConvergence as exc:
        raise ValueError(f"ARPACK did not converge to the {end!r} end of a pencil "
                         f"of size {A.shape[0]} within {ARPACK_MAXITER} restarts") from exc


def _drop_kernel(vals, n_drop):
    vals = np.sort(np.asarray(vals))
    if n_drop:
        order = np.argsort(np.abs(vals))
        scale = np.abs(vals).max()
        small = order[:n_drop]
        if np.abs(vals[small]).max() > KERNEL_RTOL * scale:
            raise ValueError("declared kernel eigenvalues are not negligible")
        keep = np.ones(vals.size, dtype=bool)
        keep[small] = False
        vals = vals[keep]
    return vals
