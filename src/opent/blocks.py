"""Parity blocks, flip blocks and exchange sectors of a symmetric bipartite operator.

An operator u that commutes with a product parity diag(l1) x diag(l2) of
+-1 labels (such as the kicked-top parity, once each top is in its Jy
eigenbasis) has a block-diagonal realigned matrix (`schmidt.realign`): row
(a, b) and column (c, d') meet only where l1[a] l1[b] = l2[c] l2[d']. Each
entry u[(a,c), (b,d')] of those two blocks lies inside one parity block of
u, and over a, b, c, d' each in one label class they form a strided view of
it (`_parity_layout`). If also u = u^T, then X[(a,b),(c,d')] =
X[(b,a),(d',c)], and each realigned parity block splits into a flip-even
block (pairs a <= b, c <= d') and a flip-odd block (a < b, c < d'), each
half its size. `band_stack` builds u's two parity blocks, each a matrix of
its own size, from a factored realigned matrix, and `parity_gather` copies
the four flip blocks out, both in row bands through those views, for
`schmidt.schmidt_spectrum`: a sixteenth of the work of one SVD, and no full
operator is formed.

On two copies of one space (l1 = l2) a u that also commutes with the
exchange of the copies, u[(a,c),(b,d')] = u[(c,a),(d',b)], has parity blocks
that split into an exchange-even and an exchange-odd sector: the flip blocks
of x'[(a,c),(b,d')] = u[(a,c),(b,d')], which `exchange_sectors` gathers as
`parity_gather` gathers x's, and hands back their gather: x's flip blocks,
by the same plan and copy, from the rows of u that they read, rebuilt from
the sectors one a at a time; so powers of u may be taken, and certified, in
the sectors alone. One pair list (`_pairs`) orders all their rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .linalg import ROW_BANDS, row_bands

# (odd, offset, combine) of the four flip blocks, or exchange sectors, in their order, over the pairs
# (a, b), b = a + offset, a + offset + 2, ...: parity 1 (a + b even) splits into a <= b, then a < b,
# and parity -1 into a < b twice
_SPLITS = (0, 0, np.add), (0, 2, np.subtract), (1, 1, np.add), (1, 1, np.subtract)


def _parity_layout(l1, l2):
    """(sizes, view) of the two parity blocks of a u that commutes with diag(l1) x diag(l2).

    With r = outer(l1, l2) > 0 over u's rows, block 0 is u[r][:, r] and block 1 u[~r][:, ~r], of
    `sizes` = (|r|, |~r|) rows. The labels alternate (l[a] l[b] = 1 iff a = b mod 2), so two
    consecutive a hold M rows of each block: the rows (a, c), a in a0::2, c in c0::2, lie at
    a0 ((M + c0) // 2) + M (a // 2) + c // 2 of one block. view(blocks, a0, b0, c0, d0) is the
    (a // 2, b // 2, c // 2, d // 2) strided view of x[(a, b), (c, d)] = u[(a, c), (b, d)] in the
    block that holds it, for l1[a0] l1[b0] = l2[c0] l2[d0]; it checks the shape of that block alone.
    """
    if any(np.any(labels[1:] != -labels[:-1]) for labels in (l1, l2)):  # the views assume it
        raise ValueError("parity labels must alternate in sign")
    r = np.outer(l1, l2) > 0
    (n, m), sizes = r.shape, (np.count_nonzero(r), np.count_nonzero(~r))

    def view(blocks, a0, b0, c0, d0):
        block, h = blocks[int(not r[a0, c0])], sizes[int(not r[a0, c0])]
        if np.shape(block) != (h, h):  # the other block may be gone (`exchange_sectors`)
            raise ValueError(f"blocks of shapes {[*map(np.shape, blocks)]} do not match their labels' sizes {sizes}")
        shape = [(k - k0 + 1) // 2 for k, k0 in zip((n, n, m, m), (a0, b0, c0, d0))]
        corner, item = a0 * (m + c0) // 2 * h + b0 * (m + d0) // 2, block.itemsize  # numpy refuses a block not in C order
        return np.ndarray(shape, block.dtype, block, item * corner, [item * m * h, item * m, item * h, item])
    return sizes, view


def band_stack(left, right, l1, l2) -> tuple[list[np.ndarray], float]:
    """The two parity blocks (`_parity_layout`) of u from x = left @ right, and max |u| off them.

    x[(a, b), (c, d)] = u[(a, c), (b, d)] is u realigned. Its rows go in bands, each of one label
    class of a and an eighth of it (`row_bands`) with every b, as left[rows] @ right, so neither
    x nor u is formed whole: the band's pieces of one parity go into their views of the blocks,
    the others only into a band maximum; np.max keeps a nan.
    """
    sizes, view = _parity_layout(l1, l2)
    (n, m), off = (len(l1), len(l2)), []
    blocks = [np.empty((size, size), complex) for size in sizes]  # views fill them
    left = np.reshape(left, (n, n, -1))
    for a0 in (0, 1):
        for rows in row_bands(len(left[a0::2])):  # each band has at least n >= 2 rows: a gemm
            band = (left[a0::2][rows].reshape(-1, left.shape[-1]) @ right).reshape(-1, n, m, m)
            for b0, c0, d0 in itertools.product((0, 1), repeat=3):
                piece = band[:, b0::2, c0::2, d0::2]
                if (a0 == b0) == (c0 == d0):
                    view(blocks, a0, b0, c0, d0)[rows] = piece
                else:
                    off.append(np.abs(piece).max())
    return blocks, float(np.max(off))


def _pairs(size, offset):
    """(a, b) of the pairs b = a + offset, a + offset + 2, ... below size, by a, then b."""
    return np.array([(a, b) for a in range(size) for b in range(a + offset, size, 2)], int).reshape(-1, 2).T


def _flip_plan(n, m):
    """The four flip blocks' row runs, in bands of those that start in one ROW_BANDS-th of the rows.

    A run (r, a, b // 2, count) is the flip block's rows r, r + 1, ..., r + count - 1, the pairs
    (a, b), (a, b + 2), ... of one a. Per parity (1 first), the flip-even then the flip-odd block
    of `_SPLITS`: (bands, cols, flipped, combine, rho1, rho2), each band (lo, hi, runs).
    """
    h, flips = (m + 1) // 2, [[], []]
    for odd, offset, combine in _SPLITS:
        (a, b), (c, d) = _pairs(n, offset), _pairs(m, offset)
        starts = [*np.flatnonzero(b == a + offset).tolist(), len(a)]  # where each a's rows start
        runs = [(r, a.item(r), b.item(r) // 2, end - r) for r, end in zip(starts, starts[1:])]
        bands = ([*band] for _, band in itertools.groupby(runs, lambda run: run[0] * ROW_BANDS // len(a)))
        flips[odd].append(([(band[0][0], band[-1][0] + band[-1][-1], band) for band in bands],
                           (c % 2 * h + c // 2) * h + d // 2, (d % 2 * h + d // 2) * h + c // 2, combine,
                           np.where(a == b, np.sqrt(0.5), 1)[:, None], np.where(c == d, np.sqrt(0.5), 1)))
    return flips


def _flip_buffers(specs, m):
    """A new flip block per spec, and one `part` for all: x's rows of a band, by (c % 2, c // 2, d // 2)."""
    h, rows = (m + 1) // 2, max([hi - lo for bands, *_ in specs for lo, hi, _ in bands], default=0)
    return [np.empty((len(rho1), len(cols)), complex) for _, cols, _, _, rho1, _ in specs], np.empty((rows, 2, h, h), complex)


def _fill_band(y, part, grids, lo, hi, runs, cols, flipped, combine, rho1, rho2):
    """Rows lo:hi of flip block y: the runs' rows of x, copied into `part` from grids[a] (per class of c,
    a grid (a // 2 - i0, b // 2 - k0, c // 2, d // 2) and its offsets (i0, k0)), then y's columns."""
    for r, a, k, count in runs:  # x's rows (a, b), (a, b + 2), ..., a class of (c, d) at a time
        for c0, (grid, i0, k0) in enumerate(grids[a]):
            part[r - lo:r - lo + count, c0, :grid.shape[2], :grid.shape[3]] = grid[a // 2 - i0, k - k0:k - k0 + count]
    x, band = part[:hi - lo].reshape(hi - lo, -1), y[lo:hi]
    x.take(cols, axis=1, out=band, mode="clip")  # clip: no buffered copy of `out`
    combine(band, x.take(flipped, axis=1), out=band)
    band *= rho1[lo:hi] * rho2


def _flip(grids, spec, m):
    """The flip block of `spec` (`_flip_plan`), a new array, band by band from grids (`_fill_band`)."""
    (y,), part = _flip_buffers([spec], m)
    for band in spec[0]:
        _fill_band(y, part, grids, *band, *spec[1:])
    return y


def parity_gather(l1, l2) -> Callable[[Sequence[np.ndarray]], Iterator[np.ndarray]]:
    """The four realigned flip blocks of a symmetric operator, as a function of its parity blocks.

    If u = u^T, then x[ab, cd] = x[ba, dc]: swapping both pairs keeps each realigned parity block,
    which splits into a flip-even block on the orthonormal vectors rho_ab (e_ab + e_ba) (a <= b,
    rho = 1/sqrt(2) where a = b, else 1), with entries (x[ab, cd] + x[ab, dc]) rho_ab rho_cd, and
    a flip-odd block on (e_ab - e_ba) / sqrt(2) (a < b), with entries x[ab, cd] - x[ab, dc]. The
    generator takes the pair of u's parity blocks (`band_stack`) and yields the flip blocks in this
    order, parity 1 first, each a new array. No realigned parity block is made: a flip block goes
    in the row bands of `_flip_plan`, and each band copies its rows of x run by run from the
    strided views of u's blocks (`_parity_layout`), grids[a] those of a's class a % 2, then takes
    its columns. It keeps no block it yielded.
    """
    (_, view), flips = _parity_layout(l1, l2), _flip_plan(n := len(l1), m := len(l2))

    def gather(blocks):
        for odd in (0, 1):
            grids = [[(view(blocks, a0, a0 ^ odd, c0, c0 ^ odd), 0, 0) for c0 in (0, 1)] for a0 in (0, 1)] * n
            yield from (_flip(grids, spec, m) for spec in flips[odd])
    return gather


def exchange_sectors(blocks: list, labels) -> tuple[list[np.ndarray], float, Callable[[Sequence[np.ndarray]], Iterator[np.ndarray]]]:
    """The exchange sectors of u's two parity blocks, max |u - u exchanged| over the blocks, and a gather.

    u acts on two copies of one space, l1 = l2 = labels. If it commutes with their exchange,
    u[(a, c), (b, d)] = u[(c, a), (d, b)], each parity block splits into an exchange-even sector on
    rho_ac (e_ac + e_ca) (a <= c) and an exchange-odd one on e_ac - e_ca (a < c). Those are the flip
    blocks of x'[(a, c), (b, d)] = u[(a, c), (b, d)], and go by `parity_gather`'s plan and copy from
    the views of u's blocks (`_parity_layout`) with their middle axes swapped. In the realigned
    x[(a, b), (c, d)] = u[(a, c), (b, d)] the exchange reads x = x^T, measured view by view. Returns
    [even, odd] of block 0, then of block 1, each a matrix of its own size, which may be 0 x 0, and
    unitary and symmetric if u is. The blocks are taken out of the list `blocks`, so that each goes
    once its sectors exist, in a caller that kept no other reference to it.

    The gather is `parity_gather` for u, or a power of it, as a function of its four sectors, on the
    band plan that the split used. Its generator yields the same four flip blocks, each a new array,
    with no parity block of u made whole. Per parity, one a at a time, it rebuilds from the sectors
    the rows x[(a, b), (c, d)] of both flip blocks (b from a on), fills each band (`_flip_plan`) once
    its last a is in, and keeps only the a's that unfilled bands read. Row q = (a, c) and column q'
    of a parity block are (even[i, i'] (0.5 / rho_i)) (1 / rho_i') + (odd[j, j'] (s_q / 2)) s_q',
    rounded in that order: i, j are the rows of q's pair in the two sectors (`_pairs`), and
    s_q = sign(c - a). It holds both flip blocks of a parity and the rows of about a band of each,
    and keeps no block it yielded.
    """
    (_, view), flips = _parity_layout(labels, labels), _flip_plan(m := len(labels), m)
    sectors, defect = [], []
    for odd in (0, 1):  # block odd: u's rows (a, c) and columns (b, d) with a ^ c = b ^ d = odd
        classes = [(a0, b0, a0 ^ odd, b0 ^ odd) for a0, b0 in itertools.product((0, 1), repeat=2)]  # x's, in block odd
        defect += [np.abs(view(blocks, *k) - view(blocks, *k[2:], *k[:2]).transpose(2, 3, 0, 1)).max() for k in classes]
        grids = [[(view(blocks, a0, c0, a0 ^ odd, c0 ^ odd).transpose(0, 2, 1, 3), 0, 0) for c0 in (0, 1)]
                 for a0 in (0, 1)] * m
        sectors += [_flip(grids, spec, m) for spec in flips[odd]]
        blocks[odd] = grids = None  # the block goes once its sectors exist
    blocks.clear()
    return sectors, float(np.max(defect)), _sector_gather(flips, m)


def _sector_gather(flips, m):
    """The gather of `exchange_sectors` on its plan `flips` (`_flip_plan(m, m)`)."""
    pair, classes = np.zeros((2, m, m), int), {}
    for k, (_, offset, _) in enumerate(_SPLITS):  # pair[k % 2, a, c]: the row of (a, c)'s pair in sector k, or 0
        a, c = _pairs(m, offset)
        pair[k % 2, a, c] = pair[k % 2, c, a] = np.arange(len(a))
    rho, s = np.where(np.eye(m) > 0, np.sqrt(0.5), 1), np.sign(np.arange(m) - np.arange(m)[:, None])  # over (a, c)
    for a0, c0 in itertools.product((0, 1), repeat=2):  # the rows (a, c), a in a0::2, c in c0::2, by a then c
        even, odd, rho_q, s_q = (v[a0::2, c0::2].ravel() for v in (*pair, rho, s))
        classes[a0, c0] = even, (0.5 / rho_q)[:, None], 1 / rho_q, odd, (0.5 * s_q)[:, None], s_q

    def grid(sectors, odd, a, c0):  # x[(a, b), (c, d)], c in c0::2, b = a + odd, a + odd + 2, ...
        even, row_e, _, odd_pair, row_o, _ = classes[a % 2, c0]  # u's rows (a, c)
        col_even, _, col_e, col_odd, _, col_o = classes[a % 2 ^ odd, c0 ^ odd]  # its columns (b, d)
        nc, nd, k0 = (m - c0 + 1) // 2, (m - (c0 ^ odd) + 1) // 2, (a + odd) // 2
        rows, cols = slice(a // 2 * nc, (a // 2 + 1) * nc), slice(k0 * nd, None)
        x = sectors[2 * (a % 2 ^ c0)].take(even[rows], 0).take(col_even[cols], 1)
        x *= row_e[rows]
        x *= col_e[cols]
        if len(odd_sector := sectors[2 * (a % 2 ^ c0) + 1]):  # else every pair is a = c
            part = odd_sector.take(odd_pair[rows], 0).take(col_odd[cols], 1)
            part *= row_o[rows]
            part *= col_o[cols]
            x += part
        return x.reshape(nc, -1, nd).transpose(1, 0, 2)[None], a // 2, k0

    def gather(sectors):
        for odd, specs in enumerate(flips):
            (ys, part), grids = _flip_buffers(specs, m), {}
            todo = sorted((band[2][-1][1], y, band) for y, (bands, *_) in enumerate(specs) for band in bands)  # by last a
            for a in range(todo[-1][0] + 1):
                grids[a] = [grid(sectors, odd, a, c0) for c0 in (0, 1)]
                while todo and todo[0][0] == a:
                    _, y, band = todo.pop(0)
                    _fill_band(ys[y], part, grids, *band, *specs[y][1:])
                first = min((band[2][0][1] for *_, band in todo), default=a + 1)  # the first a still read
                grids = {b: grids[b] for b in grids if b >= first}
            while ys:
                yield ys.pop(0)
    return gather
