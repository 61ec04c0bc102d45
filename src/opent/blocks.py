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
that split into an exchange-even and an exchange-odd sector, by the flip
split's pair combination over rows and columns. `exchange_sectors` makes
them, four matrices of half the parity blocks' bytes, and `sector_gather`
copies the same four flip blocks out of them through u's rows, rebuilt a
slab at a time; so powers of u may be taken, and certified, in the sectors
alone.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .linalg import ROW_BANDS, row_bands


def _parity_layout(l1, l2):
    """(sizes, view) of the two parity blocks of a u that commutes with diag(l1) x diag(l2).

    With r = outer(l1, l2) > 0 over u's rows, block 0 is u[r][:, r] and block 1 u[~r][:, ~r], of
    `sizes` = (|r|, |~r|) rows. The labels alternate (l[a] l[b] = 1 iff a = b mod 2), so two
    consecutive a hold M rows of each block, a slab: the rows (a, c), a in a0::2, c in c0::2, lie at
    a0 ((M + c0) // 2) + M (a // 2) + c // 2 of one block. view(blocks, a0, b0, c0, d0) is the
    (a // 2, b // 2, c // 2, d // 2) strided view of x[(a, b), (c, d)] = u[(a, c), (b, d)] in the
    block that holds it, for l1[a0] l1[b0] = l2[c0] l2[d0]. With `slab`, `blocks` hold only the M
    rows of one slab, each at full width, and the view's a // 2 axis holds that slab's a alone.
    """
    if any(np.any(labels[1:] != -labels[:-1]) for labels in (l1, l2)):  # the views assume it
        raise ValueError("parity labels must alternate in sign")
    r = np.outer(l1, l2) > 0
    (n, m), sizes = r.shape, (np.count_nonzero(r), np.count_nonzero(~r))

    def view(blocks, a0, b0, c0, d0, slab=False):
        rows = (m, m) if slab else sizes
        if (shapes := [np.shape(block) for block in blocks]) != [*zip(rows, sizes)]:
            raise ValueError(f"blocks of shapes {shapes} do not match their labels' sizes {sizes}")
        block, h = blocks[int(not r[a0, c0])], sizes[int(not r[a0, c0])]
        shape = [(k - k0 + 1) // 2 for k, k0 in zip((n, n, m, m), (a0, b0, c0, d0))]
        if slab:
            shape[0] = 1
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


def _flip_plan(n, m, band_key):
    """The four flip blocks' row runs, grouped into bands by band_key(rows)(run), and their columns.

    A run (r, a0, a // 2, b // 2, count) is the flip block's rows r, r + 1, ..., r + count - 1, the
    pairs (a, b), (a, b + 2), ... of one a. Per parity (1 first), the flip-even then the flip-odd
    block: (bands, cols, flipped, combine, rho1, rho2), each band (lo, hi, runs).
    """
    def pairs(size, offset):  # (a, b), b = a + offset, a + offset + 2, ... below size, by a, then b
        return np.array([(a, b) for a in range(size) for b in range(a + offset, size, 2)], int).reshape(-1, 2).T

    h, flips = (m + 1) // 2, [[], []]  # parity 1 (a + b even): a <= b, then a < b; parity -1: a < b twice
    for odd, offset, combine in (0, 0, np.add), (0, 2, np.subtract), (1, 1, np.add), (1, 1, np.subtract):
        (a, b), (c, d) = pairs(n, offset), pairs(m, offset)
        starts = [*np.flatnonzero(b == a + offset).tolist(), len(a)]  # where each a's rows start
        runs = [(r, a[r] % 2, a[r] // 2, b[r] // 2, end - r) for r, end in zip(starts, starts[1:])]
        bands = ([*band] for _, band in itertools.groupby(runs, band_key(len(a))))
        flips[odd].append(([(band[0][0], band[-1][0] + band[-1][-1], band) for band in bands],
                           (c % 2 * h + c // 2) * h + d // 2, (d % 2 * h + d // 2) * h + c // 2, combine,
                           np.where(a == b, np.sqrt(0.5), 1)[:, None], np.where(c == d, np.sqrt(0.5), 1)))
    return flips


def _flip_buffers(specs, m):
    """A new flip block per spec, and one `part` for all: x's rows of a band, by (c % 2, c // 2, d // 2)."""
    h, rows = (m + 1) // 2, max([hi - lo for bands, *_ in specs for lo, hi, _ in bands], default=0)
    return [np.empty((len(rho1), len(cols)), complex) for _, cols, _, _, rho1, _ in specs], np.empty((rows, 2, h, h), complex)


def _fill_band(y, part, grids, lo, hi, runs, cols, flipped, combine, rho1, rho2, slab=0):
    """Rows lo:hi of flip block y: x's rows of the runs, copied run by run from the grids into
    `part` (a // 2 less `slab`, for grids of one slab), then y's columns taken from them."""
    for r, a0, i, k, count in runs:  # x's rows (a, b), (a, b + 2), ..., a class of (c, d) at a time
        for c0, grid in enumerate(grids[a0]):
            part[r - lo:r - lo + count, c0, :grid.shape[2], :grid.shape[3]] = grid[i - slab, k:k + count]
    x, band = part[:hi - lo].reshape(hi - lo, -1), y[lo:hi]
    x.take(cols, axis=1, out=band, mode="clip")  # clip: no buffered copy of `out`
    combine(band, x.take(flipped, axis=1), out=band)
    band *= rho1[lo:hi] * rho2


def parity_gather(l1, l2) -> Callable[[Sequence[np.ndarray]], Iterator[np.ndarray]]:
    """The four realigned flip blocks of a symmetric operator, as a function of its parity blocks.

    If u = u^T, then x[ab, cd] = x[ba, dc]: swapping both pairs keeps each realigned parity block,
    which splits into a flip-even block on the orthonormal vectors rho_ab (e_ab + e_ba) (a <= b,
    rho = 1/sqrt(2) where a = b, else 1), with entries (x[ab, cd] + x[ab, dc]) rho_ab rho_cd, and
    a flip-odd block on (e_ab - e_ba) / sqrt(2) (a < b), with entries x[ab, cd] - x[ab, dc]. The
    generator takes the pair of u's parity blocks (`band_stack`) and yields the flip blocks in this
    order, parity 1 first, each a new array. No realigned parity block is made: a flip block goes
    in row bands of whole runs (a, b), (a, b + 2), ... of one a, and each band copies its rows of x
    run by run from the strided views of u's blocks (`_parity_layout`), then takes its columns.
    It keeps no block it yielded.
    """
    (_, view), m = _parity_layout(l1, l2), len(l2)
    # bands of an eighth of the rows: bands of whole slabs, the unit that `sector_gather` rebuilds,
    # need a larger `part`, 2.46 stacks against 2.39 at j1 = 5, j2 = 7.5 on range(8, 41, 8), over
    # the 2.45 bound of test_kicked_spectra_stream_in_bounded_memory
    flips = _flip_plan(len(l1), m, lambda rows: lambda run: run[0] * ROW_BANDS // rows)

    def flip(grids, spec):
        (y,), part = _flip_buffers([spec], m)
        for band in spec[0]:
            _fill_band(y, part, grids, *band, *spec[1:])
        return y

    def gather(blocks):
        for odd in (0, 1):
            grids = [[view(blocks, a0, a0 ^ odd, c0, c0 ^ odd) for c0 in (0, 1)] for a0 in (0, 1)]
            yield from (flip(grids, spec) for spec in flips[odd])
    return gather


def _exchange_layout(labels):
    """Per parity block (`_parity_layout`) of a u on two copies of one space of these labels.

    Exchange maps row (a, c) of a block to row (c, a) of the same block. Returns, per block,
    (swap, pairs): swap[q] is the row of the exchange of row q, and pairs holds, for the even
    sector (a <= c) and then the odd one (a < c), the tuple (rows, index, rho). `rows` are the
    block rows (a, c) of the sector's pairs, in block order; index[q] is the pair of row q, clipped
    at 0 where there is none (a = c in the odd sector); rho is 1/sqrt(2) on a pair a = c, else 1.
    """
    n = len(labels)
    r = np.outer(labels, labels) > 0
    layout = []
    for mask in (r, ~r):
        a, c = np.nonzero(mask)  # the block's rows (a, c), in order
        row = np.zeros((n, n), int)
        row[a, c] = np.arange(len(a))
        swap, pairs = row[c, a], []
        for keep in (a <= c, a < c):
            rank = np.cumsum(keep) - 1
            index = np.maximum(np.where(keep, rank, rank[swap]), 0)
            rows = np.flatnonzero(keep)
            pairs.append((rows, index, np.where(a[rows] == c[rows], np.sqrt(0.5), 1)))
        layout.append((swap, pairs))
    return layout


def exchange_sectors(blocks: list, labels) -> tuple[list[np.ndarray], float]:
    """The exchange sectors of u's two parity blocks, and max |u - u exchanged| over the blocks.

    u acts on two copies of one space, l1 = l2 = labels. If it commutes with their exchange,
    u[(a, c), (b, d)] = u[(c, a), (d, b)], each parity block splits into an exchange-even sector on
    rho_ac (e_ac + e_ca) (a <= c) and an exchange-odd one on e_ac - e_ca (a < c): the pair
    combination that `parity_gather` applies to flip pairs, with its rho, over rows and
    columns alike. Returns [even, odd] of block 0, then of block 1, each a matrix of its own size,
    which may be 0 x 0, and unitary and symmetric if u is. Both go by row bands. The
    blocks are taken out of the list `blocks`, so that each goes once its sectors exist, in a
    caller that kept no other reference to it.
    """
    sectors, defect = [], [0.0]
    for swap, pairs in _exchange_layout(labels):
        block = blocks.pop(0)
        defect += [np.abs(block[rows] - block.take(swap[rows], 0).take(swap, 1)).max()
                   for rows in row_bands(len(block))]
        for (rows, _, rho), combine in zip(pairs, (np.add, np.subtract)):
            sector = np.empty((len(rows), len(rows)), complex)
            for band in row_bands(len(rows)):
                part = block.take(rows[band], 0)
                combine(part.take(rows, 1), part.take(swap[rows], 1), out=sector[band])
                sector[band] *= rho[band, None] * rho
            sectors.append(sector)
    return sectors, float(np.max(defect))


def sector_gather(labels) -> Callable[[Sequence[np.ndarray]], Iterator[np.ndarray]]:
    """`parity_gather` for u on two copies of one space, as a function of its exchange sectors.

    The generator takes the four sectors of u (`exchange_sectors`) and yields the same four flip
    blocks, each a new array, with no parity block of u made whole. Per parity of the flip blocks,
    it rebuilds u's rows one slab at a time (`_parity_layout`), only the columns from the slab's
    own a on, and copies both flip blocks' runs of that slab from them. Row q = (a, c) and column
    q' of a block are (even[i, i'] / (rho_i rho_i') + s_q s_q' odd[j, j']) / 2, where i, j are the
    pairs of q in the two sectors, rho is that of `exchange_sectors`, and s_q is 1, -1 or 0 for
    a < c, a > c or a = c. So it holds both flip blocks of a parity, and a slab. It keeps no block
    it yielded.
    """
    (sizes, view), m = _parity_layout(labels, labels), len(labels)
    flips = _flip_plan(m, m, lambda rows: lambda run: run[0])  # a band per a
    slabs = [[{i: [*group] for i, group in itertools.groupby(bands, lambda band: band[2][0][2])}
              for bands, *_ in specs] for specs in flips]  # per flip block: slab i -> the bands of its a
    factors = []  # per block: the rows' pairs, 1 / (2 rho) and 1 / rho in the even sector, s / 2 and s in the odd
    for swap, ((_, even, rho), (_, odd, _)) in _exchange_layout(labels):
        s = np.sign(swap - np.arange(len(swap)))  # rows (a, c) come in order, so a < c iff q < swap[q]
        factors.append((even, (0.5 / rho[even])[:, None], 1 / rho, odd, (0.5 * s)[:, None], s))

    def rebuild(slab, sectors, i):  # the rows of slab i of each block, from column m i on
        for block, even, odd, (pair_e, row_e, col_e, pair_o, row_o, s) in zip(slab, sectors[::2], sectors[1::2], factors):
            rows, cols = slice(m * i, m * (i + 1)), slice(m * i, None)
            target = block[:len(pair_e[rows]), cols]
            part = even.take(pair_e[rows], 0)
            part *= row_e[rows]
            part *= col_e
            part.take(pair_e[cols], 1, out=target, mode="clip")
            if len(odd):  # else every pair is a = c
                part = odd.take(pair_o[rows], 0)
                part *= row_o[rows]
                part = part.take(pair_o[cols], 1)
                part *= s[cols]
                target += part

    def flip_pair(sectors, odd):  # both flip blocks of one parity
        (ys, part), slab = _flip_buffers(flips[odd], m), [np.empty((m, size), complex) for size in sizes]
        grids = [[view(slab, a0, a0 ^ odd, c0, c0 ^ odd, slab=True) for c0 in (0, 1)] for a0 in (0, 1)]
        for i in range((m + 1) // 2):
            rebuild(slab, sectors, i)
            for y, spec, bands in zip(ys, flips[odd], slabs[odd]):
                for band in bands.get(i, ()):
                    _fill_band(y, part, grids, *band, *spec[1:], slab=i)
        return ys

    def gather(sectors):
        for odd in (0, 1):
            ys = flip_pair(sectors, odd)
            while ys:
                yield ys.pop(0)
    return gather
