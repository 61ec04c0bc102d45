"""Exchange sectors of operators on two copies of one space.

On two copies of one space (the labels of `schmidt._parity_layout` equal,
l1 = l2) an operator u that commutes with the parity and with the exchange
of the copies, u[(a,c),(b,d')] = u[(c,a),(d',b)], has parity blocks that
split once more into an exchange-even and an exchange-odd sector, by the
same pair combination as the flip split of `schmidt.parity_gather`, over
rows and columns. `exchange_sectors` makes them, four matrices of half the
parity blocks' bytes, and `sector_gather` copies the same four flip blocks
out of the sectors through u's rows, rebuilt a slab at a time; so powers of
u may be taken, and certified, in the sectors alone.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .linalg import row_bands
from .schmidt import _fill_band, _flip_buffers, _flip_plan, _parity_layout


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
    combination that `schmidt.parity_gather` applies to flip pairs, with its rho, over rows and
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
