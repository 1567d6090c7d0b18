"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough operator coverage for the stance model: broadcast arithmetic,
matmul, indexing/gather, concat, segment sums, the pointwise functions the
encoder and head use, and one fused op for a graph shell's attention or mean
pooling (shell_aggregate).

shell_aggregate pools a shell's rows with one weight per edge; GAT and GCN
differ only in those weights: the attention softmax, or 1 with each output
row then scaled by 1/|shell|. Both pool through one of two layouts, picked
per call from the shell's shape by dense_layout. The scatter layout
gathers, weights and scatters one (h,) row per edge, in chunks of edges
of at most DENSE_MAX_CELLS cells, so a hub's shell takes memory linear in
its edges; its forward is bit-identical to the chain of elementary ops it
fuses, and its chunks change no byte. The dense layout pools with batched
matmuls over zero-padded blocks and matches that chain within 1e-12, not
bit for bit. It is used only when the whole batch's block fits in
DENSE_MAX_CELLS (16 MiB of float64) and the shell is dense enough
(DENSE_MIN_DENSITY).

The dense layout's format is this module's alone. A batch's Shell carries
a _Block from dense_blocks, which places the batch's balls, row by row,
in zero-padded (samples, rows, ball) blocks. An inner layer's block has
one output row per ball row: its samples, sorted by ball size, are cut
into up to DENSE_BANDS bands of equal count, each padded to its own
widest ball. The last layer's block has one output row per sample and is
one band, as are both blocks of a batch of one. The edge weights fill each
band's block, and one batched matmul pools x's padded rows with it. Every
pool pads x and unpads its output, even where the padding is the identity.

Each op is its forward value plus one vector-Jacobian product (VJP) per
input, the map from the output's gradient g to that input's share of it.
One-input ops are built by _unary, two-input ops by _binary, which sums
each VJP back over broadcast axes. Every gather's VJP scatters through
_scatter_add, one flat bincount that sums each bucket in row order; a
chunked scatter shell adds its later chunks into that output with
np.add.at, in the same order.

Graphs are built per call and discarded, so there is no grad zeroing.
backward() topologically sorts the tape iteratively (sample graphs are
deep enough to overflow Python's recursion limit), runs each node's VJP
once, and then drops that node's gradient: only leaves (tensors no op
made) keep theirs, so a gradient lives only until its inputs have their
shares.
"""

import math
from typing import NamedTuple

import numpy as np

from .encoder import LEAKY_SLOPE


def _unbroadcast(grad, shape):
    """Sum out broadcast axes so grad matches the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _flat_index(index, width: int):
    """The flat positions of rows `index` of an array of `width` columns,
    row by row."""
    return index if width == 1 else (index[:, None] * width + np.arange(width)).ravel()


def _scatter_add(values, index, num_rows):
    """out[index[i]] += values[i] over i in order, into num_rows zero rows.

    Equals np.add.at(zeros, index, values) bit for bit: one flat bincount
    visits the rows in the same order, so every bucket sums in the same
    order. index must be 1-D and non-negative.
    """
    values = np.asarray(values, dtype=np.float64)
    index = np.asarray(index)
    tail = values.shape[1:]
    width = math.prod(tail)
    out = np.bincount(_flat_index(index, width), weights=values.reshape(-1),
                      minlength=num_rows * width)
    return out.astype(np.float64, copy=False).reshape((num_rows,) + tail)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    def _accumulate(self, grad):
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar output")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -as_tensor(other))

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self):
        return tsum(self) * (1.0 / self.data.size)

    def reshape(self, shape):
        return reshape(self, shape)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unary(t: Tensor, value, vjp) -> Tensor:
    """The node of value over the one input t, whose gradient is vjp(g)."""
    return _node(value, (t,), lambda g: t._accumulate(vjp(g)))


def _binary(a: Tensor, b: Tensor, value, vjp_a, vjp_b) -> Tensor:
    """The node of value over inputs a and b; each VJP's result is summed
    over the axes its operand was broadcast along."""

    def backward(g):
        for t, vjp in ((a, vjp_a), (b, vjp_b)):
            if t.requires_grad:
                t._accumulate(_unbroadcast(vjp(g), t.data.shape))

    return _node(value, (a, b), backward)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data * b.data,
                   lambda g: g * b.data, lambda g: g * a.data)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data / b.data,
                   lambda g: g / b.data,
                   lambda g: -g * a.data / (b.data * b.data))


def matmul(a, b) -> Tensor:
    """a @ b of 1-D or 2-D operands.

    The VJPs take a 1-D a as one row (np.atleast_2d) and a 1-D b as one
    column (np.atleast_2d of its transpose), so every product is 2-D by
    2-D. The reshapes stay in the VJPs, off the forward.
    """
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if not (0 < ad.ndim <= 2 and 0 < bd.ndim <= 2):
        raise ValueError("matmul supports 1-D and 2-D operands only")

    def grad_2d(g):  # g as (rows of a, columns of b)
        return g.reshape(len(np.atleast_2d(ad)), len(np.atleast_2d(bd.T)))

    return _binary(a, b, ad @ bd,
                   lambda g: (grad_2d(g) @ np.atleast_2d(bd.T)).reshape(ad.shape),
                   lambda g: (np.atleast_2d(ad).T @ grad_2d(g)).reshape(bd.shape))


def getitem(t: Tensor, key) -> Tensor:
    """t.data[key] for any numpy key: ints, slices, masks, index arrays.

    The VJP gathers the flat positions of the selected elements with the
    same key and scatters g onto them, so repeated positions accumulate.
    """
    shape = t.data.shape

    def vjp(g):
        positions = np.arange(t.data.size).reshape(shape)[key]
        return _scatter_add(np.ravel(g), np.ravel(positions), t.data.size).reshape(shape)

    return _unary(t, t.data[key], vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _node(np.concatenate([t.data for t in tensors], axis=axis),
                 tensors, backward)


def segment_sum(t: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of t into num_segments buckets; empty buckets stay zero."""
    t = as_tensor(t)
    return _unary(t, _scatter_add(t.data, segment_ids, num_segments),
                  lambda g: g[segment_ids])


def relu(t) -> Tensor:
    t = as_tensor(t)
    return _unary(t, np.maximum(t.data, 0.0), lambda g: g * (t.data > 0))


def leaky_relu(t, slope: float) -> Tensor:
    t = as_tensor(t)
    return _unary(t, np.where(t.data > 0, t.data, slope * t.data),
                  lambda g: g * np.where(t.data > 0, 1.0, slope))


def exp(t) -> Tensor:
    t = as_tensor(t)
    out = np.exp(t.data)
    return _unary(t, out, lambda g: g * out)


def log(t) -> Tensor:
    t = as_tensor(t)
    return _unary(t, np.log(t.data), lambda g: g / t.data)


def clip_min(t, floor: float) -> Tensor:
    """Elementwise max(t, floor); gradient flows only where t > floor."""
    t = as_tensor(t)
    return _unary(t, np.maximum(t.data, floor), lambda g: g * (t.data > floor))


def tsum(t, axis=None) -> Tensor:
    t = as_tensor(t)
    return _unary(t, t.data.sum(axis=axis), lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), t.data.shape).copy())


def reshape(t, shape) -> Tensor:
    t = as_tensor(t)
    return _unary(t, t.data.reshape(shape), lambda g: g.reshape(t.data.shape))


def position_sum(w, hist: np.ndarray) -> Tensor:
    """sum over m of w[m] * hist[:, m, :]: the (n, d) weighted sum of the
    (n, L, d) array hist over its L positions, for the (L,) tensor w.

    It fuses the chain w[0] * hist[:, 0, :] + w[1] * hist[:, 1, :] + ...
    and sums in that chain's order, so its value and w's gradient are
    bit-identical to the chain's.
    """
    w = as_tensor(w)
    wd = w.data
    out = hist[:, 0, :] * wd[0]
    for m in range(1, len(wd)):
        out += hist[:, m, :] * wd[m]

    def vjp(g):
        # The chain's mul VJP sums g * hist[:, m, :] over both axes; its
        # getitem VJP adds that into zeros.
        dw = np.zeros(len(wd))
        for m in range(len(wd)):
            dw[m] += (g * hist[:, m, :]).sum(axis=(0, 1))
        return dw

    return _unary(w, out, vjp)


# The dense layout's limits. Its block may hold at most DENSE_MAX_CELLS
# cells (16 MiB of float64), so a hub's ball cannot blow up memory; the
# scatter layout builds its (E, h) arrays in chunks of the same budget.
# And the shell must be dense enough: the E gathered (E, h) neighbour rows
# of the scatter layout must hold at least DENSE_MIN_DENSITY times the
# elements the dense layout builds instead, the (S, R, B) block and the
# (S, B, h) padded rows. The batched matmul is fast enough to beat the gathers and
# scatters while it builds up to twice their elements.
DENSE_MAX_CELLS = 1 << 21
DENSE_MIN_DENSITY = 0.5


def dense_layout(samples: int, rows: int, width: int, edges: int, dim: int) -> bool:
    """Whether a shell of `edges` edges over a (samples, rows, width)
    weight block pools rows of `dim` columns densely (see DENSE_MAX_CELLS)."""
    cells = samples * rows * width
    return (cells <= DENSE_MAX_CELLS
            and edges * dim >= DENSE_MIN_DENSITY * (cells + samples * width * dim))


class _Band(NamedTuple):
    """One size band of a _Block: its (S, R, B) shape, S samples of R
    output rows padded to B ball rows each, and its slices of the block's
    flat weight cells, padded input rows and padded output rows."""

    shape: tuple
    cells: slice
    rows_in: slice
    rows_out: slice


class _Block(NamedTuple):
    """A shell's coordinates in the dense layout (see the module docstring).

    shape is (S, R, B): S samples of R output rows and B = the largest
    ball's size each, the whole batch's block that dense_layout judges;
    bands are laid out one after another. Input row i sits at row pad[i]
    of the padded states and output row j at row out[j] of the padded
    output; place[i] is row i's place in its ball, and row_cell[j] is the
    flat weight cell of output row j's first column.
    """

    shape: tuple
    bands: tuple
    pad: np.ndarray
    out: np.ndarray
    row_cell: np.ndarray
    place: np.ndarray

    @classmethod
    def padded(cls, shape, pad, out):
        """One band: every sample padded to the widest ball, B = shape[2]."""
        samples, rows, width = shape
        band = _Band(shape, slice(0, samples * rows * width), slice(0, samples * width),
                     slice(0, samples * rows))
        return cls(shape, (band,), pad, out, out * width, pad % width)


class Shell(NamedTuple):
    """The edges of one shell order in a batch: edge i joins row centers[i]
    to row neighbors[i] and feeds output row segments[i] of `size`. block
    lets shell_aggregate pick the dense layout; without it the op scatters."""

    centers: np.ndarray
    neighbors: np.ndarray
    segments: np.ndarray
    size: int
    block: _Block | None = None


# Size bands of a training batch's inner dense blocks (see dense_blocks).
# On 64-post train_small batches, three bands pool as fast as four or six,
# and one or two bands are slower (timings in ROADMAP.md).
DENSE_BANDS = 3


def dense_blocks(sizes, offsets):
    """The inner and the last-layer _Block of a batch of balls of these
    sizes, each starting at its offset in the batch's rows.

    Equal sizes keep their batch order in the bands, and the batch's rows
    keep theirs; only their padded coordinates move. The last layer stays
    one band: its products run as vector-matrix products, whose sums
    depend on the padded width.
    """
    n_samples, width = len(sizes), int(sizes.max())
    if n_samples == 1:
        # Every forward is a batch of one. The general path below builds
        # the same blocks at three to four times the cost of these two
        # calls, which slowed forward by 6-9% on 200-user worlds.
        rows = np.arange(width)
        return (_Block.padded((1, width, width), rows, rows),
                _Block.padded((1, 1, width), rows, rows[:1]))
    place = np.arange(offsets[-1] + sizes[-1]) - np.repeat(offsets, sizes)
    last = _Block.padded((n_samples, 1, width),
                         place + np.repeat(np.arange(n_samples) * width, sizes),
                         np.arange(n_samples))
    rank = np.argsort(sizes, kind="stable")
    in_base, cell_base, band_width = (np.empty(n_samples, dtype=np.intp) for _ in range(3))
    bands = []
    rows = cells = 0
    for members in np.array_split(rank, min(DENSE_BANDS, n_samples)):
        count, band = len(members), int(sizes[members[-1]])
        local = np.arange(count)
        in_base[members] = rows + local * band
        cell_base[members] = cells + local * band * band
        band_width[members] = band
        bands.append(_Band((count, band, band), slice(cells, cells + count * band * band),
                           slice(rows, rows + count * band), slice(rows, rows + count * band)))
        rows += count * band
        cells += count * band * band
    pad = place + np.repeat(in_base, sizes)
    row_cell = np.repeat(cell_base, sizes) + place * np.repeat(band_width, sizes)
    return _Block((n_samples, width, width), tuple(bands), pad, pad, row_cell, place), last


def _pad(rows, index, total: int):
    """(total, h) zeros holding rows[i] at row index[i]."""
    out = np.zeros((total, rows.shape[1]))
    out[index] = rows
    return out


class _DensePool:
    """Weighted pooling through zero-padded weight blocks, one per band.

    Edge i's weight goes to cell row_cell[segments[i]] + place[neighbors[i]]
    of the bands' flat weight cells, so repeated (row, neighbour) pairs add
    up, and each band pools with one batched matmul of its (S, R, B) block
    and its (S, B, h) padded rows of x.
    """

    def __init__(self, xd, shell, weights):
        self.block = block = shell.block
        end = block.bands[-1]
        h = xd.shape[1]
        self.cells = block.row_cell[shell.segments] + block.place[shell.neighbors]
        self.a = np.bincount(self.cells, weights=weights, minlength=end.cells.stop)
        self.xp = _pad(xd, block.pad, end.rows_in.stop)
        pooled = np.empty((end.rows_out.stop, h))
        for (s, r, b), cells, rows_in, rows_out in block.bands:
            np.matmul(self.a[cells].reshape(s, r, b), self.xp[rows_in].reshape(s, b, h),
                      out=pooled[rows_out].reshape(s, r, h))
        self.value = pooled.take(block.out, axis=0)

    def grads(self, g, weight_grad: bool = True):
        """(gradient of the E weights, gradient of x through the pool) for
        the output gradient g; the first is None when weight_grad is False."""
        h = g.shape[1]
        gp = _pad(g, self.block.out, self.block.bands[-1].rows_out.stop)
        product = np.empty(len(self.a)) if weight_grad else None
        dxp = np.empty(self.xp.shape)
        for (s, r, b), cells, rows_in, rows_out in self.block.bands:
            g_band = gp[rows_out].reshape(s, r, h)
            if weight_grad:
                np.matmul(g_band, self.xp[rows_in].reshape(s, b, h).transpose(0, 2, 1),
                          out=product[cells].reshape(s, r, b))
            np.matmul(self.a[cells].reshape(s, r, b).transpose(0, 2, 1), g_band,
                      out=dxp[rows_in].reshape(s, b, h))
        dweights = product[self.cells] if weight_grad else None
        return dweights, dxp.take(self.block.pad, axis=0)


def _edge_chunks(segments, width: int):
    """(start, stop) ranges of the edges, in order, that _ScatterPool
    takes together: each chunk's (edges, width) arrays hold at most
    DENSE_MAX_CELLS cells, the dense layout's budget.

    Chunks are cut where the (non-decreasing) segments change, so every
    segment's edges are in one chunk; a segment with more edges than the
    budget allows is a chunk of its own. Edges that fit are one chunk.
    """
    total = len(segments)
    step = max(DENSE_MAX_CELLS // max(width, 1), 1)
    if total <= step:
        return [(0, total)]
    chunks, start = [], 0
    while start < total:
        stop = start + step
        if stop >= total:
            stop = total
        else:
            stop = int(np.searchsorted(segments, segments[stop], "left"))
            if stop <= start:
                stop = int(np.searchsorted(segments, segments[start], "right"))
        chunks.append((start, stop))
        start = stop
    return chunks


class _ScatterPool:
    """Weighted pooling edge by edge: gather x[neighbors], weight the rows
    and scatter them to segments.

    The (E, h) arrays are built one chunk of edges at a time (_edge_chunks),
    so a hub's shell takes memory linear in E, not E times h. Every
    segment's edges are in one chunk and sum in edge order, so the value
    equals one flat scatter bit for bit. Backward scatters the first
    chunk's rows to the neighbours by bincount and adds each later chunk's
    into that running output in edge order (np.add.at), which equals one
    bincount bit for bit too. A shell within the budget is one chunk, whose
    gathered rows are kept for backward; a chunked shell gathers them again.
    """

    def __init__(self, xd, shell, weights):
        self.xd, self.shell, self.weights = xd, shell, weights
        segments, neighbors = shell.segments, shell.neighbors
        self.chunks = _edge_chunks(segments, xd.shape[1])
        self.gathered = None
        if len(self.chunks) == 1:
            self.gathered = xd.take(neighbors, axis=0)
            self.value = _scatter_add(weights[:, None] * self.gathered, segments, shell.size)
            return
        self.value = np.zeros((shell.size, xd.shape[1]))
        for start, stop in self.chunks:
            first, last = segments[start], segments[stop - 1] + 1
            rows = xd.take(neighbors[start:stop], axis=0)
            rows *= weights[start:stop, None]
            self.value[first:last] = _scatter_add(rows, segments[start:stop] - first,
                                                  last - first)

    def grads(self, g, weight_grad: bool = True):
        """As _DensePool.grads."""
        segments, neighbors = self.shell.segments, self.shell.neighbors
        n, h = self.xd.shape
        dweights = np.empty(len(segments)) if weight_grad else None
        dx = None
        for start, stop in self.chunks:
            spread = g[segments[start:stop]]
            if weight_grad:
                gathered = (self.gathered if self.gathered is not None
                            else self.xd.take(neighbors[start:stop], axis=0))
                dweights[start:stop] = np.einsum("ij,ij->i", spread, gathered)
            spread *= self.weights[start:stop, None]
            if dx is None:
                dx = _scatter_add(spread, neighbors[start:stop], n)
            else:
                np.add.at(dx.reshape(-1), _flat_index(neighbors[start:stop], h),
                          spread.reshape(-1))
        return dweights, dx


def shell_aggregate(x, shell, attn=None) -> Tensor:
    """Pool rows of the (n, h) tensor x over one shell's edges: (shell.size, h).

    Edge i carries row shell.neighbors[i] of x to output row
    shell.segments[i], which never decreases with i; shell.centers[i] is
    the row it is centred on. GAT
    and GCN differ only in the edge weights. With attn (2h,) the pool is
    GAT's: edge weights are the max-shifted softmax, per output row, of
    leaky_relu(x[centers] @ attn[:h] + x[neighbors] @ attn[h:], LEAKY_SLOPE).
    Without, it is GCN's mean: every edge weighs 1 and each output row is
    then scaled by 1/|shell|, one over its edge count. A row without edges
    is zero; a shell without edges gives zeros and zero gradients.

    One tape node with a hand-written backward and two layouts, chosen
    from the shell's shape alone by dense_layout, for both aggregators:
    - scatter (shell.block is None, or the block is too large or too
      sparse): gather the (E, h) neighbour rows, weight them and scatter
      them to the output rows, in chunks of edges of at most
      DENSE_MAX_CELLS cells (_ScatterPool). Its forward runs the numpy
      ops of the composed getitem / leaky_relu / exp / segment_sum / div /
      mul chain in that chain's order (a weight of 1 leaves a row exact),
      so its values are bit-identical to that chain.
    - dense: the E edge weights fill zero-padded (S, R, B) blocks (S
      samples, R output rows and B ball rows each), one per band of
      shell.block, which holds the padded coordinates, and one batched
      matmul per band pools its padded rows. dense_layout judges the
      whole batch's block, shell.block.shape. BLAS sums in another order,
      so values match the chain within 1e-12, not bit for bit; a sample's
      values do not depend on its band's width.
    Both backwards sum in another order than the chain; only E-length
    scalar scatters (softmax denominators, the score gradients of centres
    and neighbours) are left outside the pool.
    """
    x = as_tensor(x)
    xd = x.data
    n, h = xd.shape
    centers, neighbors, segments, size = (shell.centers, shell.neighbors,
                                          shell.segments, shell.size)
    block = shell.block
    dense = block is not None and dense_layout(*block.shape, centers.size, h)
    if attn is None:
        weights = np.ones(centers.size)
    else:
        attn = as_tensor(attn)
        ad = attn.data
        raw = (xd @ ad[:h])[centers] + (xd @ ad[h:])[neighbors]
        scores = np.where(raw > 0, raw, LEAKY_SLOPE * raw)
        shift = np.full(size, -np.inf)
        np.maximum.at(shift, segments, scores)
        expd = np.exp(scores - shift[segments])
        weights = expd / _scatter_add(expd, segments, size)[segments]
    pool = _DensePool(xd, shell, weights) if dense else _ScatterPool(xd, shell, weights)
    if attn is None:
        scale = 1.0 / np.maximum(np.bincount(segments, minlength=size), 1)[:, None]
        return _node(pool.value * scale, (x,), lambda g: x._accumulate(
            pool.grads(g * scale, weight_grad=False)[1]))

    def backward(g):
        dweights, dx = pool.grads(g)
        dscores = weights * (dweights
                             - _scatter_add(weights * dweights, segments, size)[segments])
        draw = np.where(raw > 0, dscores, LEAKY_SLOPE * dscores)
        dcenter = _scatter_add(draw, centers, n)
        dneighbor = _scatter_add(draw, neighbors, n)
        if x.requires_grad:
            dx += np.outer(dcenter, ad[:h])
            dx += np.outer(dneighbor, ad[h:])
            x._accumulate(dx)
        if attn.requires_grad:
            attn._accumulate(np.concatenate([dcenter @ xd, dneighbor @ xd]))

    return _node(pool.value, (x, attn), backward)
