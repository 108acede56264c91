"""Linear networks: record, evaluate and transpose straight-line kernels.

Any linear algorithm can be drawn as a weighted DAG where edges multiply
by constants and vertices sum their incoming edges.  Reversing every edge
computes the transposed matrix, and for networks with equally many inputs
and outputs the reversal preserves the operation count exactly:

* additions = n_inputs + |E| - |V|  (each non-input vertex contributes
  indegree - 1),
* multiplications = number of edges whose weight is not +-1.

A :class:`LinearNetwork` keeps its vertices in evaluation order: every
edge runs from a lower to a higher vertex id, and the incoming edges of
each vertex are contiguous in ``edges``, grouped by ascending
destination.  The edges are columnar, one structured numpy array of
``(src, dst, w)``, so validation, counting and transposition are
vectorized passes over it.  :func:`record` and
:meth:`LinearNetwork.transpose` return their networks compacted, in the
manner of the DAG simplification of FFTW's generator: the interior
vertices whose removal changes no float operation are gone, namely unit
aliases (renames), -1 vertices (their consumers' weights are negated) and
multiplications read once through a +-1 edge (folded into that edge as
+-w).  Each removal drops one vertex and one edge, so both counts above
hold for the compacted graph too.  A network built directly from edges
runs them as given.

Evaluation has two executors with bit-identical results, and the edge
count alone picks one.  Below :data:`PROGRAM_MIN_EDGES` edges it is a
codelet: straight-line Python source generated from the compacted network
as it stands, one statement per vertex, compiled once and kept with the
network.  At or above it, float64 values and objects (the
:class:`TraceScalar` values of a recording among them) run through a
vertex-major program.  A vectorized wavefront sorts the vertices into
levels of independent vertices and numbers them anew, level by level, so
that each step of a level (one per in-edge rank, usually two) is one
numpy gather and multiply whose result sets or adds to one contiguous
slice of the values, with no scatter.  The program's columns then replace
the edge array as the network's one copy of its edges; ``edges`` rebuilds
them, in evaluation order, when it is asked for.  An array goes into the
program and its output array, of the input's dtype, comes back as it is;
a codelet always runs on Python scalars.

Kernels are recorded by running them on :class:`TraceScalar` values (in
an object array) whose arithmetic builds the graph: every scalar add/sub creates a two-input
vertex, every multiplication by a constant creates a weighted edge into a
pass-through vertex, and negation is a free -1 edge.  Each new vertex
takes its edges when it is created, so a recording is in evaluation order;
the recorder appends them to typed columns, with no Python object per
edge.  A kernel written on whole arrays (the row recursion of the real
DFTs in :mod:`fastdcst.fft_real`) is recorded by :func:`record_rows` on a
:class:`TraceRows`, an array of vertex ids: each of its operations makes
one vertex per element with the in-edges a :class:`TraceScalar` would
give it, and appends their edges to the same columns, in place, as whole
columns.  So one recording costs a few numpy passes per (variant, size)
of the recursion, not one Python call per operation, and it is the scalar
trace renumbered.  The DCT-III kernel evaluates the transpose of one of
these networks from its second call on, which is how it inherits the DCT-II
flop count without a hand-derived decimation-in-frequency FFT (its first
calls run the row recursion backwards, with the transpose's bits); the
forward DCT-II/DST-II kernels run the network it transposes; and the small
public transforms are recorded whole as networks (plans) that run as
codelets.
"""

from __future__ import annotations

import math
import numbers
from array import array

import numpy as np

__all__ = ["LinearNetwork", "TraceError", "record", "record_rows"]

EDGE_DTYPE = np.dtype([("src", np.int64), ("dst", np.int64), ("w", np.float64)])

# Networks with at least this many edges evaluate floats as a vertex-major
# numpy program; smaller ones run their codelet.  The spectrum networks are
# counted as record() and transpose() return them, compacted.  Warm, on the
# compacted forward, plain and transposed spectrum networks with an array in
# and out (2-CPU Xeon, medians of 15x200 calls, three runs on a shared
# host), the codelet is ahead at N=64 (840-904 edges: 21-25 against 35-39
# us), level or behind at N=128 (2,046-2,174 edges: 45-62 against 37-51 us)
# and behind at N=256 (4,822-5,078 edges: 107-188 against 34-68 us).  At
# N=128 compiling a codelet costs 11-20 ms and building the program 1.6-2.4
# ms, paid once per network on a configuration's second call, so the
# threshold stays between N=64 and N=128: spectrum networks run as codelets
# at N=32 and 64 and as programs from N=128 on.
PROGRAM_MIN_EDGES = 1024

# One codelet statement sums at most this many terms before it is continued.
_CODELET_MAX_TERMS = 64


class TraceError(TypeError):
    """The traced kernel performed an operation that is not linear."""


class _Trace:
    # the edges so far as three typed columns, in the order they were made
    __slots__ = ("n_vertices", "src", "dst", "w")

    def __init__(self, n_inputs):
        self.n_vertices = n_inputs
        self.src = array("q")
        self.dst = array("q")
        self.w = array("d")

    def scaled(self, s, w):
        # a new vertex of one edge, from s with weight w
        u = self.n_vertices
        self.n_vertices = u + 1
        self.src.append(s)
        self.dst.append(u)
        self.w.append(w)
        return u

    def vertices(self, *terms):
        """New vertices, one per place of the sources' shape, as their ids
        in that shape.  ``terms`` are ``(source ids, weight)`` pairs, the
        weight a float or an array that broadcasts to the sources: the new
        vertex at each place reads, in order, each term's source at that
        place with the term's weight there.  The edges are appended to the
        columns in place, grouped by their new vertex, so the trace stays
        in evaluation order."""
        shape = terms[0][0].shape
        for s, _ in terms[1:]:
            if s.shape != shape:
                shape = np.broadcast_shapes(shape, s.shape)
        d = len(terms)
        src = np.empty(shape + (d,), dtype=np.int64)
        w = np.empty(shape + (d,))
        for j, (s, c) in enumerate(terms):
            src[..., j] = s
            w[..., j] = c
        u = self.n_vertices
        self.n_vertices = v = u + w.size // d
        ids = np.arange(u, v, dtype=np.int64)
        self.src.frombytes(memoryview(src).cast("B"))
        self.dst.frombytes(memoryview(ids if d == 1 else ids.repeat(d)).cast("B"))
        self.w.frombytes(memoryview(w).cast("B"))
        return ids.reshape(shape)

    def network(self, n_inputs, out_ids):
        """The trace, its first ``n_inputs`` vertices the inputs, as a
        compacted network (:func:`_compact`) with outputs ``out_ids``."""
        # each column cut to its length, without the spare capacity of its
        # growth, one at a time, so that no second copy of the edges is made
        cols = []
        for name in ("src", "dst", "w"):
            cols.append(np.array(getattr(self, name)))
            setattr(self, name, None)
        return _compact(self.n_vertices, *cols, np.arange(n_inputs), out_ids)


class TraceScalar:
    """A symbolic real value flowing through a kernel under recording."""

    __slots__ = ("trace", "v")

    def __init__(self, trace, v):
        self.trace = trace
        self.v = v

    def _combine(self, other, w_other):
        if not isinstance(other, TraceScalar):
            raise TraceError(
                "adding a constant to a traced value: kernel is affine, not linear"
            )
        tr = self.trace
        # the hot path of a recording, so the vertex and its two edges are
        # made inline
        u = tr.n_vertices
        tr.n_vertices = u + 1
        src, dst, w = tr.src, tr.dst, tr.w
        src.append(self.v)
        dst.append(u)
        w.append(1.0)
        src.append(other.v)
        dst.append(u)
        w.append(w_other)
        return TraceScalar(tr, u)

    def __add__(self, other):
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __rsub__(self, other):
        raise TraceError("subtracting a traced value from a constant")

    def __mul__(self, c):
        if type(c) is not float:
            if isinstance(c, TraceScalar):
                raise TraceError("product of two traced values: kernel is not linear")
            if not isinstance(c, numbers.Real):
                raise TraceError(f"cannot scale a traced value by {type(c).__name__}")
            c = float(c)
        return TraceScalar(self.trace, self.trace.scaled(self.v, c))

    __rmul__ = __mul__

    def __neg__(self):
        return TraceScalar(self.trace, self.trace.scaled(self.v, -1.0))

    def __pos__(self):
        return self

    def __truediv__(self, c):
        raise TraceError("kernels must not divide at transform time")


class TraceRows:
    """Symbolic real values in an array, one vertex id per element.

    The value type of a kernel that runs on whole arrays at once (the row
    kernels of :mod:`fastdcst.fft_real`).  Indexing gives the ids at those
    places, and assigning to a place sets its id, so moving values costs
    no vertex.  Each arithmetic operation makes one vertex per element with
    the in-edges :class:`TraceScalar` gives it (a sum reads its two
    operands with weights 1 and +-1, a product by a constant or a column
    of constants reads its operand with that weight, a negation with
    -1), appended as whole edge columns by :meth:`_Trace.vertices`.
    """

    __slots__ = ("trace", "v")
    # numpy arrays hand their operators with these over to these
    __array_ufunc__ = None

    def __init__(self, trace, v):
        self.trace = trace
        self.v = v

    @property
    def shape(self):
        return self.v.shape

    @property
    def size(self):
        return self.v.size

    def __len__(self):
        return len(self.v)

    def __getitem__(self, i):
        return TraceRows(self.trace, self.v[i])

    def __setitem__(self, i, other):
        self.v[i] = self._ids(other)

    def empty(self, shape):
        """Values of this trace still to be set: id -1, which no edge may read."""
        return TraceRows(self.trace, np.full(shape, -1, dtype=np.int64))

    def _ids(self, other):
        if type(other) is not TraceRows or other.trace is not self.trace:
            raise TraceError("adding a constant to a traced value: kernel is affine, not linear")
        return other.v

    def _new(self, *terms):
        return TraceRows(self.trace, self.trace.vertices(*terms))

    def __add__(self, other):
        return self._new((self.v, 1.0), (self._ids(other), 1.0))

    __radd__ = __add__

    def __sub__(self, other):
        return self._new((self.v, 1.0), (self._ids(other), -1.0))

    def __rsub__(self, other):
        raise TraceError("subtracting a traced value from a constant")

    def __mul__(self, c):
        if isinstance(c, (TraceRows, TraceScalar)):
            raise TraceError("product of two traced values: kernel is not linear")
        return self._new((self.v, np.asarray(c, dtype=np.float64)))

    __rmul__ = __mul__

    def __neg__(self):
        return self._new((self.v, -1.0))

    def __truediv__(self, c):
        raise TraceError("kernels must not divide at transform time")


class LinearNetwork:
    """Weighted DAG with designated input and output vertices.

    ``edges`` is a structured array of :data:`EDGE_DTYPE` (``src``, ``dst``,
    ``w``); a sequence of ``(src, dst, w)`` tuples is converted on the way
    in, and ``len(edges)`` and ``for src, dst, w in edges`` work as on a
    list.  The vertices must be in evaluation order (see the module
    docstring) and every id must lie in ``0 .. n_vertices-1``; a network
    that breaks either raises ``ValueError`` here, before any value is
    computed.  The network runs its edges as given; :func:`record` and
    :meth:`transpose` compact the networks they return.  Edges and
    vertices are not to be changed afterwards: the codelet and the
    program are built from them once, on first use, and held on the
    network (the program in place of the edge array).
    """

    def __init__(self, n_vertices, edges, inputs, outputs):
        self.n_vertices = n_vertices
        if not (isinstance(edges, np.ndarray) and edges.dtype == EDGE_DTYPE):
            edges = np.fromiter(edges, dtype=EDGE_DTYPE)
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self._in_ids = np.array(self.inputs, dtype=np.intp)
        self._out_ids = np.array(self.outputs, dtype=np.intp)
        src, dst, w = edges["src"], edges["dst"], edges["w"]
        for bad, what in (((src < 0) | (src >= dst), "does not run to a higher id"),
                          (dst >= n_vertices, f"ends past the last vertex {n_vertices - 1}")):
            if bad.any():
                i = bad.argmax()
                raise ValueError(f"edge {src[i]}->{dst[i]} {what}")
        for name, ids in (("input", self._in_ids), ("output", self._out_ids)):
            bad = (ids < 0) | (ids >= n_vertices)
            if bad.any():
                raise ValueError(
                    f"{name} vertex {ids[bad.argmax()]} is not among the {n_vertices} vertices")
        bad = dst[1:] < dst[:-1]
        if bad.any():
            raise ValueError(f"incoming edges of vertex {dst[bad.argmax() + 1]} are not contiguous")
        summed = np.zeros(n_vertices, dtype=bool)
        summed[dst] = True
        for i, v in enumerate(self.inputs):
            if summed[v]:
                what = "is repeated" if v in self.inputs[:i] else "has incoming edges"
                raise ValueError(f"input vertex {v} {what}")
            summed[v] = True
        if not summed.all():
            raise ValueError(
                f"vertex {np.argmin(summed)} is neither an input nor a sum")
        mults = int(np.count_nonzero((w != 1.0) & (w != -1.0)))
        self._flops = (len(self.inputs) + len(edges) - n_vertices, mults)
        self._n_edges = len(edges)
        self._codelet = None
        # the edge array, until the program (order, src, w, steps, outputs)
        # is built and replaces it
        self._program = None
        self._edges = edges

    @property
    def edges(self):
        """The edges in evaluation order, as an array of :data:`EDGE_DTYPE`.

        A network with a program holds its edges in the program's columns
        only, and builds this array anew on each access: step ``k`` of a
        vertex is its ``k``-th in-edge, so each step's terms go back to
        their places in evaluation order exactly.
        """
        edges = self._edges
        if edges is not None:
            return edges
        order, _, _, steps, _ = self._program
        indeg = np.zeros(self.n_vertices, dtype=np.int64)
        for _, a, b, _, _ in steps:
            indeg[order[a:b]] += 1
        first = np.cumsum(indeg) - indeg  # the place of each vertex's first in-edge
        edges = np.empty(self._n_edges, dtype=EDGE_DTYPE)
        for k, a, b, src, w in steps:
            e = first[order[a:b]] + k
            edges["src"][e], edges["dst"][e], edges["w"][e] = order[src], order[a:b], w
        return edges

    def structural_flops(self) -> tuple[int, int]:
        """(additions, multiplications) determined by the graph shape alone."""
        return self._flops

    def indegree_adds(self) -> int:
        """Direct indegree-1 summation; cross-checks ``structural_flops``."""
        indeg = np.bincount(self.edges["dst"], minlength=self.n_vertices)
        indeg[self._in_ids] = 1
        return int(np.sum(indeg - 1))

    def transpose(self) -> "LinearNetwork":
        """Reverse every edge and swap the input/output roles.

        The result computes the transposed matrix.  Vertices are numbered
        from the highest forward id down and each takes its reversed edges
        in their forward order (a stable sort by descending source), which
        keeps the reversal in evaluation order; the reversal is then
        compacted (:func:`_compact`), as :func:`record` compacts a
        recording, which leaves both structural counts intact.  A vertex
        repeated among the outputs would be repeated among the inputs of
        the result, so it is refused with ``ValueError``.
        """
        ids, counts = np.unique(self._out_ids, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"output vertex {ids[counts > 1][0]} is repeated, so the "
                             "transpose would take it as an input twice")
        top = self.n_vertices - 1
        edges = self.edges
        order = np.argsort(-edges["src"], kind="stable")
        src, dst, w = top - edges["dst"][order], top - edges["src"][order], edges["w"][order]
        del edges, order
        return _compact(self.n_vertices, src, dst, w, (top - self._out_ids).tolist(),
                        (top - self._in_ids).tolist())

    def eval(self, x, ledger=None):
        """Evaluate the network on a vector of length ``len(inputs)``.

        Each vertex adds its incoming terms in their listed order.  A
        network of at least :data:`PROGRAM_MIN_EDGES` edges runs its
        vertex-major program, built on the first such call, on float64
        values and on objects, :class:`TraceScalar` values among them (so
        a kernel that embeds a network can itself be recorded); a smaller
        network runs its codelet, compiled on first use, on Python scalars,
        and so does a large one on any other dtype.  Both executors give
        bit-identical floats, and recording through either gives the
        network's structural counts.  An array in gives an array out (of
        objects for objects, else of float64), any other sequence a list.
        """
        if len(x) != len(self.inputs):
            raise ValueError(f"expected {len(self.inputs)} inputs, got {len(x)}")
        if ledger is not None:
            ledger.adds += self._flops[0]
            ledger.mults += self._flops[1]
        if self._n_edges >= PROGRAM_MIN_EDGES:
            xs = np.asarray(x)
            if xs.dtype == np.float64 or xs.dtype == object:
                y = self._run(xs)
                return y if xs is x else y.tolist()
        codelet = self.codelet()
        if type(x) is not list and isinstance(x, np.ndarray):
            dtype = object if x.dtype == object else np.float64
            return np.fromiter(codelet(x.tolist()), dtype, len(self.outputs))
        return codelet(x)

    def codelet(self):
        """The network as straight-line Python from a list to a list, compiled
        on first use and kept; it checks nothing and counts no flops."""
        if self._codelet is None:
            self._codelet = _codelet(self)
        return self._codelet

    def _run(self, xs):
        program = self._program if self._program is not None else self._compile()
        vals = np.empty(len(program[0]), dtype=xs.dtype)
        vals[:len(xs)] = xs
        for k, a, b, src, w in program[3]:
            terms = vals[src]
            terms *= w
            if k:
                vals[a:b] += terms
            else:
                vals[a:b] = terms
        return vals[program[4]]

    def _compile(self):
        """Build the vertex-major program of the network.

        A vertex of level ``l`` (one more than the highest level among its
        sources; the inputs are level 0) is set to ``w0 * vals[s0]``, and
        its second and later in-edges then add ``w * vals[s]`` to it in
        their listed order, so every sum keeps the codelet's order and
        rounding (multiplying by +-1 is exact).  The vertices are numbered
        anew, level by level, the inputs first in their listed order and
        each later level by descending in-degree, so the ``k``-th terms of
        a level go to a prefix of its vertices: every step reads its
        sources with one gather and writes one contiguous slice.

        :func:`_vertex_major` builds it, finding the levels a wavefront at
        a time over successor lists (:func:`_wavefront`), so each edge is
        read once.  The program's columns then replace the edge array as
        the network's one copy of its edges.  The program is published before
        the edge array is dropped, so a network shared between threads
        always has one or the other, and a build that raises leaves the
        network as it was.
        """
        self._program = _vertex_major(self.edges, self.n_vertices, self._in_ids, self._out_ids)
        self._edges = None
        return self._program

    def dumps(self) -> str:
        """Debug dump: one ``from to weight`` line per edge."""
        lines = [
            "# inputs: " + " ".join(map(str, self.inputs)),
            "# outputs: " + " ".join(map(str, self.outputs)),
        ]
        lines += [f"{src} {dst} {w!r}" for src, dst, w in self.edges.tolist()]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        a, m = self._flops
        return (
            f"LinearNetwork({len(self.inputs)}->{len(self.outputs)}, "
            f"|V|={self.n_vertices}, |E|={self._n_edges}, adds={a}, mults={m})"
        )


def _compact(n_vertices, src, dst, w, inputs, outputs):
    """The network of the edges ``src``, ``dst``, ``w`` (one column each)
    without the vertices whose removal keeps every float operation exact.

    An interior vertex (neither an input nor an output) with one in-edge
    goes if that edge weighs +-1 (an alias: its consumers read its source,
    their weights negated for -1; chains resolve by pointer jumping), or
    if it is a multiplication whose one consumer, after that, reads it
    through a +-1 edge (the product moves onto that edge as +-w).  Both
    change one product by a sign at most, which is exact, and each
    removal drops one vertex and one edge, so both structural counts hold.
    A multiplication read twice or through a weighted edge stays.  The
    kept edges keep their order and the kept vertices are numbered in
    theirs, so the edges must be in evaluation order and the result is.
    ``src`` and ``w`` are overwritten, and the bookkeeping is int32 and
    bool, for the peak memory.  The result goes through the
    :class:`LinearNetwork` constructor's checks.
    """
    n = n_vertices
    first = _offsets(dst, n)
    single = np.diff(first) == 1  # inputs have no in-edge
    single[outputs] = False
    v1 = np.flatnonzero(single).astype(np.int32)
    unit = np.abs(w[first[v1]]) == 1.0
    alias, mult = v1[unit], v1[~unit]
    del single, v1, unit
    ptr = np.arange(n, dtype=np.int32)  # to the kept vertex each one reads
    neg = np.zeros(n, dtype=bool)  # and whether it reads it negated
    ptr[alias], neg[alias] = src[first[alias]], w[first[alias]] < 0
    ptr = _chain_ends(ptr, neg)
    # each edge reads the end of its source's chain, with that chain's sign
    np.negative(w, out=w, where=neg[src])
    src[:] = ptr[src]
    del ptr, neg
    gone = np.zeros(n, dtype=bool)
    gone[alias] = True
    # a multiplication read once, through a +-1 edge, folds into that edge
    once = np.zeros(n, dtype=bool)
    once[mult] = True
    live = ~gone[dst]  # the edges into vertices that are not aliases
    once &= np.bincount(src[once[src] & live], minlength=n) < 2
    fold = np.flatnonzero(once[src] & live & ((w == 1.0) | (w == -1.0)))
    del once, live
    m = src[fold]
    into = first[m]  # the one in-edge of each folded multiplication
    gone[m] = True
    w[fold] *= w[into]
    src[fold] = src[into]
    del m, into, fold, first
    kept = ~gone[dst]
    new_id = np.cumsum(~gone, dtype=np.int32) - 1
    edges = np.empty(int(np.count_nonzero(kept)), dtype=EDGE_DTYPE)
    edges["w"] = w[kept]
    edges["dst"] = new_id[dst[kept]]
    edges["src"] = new_id[src[kept]]
    del kept
    return LinearNetwork(n - int(np.count_nonzero(gone)), edges,
                         new_id[inputs].tolist(), new_id[outputs].tolist())


def _chain_ends(ptr, neg):
    """Where each chain of ``ptr`` (a vertex points at the one it reads,
    a kept vertex at itself) ends, by pointer jumping; ``neg`` becomes in
    place whether each vertex reads that end negated (the parity of the
    signs along its chain)."""
    while True:
        up = ptr[ptr]
        if np.array_equal(up, ptr):
            return ptr
        neg ^= neg[ptr]
        ptr = up


def _vertex_major(edges, n_vertices, inputs, outputs):
    """The program ``(order, src, w, steps, outputs)`` of a network (see
    :meth:`LinearNetwork._compile`): the old id of each new vertex, the
    sources in the new numbering and the weights in step order, the steps
    ``(k, a, b, src, w)`` as slices of those two columns, and the outputs'
    new ids."""
    first = _offsets(edges["dst"], n_vertices)
    levels = _wavefront(edges["src"], first, inputs)
    sizes = list(map(len, levels))
    order = np.concatenate(levels)  # the old id of each new vertex
    del levels
    # the k-th terms of a level: the k-th in-edges of its vertices with
    # more than k, at first[v] + k among the edges
    steps, a, i = [], sizes[0], 0
    for size in sizes[1:-1]:  # the last wave found no vertex
        vs = order[a:a + size]
        deg = first[vs + 1] - first[vs]
        for k in range(deg[0]):
            b = a + int(np.count_nonzero(deg > k))
            steps.append((k, a, b, i, i + b - a))
            i += b - a
        a += size
    # one column at a time, and the sources renumbered in place
    w_col = np.empty(len(edges))
    src_col = np.empty(len(edges), dtype=np.intp)
    for k, a, b, i, j in steps:
        e = first[order[a:b]] + k
        w_col[i:j] = edges["w"][e]
        src_col[i:j] = edges["src"][e]
    del first
    new_id = np.empty(n_vertices, dtype=np.int32)
    new_id[order] = np.arange(len(order), dtype=np.int32)
    for _, _, _, i, j in steps:
        src_col[i:j] = new_id[src_col[i:j]]
    steps = [(k, a, b, src_col[i:j], w_col[i:j]) for k, a, b, i, j in steps]
    return order, src_col, w_col, steps, new_id[outputs].astype(np.intp)


def _wavefront(src, first, inputs):
    """The levels of a network whose edges read ``src``, grouped by
    destination at the offsets ``first``, as int32 arrays of vertex ids,
    each level by descending in-degree, the inputs first in their order
    and an empty last level.  A vertex is complete once all of its sources
    are, so the successors of wave ``l - 1``, counted against each
    vertex's in-degree, complete exactly the vertices of level ``l``."""
    succ, succ_first = _successors(src, first)
    succ_first = succ_first.astype(np.intp)  # a wave's ids are intp, which index fastest
    pending = np.diff(first)  # sources not yet complete, per vertex
    done = inputs
    levels = [done.astype(np.int32)]
    while done.size:
        lo = succ_first[done]
        count = succ_first[done + 1] - lo
        end = np.cumsum(count)
        hit = succ[np.repeat(lo - end + count, count) + np.arange(end[-1])].astype(np.intp)
        hit.sort()
        last = np.empty(len(hit), dtype=bool)  # the last read of each vertex
        np.not_equal(hit[1:], hit[:-1], out=last[:-1])
        last[-1:] = True
        at = np.flatnonzero(last)
        touched = hit[at]
        pending[touched] -= np.diff(at, prepend=-1)  # its reads
        done = touched[pending[touched] == 0]
        done = done[np.argsort(first[done] - first[done + 1], kind="stable")]
        levels.append(done.astype(np.int32))
    return levels


def _successors(src, first):
    """The vertices that read each vertex: ``succ[succ_first[u]:succ_first[u
    + 1]]`` read ``u``, once per edge, for the edges ``src`` grouped by
    destination at the offsets ``first``.  The edges are sorted by source
    as one int64 key each, the source in the high half and the destination
    in the low half, so the sort needs no index array of the edges."""
    n = len(first) - 1
    succ_first = _offsets(src, n)
    dst = np.zeros(len(src), dtype=np.int32)
    v = np.arange(n, dtype=np.int32)[first[:-1] < first[1:]]  # those with in-edges
    dst[first[v]] = np.diff(v, prepend=np.int32(0))  # the step up to each, summed
    del v
    np.cumsum(dst, out=dst)
    key = src.astype(np.int64)
    key <<= 32
    key |= dst
    del dst
    key.sort()
    key &= 0xFFFFFFFF
    return key.astype(np.int32), succ_first


def _offsets(ids, n):
    # first[v] = number of entries of ids below v, for v = 0 .. n
    first = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(ids, minlength=n), out=first[1:], dtype=np.int32)
    return first


def _term(w, e):
    # one incoming term in the float form every executor shares
    return e if w == 1.0 else f"-{e}" if w == -1.0 else f"{w!r} * {e}"


def _codelet(net):
    """Compile ``net`` to a Python function of straight-line code.

    The compacted network as it stands: one statement per vertex, in
    vertex order, ``v = t0 + t1 - t2 ...`` with terms left-associative,
    the first one written ``v``, ``-v`` or ``w * v`` and the later ones
    ``+ v``, ``- v`` or ``+ w * v``, weights by ``repr`` (``inf`` and
    ``nan`` are names in the codelet's globals).  A vertex whose one
    in-edge weighs +1 is a rename, not a statement.  On
    :class:`TraceScalar` values each term and each sum creates one vertex,
    so a recording through a codelet has the network's structural counts.
    """
    edges = net.edges
    src, dst, w = (edges[f].tolist() for f in ("src", "dst", "w"))
    indeg = np.bincount(edges["dst"], minlength=net.n_vertices).tolist()
    name = [f"v{v}" for v in range(net.n_vertices)]
    lines = ["def codelet(x):"]
    if net.inputs:
        lines.append("    " + "".join(f"v{v}, " for v in net.inputs) + "= x")
    pos = 0  # of the edge among its vertex's in-edges
    for k, (s, v, wk) in enumerate(zip(src, dst, w)):
        pos = pos + 1 if k and dst[k - 1] == v else 0
        e = name[s]
        if indeg[v] == 1 and wk == 1.0:
            name[v] = e
            continue
        if pos == 0:
            text = _term(wk, e)
        else:
            if pos % _CODELET_MAX_TERMS == 0:
                lines.append(f"    v{v} = {text}")
                text = f"v{v}"
            text += f" - {e}" if wk == -1.0 else f" + {_term(wk, e)}"
        if pos + 1 == indeg[v]:
            lines.append(f"    v{v} = {text}")
    lines.append("    return [" + ", ".join(name[v] for v in net.outputs) + "]")
    scope = {"inf": math.inf, "nan": math.nan}
    exec(compile("\n".join(lines) + "\n", f"<codelet {net!r}>", "exec"), scope)
    return scope["codelet"]


def record(kernel, n_inputs: int) -> LinearNetwork:
    """Run ``kernel`` on symbolic scalars and capture it as a network.

    ``kernel`` takes an object array of ``n_inputs`` :class:`TraceScalar`
    values and returns a sequence of them; it must be linear and
    fixed-size.  Every output is attached through an explicit unit
    pass-through edge so the vertex/edge bookkeeping matches the
    structural count formulas.  The recording is returned compacted
    (:func:`_compact`).
    """
    tr = _Trace(n_inputs)
    ins = np.array([TraceScalar(tr, v) for v in range(n_inputs)], dtype=object)
    outs = kernel(ins)
    out_ids = []
    for o in outs:
        if not isinstance(o, TraceScalar) or o.trace is not tr:
            raise TraceError("kernel returned a value that was not traced")
        out_ids.append(tr.scaled(o.v, 1.0))
    del ins, outs
    return tr.network(n_inputs, out_ids)


def record_rows(kernel, n_inputs: int) -> LinearNetwork:
    """:func:`record` for a kernel that runs on whole arrays.

    ``kernel`` takes a :class:`TraceRows` of shape ``(n_inputs,)`` and
    returns a :class:`TraceRows` of the same trace, whose elements in C
    order are the outputs.  Each output gets its unit pass-through edge as
    in :func:`record`, and the recording is returned compacted.
    """
    tr = _Trace(n_inputs)
    outs = kernel(TraceRows(tr, np.arange(n_inputs, dtype=np.int64)))
    if type(outs) is not TraceRows or outs.trace is not tr:
        raise TraceError("kernel returned a value that was not traced")
    out_ids = tr.vertices((outs.v.reshape(-1), 1.0))
    del outs
    return tr.network(n_inputs, out_ids)
