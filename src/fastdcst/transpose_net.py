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
vectorized passes over it.  Evaluation has two executors with
bit-identical results.  Below :data:`PROGRAM_MIN_EDGES` edges, and on
:class:`TraceScalar` inputs, it is a codelet: straight-line Python
source generated from the network, one statement per vertex, compiled
once and kept with the network.  At or above it, floats run through a
levelized program: the edges are sorted once, by a vectorized wavefront,
into levels of independent steps, and each level is a few numpy gathers,
multiplies and scatters.  The program's level-ordered columns then replace
the edge array as the network's one copy of its edges; ``edges`` rebuilds
the evaluation order from them when it is asked for.  A float64 array
goes into the program and its output array comes back as it is; a
codelet always runs on Python scalars.

Kernels are recorded by running them on :class:`TraceScalar` values (in
an object array) whose arithmetic builds the graph: every scalar add/sub creates a two-input
vertex, every multiplication by a constant creates a weighted edge into a
pass-through vertex, and negation is a free -1 edge.  Each new vertex
takes its edges when it is created, so a recording is in evaluation order;
the recorder appends them to typed columns, with no Python object per
edge.  The DCT-III kernel evaluates one of these networks directly, which
is how it inherits the DCT-II flop count without a hand-derived
decimation-in-frequency FFT; the forward DCT-II/DST-II kernels run the
network it transposes; and the small public transforms are recorded whole
as networks (plans) that run as codelets.
"""

from __future__ import annotations

import math
import numbers
from array import array

import numpy as np

__all__ = ["LinearNetwork", "TraceError", "record"]

EDGE_DTYPE = np.dtype([("src", np.int64), ("dst", np.int64), ("w", np.float64)])

# Networks with at least this many edges evaluate floats as a levelized
# numpy program; smaller ones run their codelet.  The threshold was set on
# the transposed spectrum networks against the Python edge walk that the
# codelet replaced (level near 900 edges, N=64).  Warm, the codelet is
# still ahead at 2,217 edges (N=128: 33 against 61 us) and draws level
# near 5,000 (N=256), but compiling it costs about 10 us per edge.
PROGRAM_MIN_EDGES = 2048

# Inlined single-edge terms nest at most this deep in one codelet
# statement (CPython rejects source nested more than 200 parentheses deep),
# and one statement sums at most this many terms before it is continued.
_CODELET_MAX_DEPTH = 64
_CODELET_MAX_TERMS = 64


class TraceError(TypeError):
    """The traced kernel performed an operation that is not linear."""


class _Trace:
    # the edges so far as three typed columns, in the order they were made
    __slots__ = ("n_vertices", "src", "dst", "w")

    def __init__(self):
        self.n_vertices = 0
        self.src = array("q")
        self.dst = array("q")
        self.w = array("d")

    def new_vertex(self):
        v = self.n_vertices
        self.n_vertices += 1
        return v

    def edge(self, s, d, w):
        self.src.append(s)
        self.dst.append(d)
        self.w.append(w)

    def edges(self):
        edges = np.empty(len(self.w), dtype=EDGE_DTYPE)
        edges["src"] = np.frombuffer(self.src, dtype=np.int64)
        edges["dst"] = np.frombuffer(self.dst, dtype=np.int64)
        edges["w"] = np.frombuffer(self.w, dtype=np.float64)
        return edges


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
        u = tr.new_vertex()
        # the hot path of a recording, so the two edges are appended inline
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
        if isinstance(c, TraceScalar):
            raise TraceError("product of two traced values: kernel is not linear")
        if not isinstance(c, numbers.Real):
            raise TraceError(f"cannot scale a traced value by {type(c).__name__}")
        tr = self.trace
        u = tr.new_vertex()
        tr.edge(self.v, u, float(c))
        return TraceScalar(tr, u)

    __rmul__ = __mul__

    def __neg__(self):
        tr = self.trace
        u = tr.new_vertex()
        tr.edge(self.v, u, -1.0)
        return TraceScalar(tr, u)

    def __pos__(self):
        return self

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
    computed.  Edges and vertices are not to be changed afterwards: the
    codelet and the levelized program are built from them once, on first
    use, and held on the network (the program in place of the edge array).
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
        for v in self.inputs:
            if summed[v]:
                raise ValueError(f"input vertex {v} has incoming edges")
            summed[v] = True
        if not summed.all():
            raise ValueError(
                f"vertex {np.argmin(summed)} is neither an input nor a sum")
        mults = int(np.count_nonzero((w != 1.0) & (w != -1.0)))
        self._flops = (len(self.inputs) + len(edges) - n_vertices, mults)
        self._n_edges = len(edges)
        self._codelet = None
        # the edge array, until the levelized program (src, dst, w, levels)
        # is built and replaces it with the same edges in level order
        self._program = None
        self._edges = edges

    @property
    def edges(self):
        """The edges in evaluation order, as an array of :data:`EDGE_DTYPE`.

        A levelized network holds its edges in level order only and builds
        this array anew on each access: the steps of one vertex keep their
        order across levels, so a stable sort by destination gives back
        the evaluation order exactly.
        """
        edges = self._edges
        if edges is not None:
            return edges
        src, dst, w, _ = self._program
        order = np.argsort(dst, kind="stable")
        edges = np.empty(self._n_edges, dtype=EDGE_DTYPE)
        edges["src"], edges["dst"], edges["w"] = src[order], dst[order], w[order]
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
        keeps the result in evaluation order.  Interior vertices that would
        get a single unit-weight incoming edge are collapsed (a pure
        renaming, resolved along alias chains by pointer jumping), which
        changes |V| and |E| by the same amount and therefore leaves both
        structural counts intact.
        """
        n = self.n_vertices
        edges = self.edges
        src, dst, w = edges["src"], edges["dst"], edges["w"]
        # a vertex with one unit-weight out-edge that is neither an input nor
        # an output points at that edge's end and is collapsed into it
        alias = (np.bincount(src, minlength=n)[src] == 1) & (w == 1.0)
        ptr = np.arange(n)
        ptr[src[alias]] = dst[alias]
        ptr[self._in_ids] = self._in_ids
        ptr[self._out_ids] = self._out_ids
        kept = ptr == np.arange(n)
        count = int(np.count_nonzero(kept))
        new_id = count - np.cumsum(kept)
        # pointer jumping takes each collapsed vertex to the end of its chain
        while not np.array_equal(ptr[ptr], ptr):
            ptr = ptr[ptr]
        new_id = new_id[ptr]
        order = np.argsort(-src, kind="stable")
        order = order[kept[src[order]]]
        rev = np.empty(len(order), dtype=EDGE_DTYPE)
        rev["src"] = new_id[dst[order]]
        rev["dst"] = new_id[src[order]]
        rev["w"] = w[order]
        return LinearNetwork(count, rev, new_id[self._out_ids].tolist(),
                             new_id[self._in_ids].tolist())

    def eval(self, x, ledger=None):
        """Evaluate the network on a vector of length ``len(inputs)``.

        Each vertex adds its incoming terms in their listed order.  A
        network of at least :data:`PROGRAM_MIN_EDGES` edges evaluated on
        float64 values runs its levelized program, built on the first such
        call.  Any other network or input, including :class:`TraceScalar`
        values (so a kernel that embeds a network can itself be recorded),
        runs the network's codelet, compiled on first use, on Python
        scalars.  Both executors give bit-identical floats.  An array in
        gives an array out (of objects for objects, else of float64), any
        other sequence a list.
        """
        if len(x) != len(self.inputs):
            raise ValueError(f"expected {len(self.inputs)} inputs, got {len(x)}")
        if ledger is not None:
            ledger.adds += self._flops[0]
            ledger.mults += self._flops[1]
        if self._n_edges >= PROGRAM_MIN_EDGES:
            xs = np.asarray(x)
            if xs.dtype == np.float64:
                y = self._run(xs)
                return y if xs is x else y.tolist()
        if self._codelet is None:
            self._codelet = _codelet(self)
        if type(x) is not list and isinstance(x, np.ndarray):  # a list is the plans' hot path
            dtype = object if x.dtype == object else np.float64
            return np.fromiter(self._codelet(x.tolist()), dtype, len(self.outputs))
        return self._codelet(x)

    def _run(self, xs):
        program = self._program
        levels = program[3] if program is not None else self._levelize()
        vals = np.empty(self.n_vertices)
        vals[self._in_ids] = xs
        for accumulate, src, dst, w in levels:
            if accumulate:
                vals[dst] += w * vals[src]
            else:
                vals[dst] = w * vals[src]
        return vals[self._out_ids]

    def _levelize(self):
        """Cut the edges into steps that numpy can run a level at a time.

        Each edge is one step: a vertex's first edge sets it to
        ``w * vals[src]`` and each later edge adds ``w * vals[src]`` to it,
        so every sum keeps the codelet's order and rounding (multiplying by
        +-1 is exact).  A step runs one level after both its source and
        the partial sum it extends are complete, so no level reads what it
        writes or writes one vertex twice.  Step ``j`` of a vertex whose
        steps read sources of levels ``l_0 .. l_j`` therefore runs at level
        ``j + max(l_i + 1 - i)``, a running maximum over the vertex's
        steps, and the vertex's level is that of its last step.

        The levels are found a wavefront at a time: a vertex is levelled
        once all of its sources are, so each pass handles only the edges
        into the vertices just completed.  The program's level-ordered
        columns then replace the edge array as the network's one copy of
        its edges.
        """
        edges = self.edges
        src, dst, w = edges["src"], edges["dst"], edges["w"]
        n, m = self.n_vertices, self._n_edges
        # int32 bookkeeping (ids and levels stay below the edge count) keeps
        # the build's peak memory near that of the columns it writes
        first = _offsets(dst, n)  # the in-edges of v are first[v]:first[v+1]
        by_src = np.argsort(src).astype(np.int32)
        out_first = _offsets(src, n)  # and its out-edges by_src[out_first[v]:...]
        pending = np.diff(first)  # sources not yet levelled, per vertex
        level = np.zeros(n, dtype=np.int32)
        step = np.empty(m, dtype=np.int32)
        span = 2 * m + 2  # exceeds the spread of l_i + 1 - i over all edges
        done = np.flatnonzero(pending == 0)
        while done.size:
            starts = out_first[done]
            touched, hits = np.unique(dst[by_src[_ranges(starts, out_first[done + 1] - starts)]],
                                      return_counts=True)
            pending[touched] -= hits
            done = touched[pending[touched] == 0]
            starts = first[done]
            sizes = first[done + 1] - starts
            e = _ranges(starts, sizes)
            pos = e - np.repeat(starts, sizes)  # of each edge among its vertex's in-edges
            # running maximum within each vertex: offset vertex g by g * span
            offset = np.repeat(np.arange(len(done)) * span, sizes)
            run = np.maximum.accumulate(level[src[e]] + 1 - pos + offset)
            step[e] = run - offset + pos
            level[done] = step[first[done + 1] - 1]
        del by_src, out_first, pending, level, first
        # the sort key: level, then whether the step adds to a partial sum
        step *= 2
        step[1:] += dst[1:] == dst[:-1]
        key = step.astype(np.int16) if m and step.max() < 2**15 else step
        del step
        order = np.argsort(key, kind="stable")  # by radix for 16-bit keys
        key = key[order]
        cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
        src, dst, w = src[order], dst[order], w[order]
        levels = [(bool(key[a] & 1), src[a:b], dst[a:b], w[a:b])
                  for a, b in zip([0] + cuts, cuts + [m])]
        self._program = (src, dst, w, levels)
        self._edges = None
        return levels

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


def _offsets(ids, n):
    # first[v] = number of entries of ids below v, for v = 0 .. n
    first = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(ids, minlength=n), out=first[1:], dtype=np.int32)
    return first


def _ranges(starts, sizes):
    # the index ranges starts[i] .. starts[i]+sizes[i]-1, concatenated
    total = int(sizes.sum())
    return np.arange(total) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)


def _term(w, e):
    # one incoming term in the float form every executor shares
    return e if w == 1.0 else f"-{e}" if w == -1.0 else f"{w!r} * {e}"


def _codelet(net):
    """Compile ``net`` to a Python function of straight-line code.

    One statement per vertex, in vertex order: ``v = t0 + t1 - t2 ...``
    with terms left-associative, the first one written ``v``, ``-v`` or
    ``w * v`` and the later ones ``+ v``, ``- v`` or ``+ w * v``, weights
    by ``repr`` (``inf`` and ``nan`` are names in the codelet's globals).
    A vertex whose one in-edge has unit weight is a rename, not a
    statement.  A single-edge vertex read by exactly one consumer is
    inlined there as ``(w * v)`` or ``(-v)``: the same rounding, since
    Python has no fused multiply-add.  On :class:`TraceScalar` values each
    term and each sum creates one vertex, so a recording through a codelet
    has the network's structural counts.
    """
    n = net.n_vertices
    edges = net.edges
    src, dst, w = (edges[f].tolist() for f in ("src", "dst", "w"))
    indeg = np.bincount(edges["dst"], minlength=n).tolist()
    uses = np.bincount(edges["src"], minlength=n)
    np.add.at(uses, net._out_ids, 1)
    uses = uses.tolist()
    expr = [f"v{v}" for v in range(n)]  # a name, or an inlined "(...)" term
    depth = [0] * n
    lines = ["def codelet(x):"]
    if net.inputs:
        lines.append("    " + "".join(f"v{v}, " for v in net.inputs) + "= x")
    pos = 0  # of the edge among its vertex's in-edges
    for k, (s, v, wk) in enumerate(zip(src, dst, w)):
        pos = pos + 1 if k and dst[k - 1] == v else 0
        e = expr[s]
        if indeg[v] == 1:
            d = depth[s] + (wk != 1.0)
            if d == 0 or (uses[v] == 1 and d <= _CODELET_MAX_DEPTH):
                expr[v] = e if wk == 1.0 else f"({_term(wk, e)})"
                depth[v] = d
            else:
                lines.append(f"    v{v} = {_term(wk, e)}")
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
    lines.append("    return [" + ", ".join(expr[v] for v in net.outputs) + "]")
    scope = {"inf": math.inf, "nan": math.nan}
    exec(compile("\n".join(lines) + "\n", f"<codelet {net!r}>", "exec"), scope)
    return scope["codelet"]


def record(kernel, n_inputs: int) -> LinearNetwork:
    """Run ``kernel`` on symbolic scalars and capture it as a network.

    ``kernel`` takes an object array of ``n_inputs`` scalars and returns
    a sequence of scalars; it must be linear and fixed-size.  Every output
    is attached through an explicit unit pass-through edge so the vertex/edge
    bookkeeping matches the structural count formulas.
    """
    tr = _Trace()
    ins = np.array([TraceScalar(tr, tr.new_vertex()) for _ in range(n_inputs)], dtype=object)
    outs = kernel(ins)
    out_ids = []
    for o in outs:
        if not isinstance(o, TraceScalar) or o.trace is not tr:
            raise TraceError("kernel returned a value that was not traced")
        ov = tr.new_vertex()
        tr.edge(o.v, ov, 1.0)
        out_ids.append(ov)
    return LinearNetwork(tr.n_vertices, tr.edges(), list(range(n_inputs)), out_ids)
