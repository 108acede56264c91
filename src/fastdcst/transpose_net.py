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
:class:`TraceScalar` inputs, it is one Python walk over the edge list.
At or above it, floats run through a levelized program: the edges are
sorted once into levels of independent steps, and each level is a few
numpy gathers, multiplies and scatters.

Kernels are recorded by running them on :class:`TraceScalar` values whose
arithmetic builds the graph: every scalar add/sub creates a two-input
vertex, every multiplication by a constant creates a weighted edge into a
pass-through vertex, and negation is a free -1 edge.  Each new vertex
takes its edges when it is created, so a recording is in evaluation order.
The DCT-III kernel evaluates one of these networks directly, which is how
it inherits the DCT-II flop count without a hand-derived
decimation-in-frequency FFT.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["LinearNetwork", "TraceError", "record"]

EDGE_DTYPE = np.dtype([("src", np.int64), ("dst", np.int64), ("w", np.float64)])

# Networks with at least this many edges evaluate floats as a levelized
# numpy program; smaller ones take the Python walk.  Measured on the
# transposed spectrum networks, the program's warm eval draws level with
# the walk around 900 edges (N=64), where building it costs three to four
# walks; at 2,217 edges (N=128) it is 2.5 to 4 times faster and repays
# its build within a few calls.
PROGRAM_MIN_EDGES = 2048


class TraceError(TypeError):
    """The traced kernel performed an operation that is not linear."""


class _Trace:
    __slots__ = ("n_vertices", "edges")

    def __init__(self):
        self.n_vertices = 0
        self.edges = []

    def new_vertex(self):
        v = self.n_vertices
        self.n_vertices += 1
        return v


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
        tr.edges.append((self.v, u, 1.0))
        tr.edges.append((other.v, u, w_other))
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
        tr.edges.append((self.v, u, float(c)))
        return TraceScalar(tr, u)

    __rmul__ = __mul__

    def __neg__(self):
        tr = self.trace
        u = tr.new_vertex()
        tr.edges.append((self.v, u, -1.0))
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
    walk's edge list and the levelized program are built from them once,
    on first use, and held on the network.
    """

    def __init__(self, n_vertices, edges, inputs, outputs):
        self.n_vertices = n_vertices
        if not (isinstance(edges, np.ndarray) and edges.dtype == EDGE_DTYPE):
            edges = np.fromiter(edges, dtype=EDGE_DTYPE)
        self.edges = edges
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
        self._edge_list = None
        self._levels = None

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
        src, dst, w = self.edges["src"], self.edges["dst"], self.edges["w"]
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
        edges = np.empty(len(order), dtype=EDGE_DTYPE)
        edges["src"] = new_id[dst[order]]
        edges["dst"] = new_id[src[order]]
        edges["w"] = w[order]
        return LinearNetwork(count, edges, new_id[self._out_ids].tolist(),
                             new_id[self._in_ids].tolist())

    def eval(self, x, ledger=None):
        """Evaluate the network on a vector of length ``len(inputs)``.

        Each vertex adds its incoming terms in their listed order.  A
        network of at least :data:`PROGRAM_MIN_EDGES` edges evaluated on
        float64 values runs its levelized program, built on the first such
        call, and returns Python floats.  Any other network or input,
        including :class:`TraceScalar` values (so a kernel that embeds a
        network can itself be recorded), takes one walk over ``edges``.
        Both executors give bit-identical floats.
        """
        if len(x) != len(self.inputs):
            raise ValueError(f"expected {len(self.inputs)} inputs, got {len(x)}")
        if ledger is not None:
            ledger.adds += self._flops[0]
            ledger.mults += self._flops[1]
        if len(self.edges) >= PROGRAM_MIN_EDGES:
            xs = np.asarray(x)
            if xs.dtype == np.float64:
                return self._run(xs)
        return self._walk(x)

    def _walk(self, x):
        if self._edge_list is None:
            self._edge_list = self.edges.tolist()
        # one spare slot at index -1 takes the flush before the first sum
        vals = [None] * (self.n_vertices + 1)
        for v, xv in zip(self.inputs, x):
            vals[v] = xv
        last, acc = -1, None
        for src, dst, w in self._edge_list:
            if dst != last:
                vals[last] = acc
                last = dst
                acc = vals[src] if w == 1.0 else -vals[src] if w == -1.0 else w * vals[src]
            elif w == 1.0:
                acc = acc + vals[src]
            elif w == -1.0:
                acc = acc - vals[src]
            else:
                acc = acc + w * vals[src]
        vals[last] = acc
        return [vals[v] for v in self.outputs]

    def _run(self, xs):
        if self._levels is None:
            self._levels = self._levelize()
        vals = np.empty(self.n_vertices)
        vals[self._in_ids] = xs
        for accumulate, src, dst, w in self._levels:
            if accumulate:
                vals[dst] += w * vals[src]
            else:
                vals[dst] = w * vals[src]
        return vals[self._out_ids].tolist()

    def _levelize(self):
        """Cut the edges into steps that numpy can run a level at a time.

        Each edge is one step: a vertex's first edge sets it to
        ``w * vals[src]`` and each later edge adds ``w * vals[src]`` to it,
        so every sum keeps the walk's order and rounding (multiplying by
        +-1 is exact).  A step runs one level after both its source and
        the partial sum it extends are complete, so no level reads what it
        writes or writes one vertex twice.
        """
        src, dst, w = self.edges["src"], self.edges["dst"], self.edges["w"]
        level = [0] * self.n_vertices
        step_level = []
        append = step_level.append
        last = lv = -1
        for s, d in zip(src.tolist(), dst.tolist()):
            ls = level[s]
            if d != last:
                lv, last = ls + 1, d
            elif ls >= lv:
                lv = ls + 1
            else:
                lv += 1
            level[d] = lv
            append(lv)
        accumulate = np.zeros(len(dst), dtype=bool)
        accumulate[1:] = dst[1:] == dst[:-1]
        key = 2 * np.array(step_level, dtype=np.intp) + accumulate
        order = np.argsort(key, kind="stable")
        key, src, dst, w = key[order], src[order], dst[order], w[order]
        cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
        return [(bool(key[a] & 1), src[a:b], dst[a:b], w[a:b])
                for a, b in zip([0] + cuts, cuts + [len(key)])]

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
            f"|V|={self.n_vertices}, |E|={len(self.edges)}, adds={a}, mults={m})"
        )


def record(kernel, n_inputs: int) -> LinearNetwork:
    """Run ``kernel`` on symbolic scalars and capture it as a network.

    ``kernel`` takes a list of ``n_inputs`` scalars and returns a list of
    scalars; it must be linear and fixed-size.  Every output is attached
    through an explicit unit pass-through edge so the vertex/edge
    bookkeeping matches the structural count formulas.
    """
    tr = _Trace()
    ins = [TraceScalar(tr, tr.new_vertex()) for _ in range(n_inputs)]
    outs = kernel(ins)
    out_ids = []
    for o in outs:
        if not isinstance(o, TraceScalar) or o.trace is not tr:
            raise TraceError("kernel returned a value that was not traced")
        ov = tr.new_vertex()
        tr.edges.append((o.v, ov, 1.0))
        out_ids.append(ov)
    return LinearNetwork(tr.n_vertices, tr.edges, list(range(n_inputs)), out_ids)
