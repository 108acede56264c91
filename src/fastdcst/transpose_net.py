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
destination.  Evaluation is then one walk over the edge list, and
transposition one backward pass over the vertex ids.

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

__all__ = ["LinearNetwork", "TraceError", "record"]


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

    The vertices must be in evaluation order (see the module docstring);
    a network that is not raises ``ValueError`` here, before any value is
    computed.  Edges and vertices are not to be changed afterwards.
    """

    def __init__(self, n_vertices, edges, inputs, outputs):
        self.n_vertices = n_vertices
        self.edges = list(edges)
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        summed = bytearray(n_vertices)
        last, mults = -1, 0
        for src, dst, w in self.edges:
            if not 0 <= src < dst:
                raise ValueError(f"edge {src}->{dst} does not run to a higher id")
            if dst != last:
                if dst < last:
                    raise ValueError(f"incoming edges of vertex {dst} are not contiguous")
                summed[dst] = 1
                last = dst
            if w != 1.0 and w != -1.0:
                mults += 1
        for v in self.inputs:
            if summed[v]:
                raise ValueError(f"input vertex {v} has incoming edges")
            summed[v] = 1
        if not all(summed):
            raise ValueError(f"vertex {summed.index(0)} is neither an input nor a sum")
        self._flops = (len(self.inputs) + len(self.edges) - n_vertices, mults)

    def structural_flops(self) -> tuple[int, int]:
        """(additions, multiplications) determined by the graph shape alone."""
        return self._flops

    def indegree_adds(self) -> int:
        """Direct indegree-1 summation; cross-checks ``structural_flops``."""
        indeg = [0] * self.n_vertices
        for _, dst, _ in self.edges:
            indeg[dst] += 1
        inputs = set(self.inputs)
        return sum(d - 1 for v, d in enumerate(indeg) if v not in inputs)

    def transpose(self) -> "LinearNetwork":
        """Reverse every edge and swap the input/output roles.

        The result computes the transposed matrix.  Vertices are numbered
        from the highest forward id down and each takes its reversed edges
        in their forward order, which keeps the result in evaluation order.
        Interior vertices that would get a single unit-weight incoming edge
        are collapsed (a pure renaming), which changes |V| and |E| by the
        same amount and therefore leaves both structural counts intact.
        """
        fanout = [[] for _ in range(self.n_vertices)]
        for src, dst, w in self.edges:
            fanout[src].append((dst, w))
        keep = set(self.inputs) | set(self.outputs)
        new_id = [0] * self.n_vertices
        edges, count = [], 0
        for v in range(self.n_vertices - 1, -1, -1):
            out = fanout[v]
            if len(out) == 1 and out[0][1] == 1.0 and v not in keep:
                new_id[v] = new_id[out[0][0]]
                continue
            new_id[v] = count
            edges += [(new_id[d], count, w) for d, w in out]
            count += 1
        return LinearNetwork(count, edges, [new_id[v] for v in self.outputs],
                             [new_id[v] for v in self.inputs])

    def eval(self, x, ledger=None):
        """Evaluate the network on a vector of length ``len(inputs)``.

        One walk over ``edges``; each vertex adds its incoming terms in
        their listed order.  Works on floats and on :class:`TraceScalar`
        values alike, so a kernel that embeds a network can itself be
        recorded.
        """
        if len(x) != len(self.inputs):
            raise ValueError(f"expected {len(self.inputs)} inputs, got {len(x)}")
        if ledger is not None:
            ledger.adds += self._flops[0]
            ledger.mults += self._flops[1]
        # one spare slot at index -1 takes the flush before the first sum
        vals = [None] * (self.n_vertices + 1)
        for v, xv in zip(self.inputs, x):
            vals[v] = xv
        last, acc = -1, None
        for src, dst, w in self.edges:
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

    def dumps(self) -> str:
        """Debug dump: one ``from to weight`` line per edge."""
        lines = [
            "# inputs: " + " ".join(map(str, self.inputs)),
            "# outputs: " + " ".join(map(str, self.outputs)),
        ]
        lines += [f"{src} {dst} {w!r}" for src, dst, w in self.edges]
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
