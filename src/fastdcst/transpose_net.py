"""Linear networks: record, evaluate and transpose straight-line kernels.

Any linear algorithm can be drawn as a weighted DAG where edges multiply
by constants and vertices sum their incoming edges.  Reversing every edge
computes the transposed matrix, and for networks with equally many inputs
and outputs the reversal preserves the operation count exactly:

* additions = n_inputs + |E| - |V|  (each non-input vertex contributes
  indegree - 1),
* multiplications = number of edges whose weight is not +-1.

Kernels are recorded by running them on :class:`TraceScalar` values whose
arithmetic builds the graph: every scalar add/sub creates a two-input
vertex, every multiplication by a constant creates a weighted edge into a
pass-through vertex, and negation is a free -1 edge.  The DCT-III kernel
evaluates one of these networks directly, which is how it inherits the
DCT-II flop count without a hand-derived decimation-in-frequency FFT.
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
    """Weighted DAG with designated input and output vertices."""

    def __init__(self, n_vertices, edges, inputs, outputs):
        self.n_vertices = n_vertices
        self.edges = list(edges)
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self._schedule = None

    @property
    def n_inputs(self):
        return len(self.inputs)

    @property
    def n_outputs(self):
        return len(self.outputs)

    def structural_flops(self) -> tuple[int, int]:
        """(additions, multiplications) determined by the graph shape alone."""
        adds = len(self.inputs) + len(self.edges) - self.n_vertices
        mults = sum(1 for _, _, w in self.edges if w != 1.0 and w != -1.0)
        return adds, mults

    def indegree_adds(self) -> int:
        """Direct indegree-1 summation; cross-checks ``structural_flops``."""
        indeg = [0] * self.n_vertices
        for _, dst, _ in self.edges:
            indeg[dst] += 1
        inputs = set(self.inputs)
        return sum(d - 1 for v, d in enumerate(indeg) if v not in inputs)

    def transpose(self) -> "LinearNetwork":
        """Reverse every edge and swap the input/output roles.

        The result computes the transposed matrix.  Interior vertices that
        end up with a single unit-weight incoming edge are collapsed (a
        pure renaming), which changes |V| and |E| by the same amount and
        therefore leaves both structural counts intact.
        """
        flipped = LinearNetwork(
            self.n_vertices,
            [(dst, src, w) for src, dst, w in self.edges],
            list(self.outputs),
            list(self.inputs),
        )
        return flipped._collapsed()

    def _collapsed(self) -> "LinearNetwork":
        keep = set(self.inputs) | set(self.outputs)
        indeg = {}
        single = {}
        for src, dst, w in self.edges:
            indeg[dst] = indeg.get(dst, 0) + 1
            single[dst] = (src, w)
        alias = {}
        for v in range(self.n_vertices):
            if v in keep or indeg.get(v) != 1:
                continue
            src, w = single[v]
            if w == 1.0:
                alias[v] = src
        if not alias:
            return self

        def resolve(v):
            while v in alias:
                v = alias[v]
            return v

        edges = [
            (resolve(src), dst, w) for src, dst, w in self.edges if dst not in alias
        ]
        live = sorted(
            set(self.inputs)
            | set(self.outputs)
            | {s for s, _, _ in edges}
            | {d for _, d, _ in edges}
        )
        remap = {v: i for i, v in enumerate(live)}
        return LinearNetwork(
            len(live),
            [(remap[s], remap[d], w) for s, d, w in edges],
            [remap[v] for v in self.inputs],
            [remap[v] for v in self.outputs],
        )

    def _compile(self):
        if self._schedule is not None:
            return self._schedule
        incoming = [[] for _ in range(self.n_vertices)]
        outdeg = [0] * self.n_vertices
        for src, dst, w in self.edges:
            incoming[dst].append((src, w))
            outdeg[src] += 1
        inputs = set(self.inputs)
        for v in inputs:
            if incoming[v]:
                raise ValueError(f"input vertex {v} has incoming edges")
        for v in range(self.n_vertices):
            if v not in inputs and not incoming[v]:
                raise ValueError(f"vertex {v} is neither an input nor a sum")
        # Kahn topological order over non-input vertices
        pending = {
            v: len(incoming[v]) for v in range(self.n_vertices) if v not in inputs
        }
        fanout = [[] for _ in range(self.n_vertices)]
        for src, dst, _ in self.edges:
            fanout[src].append(dst)
        ready = list(inputs) + [v for v, d in pending.items() if d == 0]
        order = []
        seen = set(inputs)
        while ready:
            v = ready.pop()
            if v not in inputs:
                order.append(v)
            for d in fanout[v]:
                pending[d] -= 1
                if pending[d] == 0 and d not in seen:
                    seen.add(d)
                    ready.append(d)
        if len(order) != self.n_vertices - len(inputs):
            raise ValueError("network contains a cycle")
        sched = [(v, tuple(incoming[v])) for v in order]
        adds = sum(len(inc) - 1 for _, inc in sched)
        mults = sum(1 for _, inc in sched for _, w in inc if w != 1.0 and w != -1.0)
        self._schedule = (sched, adds, mults)
        return self._schedule

    def eval(self, x, ledger=None):
        """Evaluate the network on a vector of length ``n_inputs``.

        Works on floats and on :class:`TraceScalar` values alike, so a
        kernel that embeds a compiled network can itself be recorded.
        """
        if len(x) != len(self.inputs):
            raise ValueError(f"expected {len(self.inputs)} inputs, got {len(x)}")
        sched, adds, mults = self._compile()
        if ledger is not None:
            ledger.adds += adds
            ledger.mults += mults
        vals = [None] * self.n_vertices
        for v, xv in zip(self.inputs, x):
            vals[v] = xv
        for v, inc in sched:
            src, w = inc[0]
            if w == 1.0:
                acc = vals[src]
            elif w == -1.0:
                acc = -vals[src]
            else:
                acc = w * vals[src]
            for src, w in inc[1:]:
                if w == 1.0:
                    acc = acc + vals[src]
                elif w == -1.0:
                    acc = acc - vals[src]
                else:
                    acc = acc + w * vals[src]
            vals[v] = acc
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
        a, m = self.structural_flops()
        return (
            f"LinearNetwork({self.n_inputs}->{self.n_outputs}, "
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
