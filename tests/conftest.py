from itertools import groupby
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest

from fastdcst import LinearNetwork, ScaleTables, build_tables, transpose_net


def rng(*key):
    """Deterministic per-test random stream."""
    return np.random.default_rng(list(key))


def max_rel(got, want):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    scale = np.max(np.abs(want))
    if scale == 0.0:
        return float(np.max(np.abs(got))) if len(got) else 0.0
    return float(np.max(np.abs(got - want)) / scale)


def rms_rel(got, want):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    denom = np.linalg.norm(want)
    if denom == 0.0:
        return float(np.linalg.norm(got))
    return float(np.linalg.norm(np.asarray(got) - want) / denom)


def corrupted_tables(n):
    """A fresh table set with one dct2/new stage constant bent by 0.1%."""
    tab = ScaleTables(n)
    for key, (c0, ch, re, im) in list(tab._stage.items()):
        if len(re) > 1:
            re = re.copy()
            re[1] *= 1.001
            tab._stage[key] = (c0, ch, re, im)
    return tab


def reference_compaction(net):
    """The in-edges ``{v: [(src, w), ...]}`` of every vertex the compaction
    keeps, inputs excepted, by its definition, one vertex at a time in the
    ids of ``net``: an interior vertex (neither an input nor an output) whose
    one in-edge weighs +-1 is an alias, read as its source with the sign
    of its chain; then an interior vertex whose one in-edge is a
    multiplication, and which is read exactly once, through a +-1 edge,
    moves into that edge as +-w."""
    ins = {}
    for s, d, w in net.edges.tolist():
        ins.setdefault(d, []).append((s, w))
    interior = set(ins) - set(net.outputs)
    alias = {}  # v -> (the kept vertex it reads, sign)
    for v in sorted(ins):
        if v in interior and len(ins[v]) == 1 and ins[v][0][1] in (1.0, -1.0):
            s, w = ins[v][0]
            root, sign = alias.get(s, (s, 1.0))
            alias[v] = (root, sign * w)
    kept = {}
    for v, terms in ins.items():
        if v not in alias:
            kept[v] = [(alias[s][0], alias[s][1] * w) if s in alias else (s, w)
                       for s, w in terms]
    uses = {}
    for terms in kept.values():
        for s, _ in terms:
            uses[s] = uses.get(s, 0) + 1
    folded = set()
    for v, terms in kept.items():
        for k, (s, w) in enumerate(terms):
            if (s in interior and len(kept[s]) == 1 and kept[s][0][1] not in (1.0, -1.0)
                    and uses[s] == 1 and w in (1.0, -1.0)):
                terms[k] = (kept[s][0][0], w * kept[s][0][1])
                folded.add(s)
    return {v: terms for v, terms in kept.items() if v not in folded}


def uncompacted(make):
    """``make()`` with the compaction taken out of ``record`` and
    ``LinearNetwork.transpose``: the full trace, or the plain reversal."""
    def as_given(n_vertices, src, dst, w, inputs, outputs):
        edges = np.empty(len(w), dtype=transpose_net.EDGE_DTYPE)
        edges["src"], edges["dst"], edges["w"] = src, dst, w
        return LinearNetwork(n_vertices, edges, inputs, outputs)

    with mock.patch.object(transpose_net, "_compact", as_given):
        return make()


def compacted(net):
    """``net`` compacted (its edge array is left as it was)."""
    cols = (net.edges[f].copy() for f in ("src", "dst", "w"))
    return transpose_net._compact(net.n_vertices, *cols, net.inputs, net.outputs)


def assert_compaction_of(full, net):
    """``net`` is ``full`` compacted: numbering its vertices as the ones
    that ``full`` keeps, in their order, its in-edges are
    :func:`reference_compaction` of ``full``; and compacting ``net`` again
    removes nothing."""
    want = reference_compaction(full)
    kept = sorted(set(full.inputs) | set(want))
    assert net.n_vertices == len(kept)
    assert [kept[v] for v in net.inputs] == full.inputs
    assert [kept[v] for v in net.outputs] == full.outputs
    got = {}
    for s, d, w in net.edges.tolist():
        got.setdefault(kept[d], []).append((kept[s], w))
    assert got == want
    assert net.structural_flops() == full.structural_flops()
    again = compacted(net)
    assert again.n_vertices == net.n_vertices
    assert again.edges.tobytes() == net.edges.tobytes()


def canonical_forms(*nets):
    """Each network up to the numbering of its vertices, comparable between
    the networks given together: every vertex is hash-consed by its
    ordered in-edges ``(source, weight)``, a source by its own name and an
    input by its place among the inputs, and a network's form is the sorted
    names of all its vertices with the names of its outputs in order.  Two
    networks have equal forms when one is the other renumbered, so that
    they compute the same sums of the same products in the same order."""
    names = {}
    forms = []
    for net in nets:
        name = [None] * net.n_vertices
        for i, v in enumerate(net.inputs):
            name[v] = names.setdefault(("input", i), len(names))
        # in evaluation order, so every source is named before it is read
        for d, terms in groupby(net.edges.tolist(), key=itemgetter(1)):
            name[d] = names.setdefault(tuple((name[s], w) for s, _, w in terms), len(names))
        forms.append((sorted(name), [name[v] for v in net.outputs]))
    return forms


def reference_program(net):
    """The vertex-major program by its definition, one vertex at a time,
    on the network's own in-edges: a vertex's level is one more than the
    highest level among its sources (the inputs are level 0); the vertices
    are numbered anew by level, the inputs in their listed order and each
    later level by descending in-degree, then by id; step ``k`` of a level
    takes the ``k``-th in-edge of each of its vertices that has one.
    Returns the id of each new vertex, and the steps as
    ``(k, [(vertex, source, weight), ...])`` in the network's ids."""
    ins = {}
    for s, d, w in net.edges.tolist():
        ins.setdefault(d, []).append((s, w))
    level = dict.fromkeys(net.inputs, 0)
    for d in sorted(ins):
        level[d] = 1 + max(level[s] for s, _ in ins[d])
    order = list(net.inputs) + sorted(ins, key=lambda v: (level[v], -len(ins[v]), v))
    steps = []
    for lv in range(1, max(level.values()) + 1):
        vs = [v for v in order if level[v] == lv]
        for k in range(len(ins[vs[0]])):
            steps.append((k, [(v,) + ins[v][k] for v in vs if len(ins[v]) > k]))
    return order, steps


@pytest.fixture(scope="session")
def tables1024():
    return build_tables(1024)
