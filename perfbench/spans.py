"""Spans around the calls into each package layer, from outside the package.

A hook replaces one name that a module uses to reach another layer (a
public function, a private helper imported across modules, a class
method or a dispatch-table entry) with a wrapper that records a span:
name, start, end and parent.  Self time is a span's duration minus the
time its child spans cover.  Hooked calls made inside a span of
:data:`OPAQUE_LAYERS` are not spans: they count to that span's self time.  Self times, call counts and ledger deltas
are aggregated online; only the first ``MAX_SPANS`` spans are kept as
records, so a long traced run has a bounded footprint.

A hook whose name no longer exists (a refactor renamed it) is reported
as absent instead of failing the run or reading as zero.
"""

import importlib
import time
import weakref
from dataclasses import dataclass

# (module, name path inside it, layer).  A path may reach a class
# attribute ("LinearNetwork.eval") or a dict entry ("_NAIVE[dct2]").
HOOKS = (
    # public API, as the benchmark calls it
    ("fastdcst", "dct2_classic", "dct2"),
    ("fastdcst", "dct2_new", "dct2"),
    ("fastdcst", "dct2_scaled", "dct2"),
    ("fastdcst", "dct3_new", "trig_family"),
    ("fastdcst", "dst2_new", "trig_family"),
    ("fastdcst", "dst3_new", "trig_family"),
    # names the CLI uses to reach the kernels and oracles
    ("fastdcst.cli", "main", "cli"),
    ("fastdcst.cli", "read_signal", "cli.read"),
    ("fastdcst.cli", "write_signal", "cli.write"),
    ("fastdcst.cli", "dct2_classic", "dct2"),
    ("fastdcst.cli", "dct2_new", "dct2"),
    ("fastdcst.cli", "dct2_scaled", "dct2"),
    ("fastdcst.cli", "dct3_new", "trig_family"),
    ("fastdcst.cli", "dst2_new", "trig_family"),
    ("fastdcst.cli", "dst3_new", "trig_family"),
    ("fastdcst.cli", "fft_conjpair", "fft_complex"),
    ("fastdcst.cli", "fft_scaled", "fft_complex"),
    ("fastdcst.cli", "fft_scaled4", "fft_complex"),
    ("fastdcst.cli", "rfft_conjpair", "fft_real"),
    ("fastdcst.cli", "rfft_scaled", "fft_real"),
    ("fastdcst.cli", "rfft_scaled4", "fft_real"),
    ("fastdcst.cli", "naive_dft", "oracle"),
    ("fastdcst.cli", "_NAIVE[dct2]", "oracle"),
    ("fastdcst.cli", "_NAIVE[dct3]", "oracle"),
    ("fastdcst.cli", "_NAIVE[dst2]", "oracle"),
    ("fastdcst.cli", "_NAIVE[dst3]", "oracle"),
    # cross-module names inside the package
    ("fastdcst.dct2", "reorder_even_odd", "dct2.reorder"),
    ("fastdcst.dct2", "_rfft_scaled_lanes", "fft_real"),
    ("fastdcst.dct2", "_rfft_std_lanes", "fft_real"),
    ("fastdcst.trig_family", "_dct2_new_lanes", "dct2"),
    ("fastdcst.trig_family", "_transposed_spectrum_net", "trig_family"),
    ("fastdcst.trig_family", "half_spectrum_lanes", "fft_real"),
    ("fastdcst.trig_family", "record", "transpose_net.record"),
    ("fastdcst.transpose_net", "LinearNetwork.transpose", "transpose_net.transpose"),
    ("fastdcst.transpose_net", "LinearNetwork.eval", "transpose_net.eval"),
    ("fastdcst.scale_factors", "build_tables", "scale_factors.build"),
)

# layers whose whole duration is their own: hooked calls made inside
# them are not spans.  Recording a network runs the forward kernel on
# symbolic scalars, which is not that kernel's work on floats.
OPAQUE_LAYERS = frozenset({"transpose_net.record"})
# span records kept per tracer; later spans are only aggregated
MAX_SPANS = 20000
# the first evaluation of each network includes compiling its schedule
FIRST_EVAL = "transpose_net.first_eval"
# lru-cached source of transposed networks; cache_info() gives the hit ratio
NET_CACHE = ("fastdcst.trig_family", "_transposed_spectrum_net")


@dataclass
class Stat:
    layer: str
    count: int = 0
    total: float = 0.0  # seconds inside the span
    self: float = 0.0  # seconds not covered by child spans
    flops: int = 0  # ledger delta not counted by child spans
    units: int = 0  # layer-specific work count (edges evaluated)

    def as_list(self):
        return [self.layer, self.count, self.total, self.self, self.flops,
                self.units]


class Tracer:
    """In-memory span recorder with online per-name aggregation."""

    def __init__(self, ledger_type=None):
        self.ledger_type = ledger_type
        self.spans = []  # (id, parent id, name, start, end)
        self.stats = {}
        self._stack = []  # [id, child seconds, child flops, ledger]
        self._next = 0
        self._opaque = 0  # depth of open spans of OPAQUE_LAYERS

    def _ledger(self, args, kwargs):
        lt = self.ledger_type
        if lt is None:
            return None
        for a in args:
            if isinstance(a, lt):
                return a
        for a in kwargs.values():
            if isinstance(a, lt):
                return a
        return None

    def call(self, name, layer, fn, args=(), kwargs=None, units=0):
        kwargs = kwargs or {}
        if self._opaque:
            return fn(*args, **kwargs)
        opaque = layer in OPAQUE_LAYERS
        self._opaque += opaque
        led = self._ledger(args, kwargs)
        before = led.adds + led.mults if led is not None else 0
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        frame = [sid, 0.0, 0, led]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._opaque -= opaque
            self._stack.pop()
            dur = t1 - t0
            flops = led.adds + led.mults - before if led is not None else 0
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = Stat(layer)
            st.count += 1
            st.total += dur
            st.self += dur - frame[1]
            st.flops += flops - frame[2]
            st.units += units
            if parent is not None:
                parent[1] += dur
                if led is not None and led is parent[3]:
                    parent[2] += flops
            if sid < MAX_SPANS:
                self.spans.append(
                    (sid, parent[0] if parent else None, name, t0, t1))

    def merge(self, stats):
        """Add aggregates recorded by another process (name -> list)."""
        for name, (layer, count, total, self_s, flops, units) in stats.items():
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = Stat(layer)
            st.count += count
            st.total += total
            st.self += self_s
            st.flops += flops
            st.units += units

    def discount(self, name, seconds):
        """Move ``seconds`` of ``name``'s self time to merged child spans."""
        self.stats[name].self -= seconds

    def by_layer(self, field):
        out = {}
        for st in self.stats.values():
            out[st.layer] = out.get(st.layer, 0) + getattr(st, field)
        return out

    def dump(self):
        return {
            "spans": [list(s) for s in sorted(self.spans)],
            "spans_dropped": max(0, self._next - MAX_SPANS),
            "stats": {k: v.as_list() for k, v in self.stats.items()},
        }


def _resolve(modname, path):
    """Return (owner, key, is_item, original) or None when missing."""
    try:
        obj = importlib.import_module(modname)
    except ImportError:
        return None
    if "[" in path:
        attr, key = path[:-1].split("[", 1)
        obj = getattr(obj, attr, None)
        if not isinstance(obj, dict) or key not in obj:
            return None
        return obj, key, True, obj[key]
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    key = parts[-1]
    if key not in vars(obj):
        return None
    return obj, key, False, vars(obj)[key]


class Hooks:
    """Installs and removes the span wrappers of :data:`HOOKS`."""

    def __init__(self):
        self.absent = []
        self.present_layers = set()
        self._resolved = []
        for modname, path, layer in HOOKS:
            found = _resolve(modname, path)
            if found is None or not callable(found[3]):
                self.absent.append(f"{modname}:{path}")
                continue
            self._resolved.append((f"{modname}:{path}", layer) + found)
            self.present_layers.add(layer)
        if "transpose_net.eval" in self.present_layers:
            self.present_layers.add(FIRST_EVAL)
        self._seen_nets = weakref.WeakSet()

    def install(self, tracer):
        for name, layer, owner, key, is_item, orig in self._resolved:
            wrapper = self._wrapper(tracer, name, layer, orig)
            if is_item:
                owner[key] = wrapper
            else:
                setattr(owner, key, wrapper)

    def uninstall(self):
        for _, _, owner, key, is_item, orig in self._resolved:
            if is_item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    def _wrapper(self, tracer, name, layer, orig):
        if layer == "transpose_net.eval":
            seen = self._seen_nets

            def traced_eval(net, *args, **kwargs):
                first = net not in seen
                if first:
                    seen.add(net)
                edges = len(getattr(net, "edges", ()))
                return tracer.call(FIRST_EVAL if first else name,
                                   FIRST_EVAL if first else layer, orig,
                                   (net,) + args, kwargs, units=edges)

            return traced_eval

        def traced(*args, **kwargs):
            return tracer.call(name, layer, orig, args, kwargs)

        return traced

    def net_cache_info(self):
        """(hits, misses) of the network cache, or None if not exposed."""
        target = ":".join(NET_CACHE)
        for name, _, _, _, _, orig in self._resolved:
            if name == target:
                info = getattr(orig, "cache_info", None)
                if info is None:
                    return None
                ci = info()
                return ci.hits, ci.misses
        return None
