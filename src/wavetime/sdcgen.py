"""Wave-pipelining constraint generation.

Boundary-to-boundary combinational paths of the optimized circuit are
grouped by the multiset of anchor points they traverse; a path crossing
k anchors carries k+1 concurrent logic waves and needs a
set_max_delay/set_min_delay pair at (k+1)*T and k*T.  When a class with
fewer waves shares anchors with a larger class, the constraint must name
a differentiating pin so the two are not confused by the downstream
optimization tool.
"""

from dataclasses import dataclass, field
from operator import itemgetter


class PathLimitError(Exception):
    def __init__(self, limit):
        super().__init__(f"path enumeration exceeded {limit} paths; raise "
                         f"the limit or shrink the optimized region")


@dataclass
class SdcConstraint:
    kind: str     # max | min
    bound: float  # multiple of T
    points: list  # [(tag in {from, through, to}, pin)]

    def line(self):
        toks = [f"set_{self.kind}_delay", f"{self.bound:.6g}"]
        for tag, pin in self.points:
            toks.append(f"-{tag}")
            toks.append(pin)
        return " ".join(toks)


@dataclass
class WavePathClass:
    anchors: tuple          # unique anchor edge keys, path order
    k: int                  # anchors traversed, with multiplicity
    paths: list = field(default_factory=list)     # tuples of edge keys
    sources: tuple = ()
    sinks: tuple = ()
    entangled: bool = False
    constraints: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _in_pin(graph, gate, idx):
    n = len(graph.gates[gate].inputs)
    return f"{gate}/A" if n == 1 else f"{gate}/A{idx + 1}"


def _dst_pin(graph, key):
    src, dst, idx = key
    if dst in graph.gates:
        return _in_pin(graph, dst, idx)
    return f"{dst}/D"


def _anchor_points(graph, anchors):
    pts = []
    for key in anchors:
        pts.append(("through", f"{key[0]}/ZN"))
        pts.append(("through", _dst_pin(graph, key)))
    return pts


def classify_paths(graph, sol, limit=100000):
    """Enumerate simple combinational paths of the optimized circuit
    (described by graph + RetimeSolution) and group the anchored ones by
    traversed-anchor multiset."""
    lag = lambda n: sol.r.get(n, 0)
    wprime = {}
    for src, dst, w, pin in graph.edges:
        key = (src, dst, pin)
        wprime[key] = w + lag(dst) - lag(src) - sol.y.get(key, 0)

    launches = [(t, t) for t, kind in sorted(graph.terminals.items())
                if kind in ("input", "bff") and graph.out_edges(t)]
    # a kept flip-flop in the middle of the region also launches waves
    for src, dst, _, pin in graph.edges:
        if wprime[src, dst, pin] >= 1:
            launches.append((f"{src}>{dst}", dst))
    launches.sort()

    count = 0
    by_anchor = {}

    def record(launch, path):
        nonlocal count
        count += 1
        if count > limit:
            raise PathLimitError(limit)
        crossed = []
        for key in path:
            crossed.extend([key] * sol.y.get(key, 0))
        if not crossed:
            return
        mkey = tuple(sorted(crossed))
        cls = by_anchor.get(mkey)
        if cls is None:
            uniq = []
            for key in crossed:
                if key not in uniq:
                    uniq.append(key)
            cls = WavePathClass(anchors=tuple(uniq), k=len(crossed))
            by_anchor[mkey] = cls
        cls.paths.append((launch, tuple(path)))

    def out_edges(node):      # by (dst, dst_pin)
        return iter(sorted(graph.out_edges(node), key=itemgetter(1, 3)))

    # depth-first, pre-order; stack[i] iterates the out-edges of the
    # node that path[i - 1] enters (the launch node for i = 0)
    for launch, start in launches:
        path, seen, stack = [], {start}, [out_edges(start)]
        while stack:
            e = next(stack[-1], None)
            if e is None:
                stack.pop()
                if path:
                    seen.discard(path.pop()[1])
                continue
            src, dst, _, pin = e
            key = (src, dst, pin)
            if wprime[key] >= 1:
                record(launch, path + [key])   # path ends at a kept FF
                continue
            if dst not in graph.gates:
                record(launch, path + [key])   # boundary sink
                continue
            if dst in seen:
                continue
            path.append(key)
            seen.add(dst)
            stack.append(out_edges(dst))

    classes = []
    for mkey in sorted(by_anchor):
        cls = by_anchor[mkey]
        cls.sources = tuple(sorted({lp[0] for lp in cls.paths}))
        cls.sinks = tuple(sorted({_path_sink(graph, path)
                                  for _, path in cls.paths}))
        classes.append(cls)

    for cls in classes:
        cls.entangled = bool(_higher(cls, classes))
    classes.sort(key=lambda c: (c.sources, c.sinks, c.anchors))
    return classes


def _higher(cls, classes):
    """Classes with more waves through all of cls's anchors.  Paths are
    simple, so each anchor edge lies on a path at most once and anchor
    containment is set inclusion."""
    return [h for h in classes
            if h.k > cls.k and set(cls.anchors) <= set(h.anchors)]


def _path_sink(graph, path):
    last = path[-1]
    return last[1] if last[1] not in graph.gates else f"{last[0]}>{last[1]}"


def _backward_pins(graph, path, anchors):
    """Input pins from the sink backwards, stopping at (and including
    the input pin of) the first anchor encountered."""
    pins = []
    for key in reversed(path):
        if key[1] in graph.gates or key in anchors:
            pins.append(_dst_pin(graph, key))
        if key in anchors:
            break
    return pins


def _forward_pins(graph, path, anchors):
    """Input pins from the source forwards, stopping before the first
    anchor (whose own pins are already in the constraint)."""
    pins = []
    for key in path:
        if key in anchors:
            break
        if key[1] in graph.gates:
            pins.append(_dst_pin(graph, key))
    return pins


def find_differentiating_pins(classes, graph):
    """Attach constraint point lists to every class; entangled classes
    get sink-exclusive, backward-pin, or forward-pin differentiation, in
    that order."""
    for cls in classes:
        higher = _higher(cls, classes)
        base = _anchor_points(graph, cls.anchors)
        if not higher:
            cls.constraints.append(list(base))
            continue
        h_sinks = set().union(*(set(h.sinks) for h in higher))
        h_paths = [p for h in higher for p in h.paths]
        for sink in cls.sinks:
            if sink not in h_sinks:
                # name the input pin of the terminal or kept flip-flop
                # site the sink stands for
                key = next(path[-1] for _, path in cls.paths
                           if _path_sink(graph, path) == sink)
                cls.constraints.append(base + [("to", _dst_pin(graph, key))])
                continue
            # shared sink: walk backward and find a pin only our paths use
            ours = [p for _, p in cls.paths if _path_sink(graph, p) == sink]
            theirs = [p for _, p in h_paths if _path_sink(graph, p) == sink]
            their_pins = {pin for p in theirs
                          for pin in _backward_pins(graph, p, set())}
            pin = _first_exclusive(
                [_backward_pins(graph, p, set(cls.anchors)) for p in ours],
                their_pins)
            if pin is not None:
                cls.constraints.append(base + [("through", pin)])
                continue
            # last resort: walk forward from a source shared with the
            # larger class
            shared_src = sorted(set(cls.sources)
                                & {s for h in higher for s in h.sources})
            pin = None
            for src in shared_src:
                ours_s = [p for l, p in cls.paths if l == src]
                theirs_s = [p for l, p in h_paths if l == src]
                tp = {q for p in theirs_s
                      for q in _forward_pins(graph, p, set())}
                pin = _first_exclusive(
                    [_forward_pins(graph, p, set(cls.anchors))
                     for p in ours_s], tp)
                if pin is not None:
                    break
            if pin is not None:
                cls.constraints.append([("through", pin)] + base)
            else:
                cls.notes.append(f"no differentiating pin for sink {sink}")
    return classes


def _first_exclusive(pin_lists, other_pins):
    for pins in pin_lists:
        for pin in pins:
            if pin not in other_pins:
                return pin
    return None


def emit_sdc(classes, cfg):
    """Two lines per resolved constraint: max at (k+1)T, min at kT."""
    lines = []
    seen = set()
    for cls in classes:
        for points in cls.constraints:
            sig = tuple(points)
            if sig in seen:
                continue
            seen.add(sig)
            hi = SdcConstraint("max", (cls.k + 1) * cfg.T, points)
            lo = SdcConstraint("min", cls.k * cfg.T, points)
            lines.append(hi.line())
            lines.append(lo.line())
        for note in cls.notes:
            lines.append(f"# unconstrainable: {note}")
    return "\n".join(lines) + ("\n" if lines else "")
