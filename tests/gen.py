"""Circuit generators and helpers shared by the test suites."""

import pathlib
import random
from dataclasses import replace

from wavetime import sta
from wavetime.netlist import (Circuit, Config, FlipFlop, FlipFlopParams, Gate,
                              parse_netlist, to_gate_graph)

DATA = pathlib.Path(__file__).parent / "data"


def load(name):
    return parse_netlist((DATA / name).read_text())


def load_pair(stem):
    orig = parse_netlist((DATA / f"{stem}_orig.net").read_text())
    opt = parse_netlist((DATA / f"{stem}_opt.net").read_text())
    return to_gate_graph(orig), to_gate_graph(opt)


def exact_cfg(T, **kw):
    """Guard bands off, matching the printed example arithmetic."""
    kw.setdefault("t_stable", 0.0)
    return Config(T=T, r_u=1.0, r_l=1.0, **kw)


def chain_placement(fig_chain, keep_site=True):
    g = to_gate_graph(fig_chain)
    placed = sta.as_placed(g)
    if keep_site:
        placed.decisions[("w", "z", 0)] = sta.EdgeDecision(
            unit="flipflop", n_cycle=0, phi=0.0)
    return placed


def random_circuit(rng: random.Random, max_gates=12, max_ffs=6, T=None,
                   with_loop=False):
    """Build a valid random circuit: DAG of gates with removable
    flip-flops interposed on single connections (so collapsing them into
    edge weights is well defined), boundary flip-flops at the edges."""
    n_gates = rng.randint(1, max_gates)
    n_inputs = rng.randint(1, 2)
    ffp = FlipFlopParams(t_cq=rng.choice([1.0, 2.0, 3.0]), t_su=1.0, t_h=1.0,
                         t_dq=1.0)
    inputs = [f"in{i}" for i in range(n_inputs)]
    ffs = {}
    gates = {}
    # launch registers on the primary inputs
    pool = []
    for i, src in enumerate(inputs):
        name = f"FI{i}"
        ffs[name] = FlipFlop(name, src, boundary=True)
        pool.append(name)

    ff_budget = rng.randint(0, max_ffs)
    ffno = 0
    for i in range(n_gates):
        k = rng.randint(1, min(2, len(pool)))
        ins = []
        for src in rng.sample(pool, k):
            if ff_budget > 0 and rng.random() < 0.4:
                chain = rng.randint(1, min(2, ff_budget))
                for _ in range(chain):
                    fname = f"F{ffno}"
                    ffs[fname] = FlipFlop(fname, src, boundary=False)
                    src = fname
                    ffno += 1
                    ff_budget -= 1
            ins.append(src)
        d = rng.choice([1.0, 2.0, 3.0, 4.0])
        lib = tuple(sorted({d, max(1.0, d - 1), d + 1}))
        gates[f"g{i}"] = Gate(f"g{i}", "buf" if k == 1 else "and", d, lib,
                              tuple(ins))
        pool.append(f"g{i}")

    if with_loop and gates:
        # feedback through a boundary flip-flop keeps every cycle broken
        tail = rng.choice(list(gates))
        ffs["FL"] = FlipFlop("FL", tail, boundary=True)
        head = rng.choice(list(gates))
        g = gates[head]
        gates[head] = Gate(g.name, "and", g.d, g.lib, g.inputs + ("FL",))

    # capture registers: every gate not read by anyone gets one
    read = set()
    for g in gates.values():
        read.update(g.inputs)
    read.update(f.src for f in ffs.values())
    outputs = []
    for i, name in enumerate(g for g in gates if g not in read):
        cap = f"FO{i}"
        ffs[cap] = FlipFlop(cap, name, boundary=True)
        outputs.append((f"out{i}", cap))
    if not outputs:
        ffs["FO"] = FlipFlop("FO", list(gates)[-1] if gates else pool[0],
                             boundary=True)
        outputs.append(("out0", "FO"))

    if T is None:
        T = float(rng.randint(6, 14))
    c = Circuit(f"rand", T, 0.5, ffp, gates, ffs, inputs, outputs)
    c.validate()
    return c


def random_chain(rng):
    """A chain of 4-8 buffers of delay 4-7 from a boundary flip-flop to a
    boundary flip-flop at T = 10, most of them followed by a removable
    flip-flop, so that the flow places sequential units; on two thirds
    of the seeds one more gate reads a gate near the end of the chain
    and drives nothing."""
    n = rng.randint(4, 8)
    lines = ["circuit chain", "clock period=10 duty=0.5",
             f"ffparams tcq={rng.choice([1, 2, 3])} tsu=1 th=1 tdq=1",
             "input a", "ff F0 from=a boundary"]
    src = "F0"
    for i in range(n):
        d = rng.choice([4, 5, 6, 7])
        lines.append(f"gate g{i} fn=buf delay={d} lib={d - 1},{d} in={src}")
        src = f"g{i}"
        if i < n - 1 and rng.random() < 0.8:
            lines.append(f"ff R{i} from={src}")
            src = f"R{i}"
    if rng.random() < 0.67:
        lines.append(f"gate gx fn=buf delay=5 lib=4,5 "
                     f"in=g{rng.randrange(n - 3, n - 1)}")
    lines += [f"ff FO from={src} boundary", "output y from=FO"]
    return parse_netlist("\n".join(lines) + "\n")


def deep_chain_text(n, d=0.5, T=2000.0, ff_after=None):
    """Netlist text of an n-gate buffer chain from a boundary flip-flop
    to a boundary flip-flop, with a removable flip-flop FM after the
    ff_after-th gate if given.  Gates are declared last-first and named
    so that they sort against the chain: the chain runs g{n-1} ... g0."""
    names = [f"g{n - 1 - i:04d}" for i in range(n)]
    lines = ["circuit deep", f"clock period={T} duty=0.5",
             "ffparams tcq=3 tsu=1 th=1 tdq=1", "input a",
             "ff FI from=a boundary"]
    srcs = ["FI"] + names[:-1]
    if ff_after is not None:
        lines.append(f"ff FM from={names[ff_after - 1]}")
        srcs[ff_after] = "FM"
    for name, src in reversed(list(zip(names, srcs))):
        lines.append(f"gate {name} fn=buf delay={d} in={src}")
    lines += [f"ff FO from={names[-1]} boundary", "output y from=FO"]
    return "\n".join(lines) + "\n"


def reverse_gate_names(c):
    """The circuit with its gates renamed so that their names sort in
    reverse, and the old -> new name map."""
    names = sorted(c.gates)
    new = {g: f"h{len(names) - 1 - i:03d}" for i, g in enumerate(names)}

    def m(n):
        return new.get(n, n)

    gates = {new[g.name]: replace(g, name=new[g.name],
                                  inputs=tuple(map(m, g.inputs)))
             for g in c.gates.values()}
    ffs = {f.name: replace(f, src=m(f.src)) for f in c.ffs.values()}
    outputs = [(o, m(src)) for o, src in c.outputs]
    return Circuit(c.name, c.T, c.duty, c.ff_params, gates, ffs,
                   list(c.inputs), outputs), new


def add_flipflop_loop(rng, c):
    """Feed a gate back into itself or one of its gate ancestors through a
    removable flip-flop, so the gate graph has a cycle."""
    gates = dict(c.gates)
    tail = head = rng.choice(sorted(gates))
    for _ in range(rng.randint(0, 3)):
        ups = [src for src in gates[head].inputs if src in gates]
        if ups:
            head = rng.choice(ups)
    ffs = dict(c.ffs)
    ffs["FB"] = FlipFlop("FB", tail)
    g = gates[head]
    gates[head] = replace(g, fn="and", inputs=g.inputs + ("FB",))
    looped = Circuit(c.name, c.T, c.duty, c.ff_params, gates, ffs,
                     c.inputs, c.outputs)
    looped.validate()
    return looped
