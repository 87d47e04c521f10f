"""The benchmark's fixed design set and the seeded generator behind it.

Every generated design is a netlist file in perfbench/designs/ whose
`clock period=` line is the period the workload starts at (sweep) or
runs at (analyze).  The files are remade from the seeds recorded
below with

    python3 perfbench/designs.py

and the benchmark regenerates them at set-up and refuses to run when a
file differs, so neither an edit here nor one to the test suite's own
generator can move the benchmark unnoticed.  The generator follows the
structure of the test suite's random circuits (a DAG of one- and
two-input gates over boundary launch flip-flops, removable flip-flops
on single connections, a capture flip-flop on every unread gate) but
takes an exact gate count and shares no code with it or with wavetime.
"""

import math
import os
import random
import sys

R_U = 1.1  # the flow's default upper guard band

# The goldens come from tests/data; each starts its sweep at the period
# given here, a few steps above where its sweep ends, so that several
# passes fit in a run.  loop_orig's sweep fails at once from its file
# period (see CHANGES.md, stage-2 fault); from 15 or from 13.5 it stops
# at 13.2-13.23, on the failing d_th = 7T/8 stage-2 round.
GOLDEN_STARTS = {
    "deep_chain": 8.5,
    "fig_c": 10.4,
    "fig_chain": 8.0,
    "entangled_orig": 6.8,
    "loop_orig": 13.5,
}

# (seed, gate count, removable flip-flop budget, period); a period of
# None means the guard-banded traditional period, rounded up to 0.01.
# Seeds are drawn in order from 11 (sweep) and 31 (analyze).  Seed 12 is
# left out to keep sweep passes short: like seed 11, its sweep stops
# after the first step.  sweep_s13 and sweep_s14 start a few steps above
# where a sweep from that period ends (19.866 and 13.2275), for the same
# reason.
SWEEP_DESIGNS = [
    (11, 8, 6, None),
    (13, 12, 6, 20.1),
    (14, 9, 6, 13.4),
]
ANALYZE_DESIGNS = [
    (31, 1000, 150, None),
    (32, 1000, 150, None),
    (33, 1000, 150, None),
]

DESIGN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "designs")


def _fmt(x):
    return repr(float(x))


def traditional_period(delays, fanin, captures, t_cq, t_su):
    """t_cq + longest gate-delay path into any capture point + t_su.

    delays: gate -> delay; fanin: gate -> source names (gates or
    flip-flops/inputs); captures: source names read by flip-flops and
    outputs.  Gates must be listed in dependency order in `delays`.
    """
    arrival = {}
    for g, d in delays.items():
        arrival[g] = d + max((arrival.get(s, 0.0) for s in fanin[g]),
                             default=0.0)
    worst = max((arrival.get(s, 0.0) for s in captures), default=0.0)
    return t_cq + worst + t_su


def generate(name, seed, n_gates, max_ffs, period=None):
    """Netlist text of one seeded design."""
    rng = random.Random(seed)
    n_inputs = 1 + n_gates // 100 + rng.randint(0, 1)
    t_cq = rng.choice([1.0, 2.0, 3.0])
    pool, ff_lines, gate_lines = [], [], []
    ff_src = {}
    for i in range(n_inputs):
        ff_lines.append(f"ff FI{i} from=in{i} boundary")
        ff_src[f"FI{i}"] = f"in{i}"
        pool.append(f"FI{i}")
    delays, fanin = {}, {}
    budget, ffno = max_ffs, 0
    read = set()
    for i in range(n_gates):
        k = rng.randint(1, min(2, len(pool)))
        ins = []
        for src in rng.sample(pool, k):
            read.add(src)
            if budget > 0 and rng.random() < 0.4:
                for _ in range(rng.randint(1, min(2, budget))):
                    ff = f"R{ffno}"
                    ff_lines.append(f"ff {ff} from={src}")
                    ff_src[ff] = src
                    src = ff
                    ffno += 1
                    budget -= 1
            ins.append(src)
        g = f"g{i}"
        d = rng.choice([1.0, 2.0, 3.0, 4.0])
        lib = sorted({d, max(1.0, d - 1), d + 1})
        # a removable flip-flop launches a new traditional stage
        fanin[g] = [s for s in ins if s in delays]
        delays[g] = d
        gate_lines.append(
            f"gate {g} fn={'buf' if k == 1 else 'and'} delay={_fmt(d)} "
            f"lib={','.join(_fmt(x) for x in lib)} in={','.join(ins)}")
        pool.append(g)
    out_lines = []
    unread = [g for g in delays if g not in read]
    for j, g in enumerate(unread):
        ff_lines.append(f"ff FO{j} from={g} boundary")
        ff_src[f"FO{j}"] = g
        out_lines.append(f"output out{j} from=FO{j}")
    if period is None:
        trad = traditional_period(delays, fanin, list(ff_src.values()),
                                  t_cq, 1.0)
        period = math.ceil(round(R_U * trad * 100, 6)) / 100
    head = [f"circuit {name}", f"clock period={_fmt(period)} duty=0.5",
            f"ffparams tcq={_fmt(t_cq)} tsu=1.0 th=1.0 tdq=1.0"]
    head += [f"input in{i}" for i in range(n_inputs)]
    return "\n".join(head + gate_lines + ff_lines + out_lines) + "\n"


def generated():
    """(workload, name, text) for every generated design, in table order."""
    out = []
    for workload, table in (("sweep", SWEEP_DESIGNS),
                            ("analyze", ANALYZE_DESIGNS)):
        for seed, n_gates, max_ffs, period in table:
            name = f"{workload}_s{seed}"
            out.append((workload, name,
                        generate(name, seed, n_gates, max_ffs, period)))
    return out


def main():
    os.makedirs(DESIGN_DIR, exist_ok=True)
    wanted = set()
    for _, name, text in generated():
        path = os.path.join(DESIGN_DIR, name + ".net")
        wanted.add(name + ".net")
        with open(path, "w") as fh:
            fh.write(text)
    for stale in sorted(set(os.listdir(DESIGN_DIR)) - wanted):
        os.remove(os.path.join(DESIGN_DIR, stale))
    print(f"wrote {len(wanted)} designs to {DESIGN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
