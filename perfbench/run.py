"""wavetime benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload sweep|analyze --seed N \
        --seconds S --trace 0|1

Run from the repository root.  It imports wavetime from src/, loads the
fixed designs (see designs.py), then runs whole passes over the
workload's designs, in an order shuffled by --seed, until the next pass
would end after --seconds.  Every output is checked (checks.py).  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run (tracing.py).  Set-up and operation times are
reported in reference seconds, relative to a fixed kernel timed between
them (reference.py).  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the same
record, with per-design details, goes to perfbench/out/.
"""

import os
import sys

# BLAS threads are pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from types import SimpleNamespace

import checks
import designs as ds
import reference
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5
WAVETIME_MODULES = ("milp", "netlist", "optimizer", "retime_extract",
                    "sdcgen", "sta", "verify", "vsmodel")
STEP_FRACTION = 0.005   # `wavetime optimize` default sweep step

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "period_ratio": "ratio", "area": "area"}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


@dataclass
class Design:
    name: str
    text: str
    period: float            # start period (sweep) or analysis period
    circuit: object = None
    graph: object = None


def _import_wavetime():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wavetime", "__init__.py")):
        raise SetupError(f"no wavetime package under {src}")
    sys.path.insert(0, src)
    return SimpleNamespace(**{m: importlib.import_module(f"wavetime.{m}")
                              for m in WAVETIME_MODULES})


def import_seconds():
    """Time to import numpy and wavetime in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import numpy; "
             + "; ".join(f"import wavetime.{m}" for m in WAVETIME_MODULES)
             + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SetupError(f"importing wavetime failed: {done.stderr}")
    return float(done.stdout)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise SetupError(f"cannot read {path}: {e}") from None


def load_designs(wt, workload):
    """Regenerate the generated designs and compare them with the fixed
    files, then load the workload's designs."""
    texts = {}
    for wl, name, text in ds.generated():
        fixed = _read(os.path.join(ds.DESIGN_DIR, name + ".net"))
        if fixed != text:
            raise SetupError(f"{name}.net differs from what designs.py "
                             f"generates; rerun python3 perfbench/designs.py")
        if wl == workload:
            texts[name] = text
    out = []
    if workload == "sweep":
        for name, start in ds.GOLDEN_STARTS.items():
            text = _read(os.path.join(ROOT, "tests", "data", name + ".net"))
            out.append(Design(name, text, start))
    for name, text in texts.items():
        c = wt.netlist.parse_netlist(text)
        out.append(Design(name, text, c.T))
    if workload == "sweep":
        for d in out:
            d.circuit = wt.netlist.parse_netlist(d.text)
            d.graph = wt.netlist.to_gate_graph(d.circuit)
    return out


# -- operations: one design through the workload's whole chain ---------------

def sign_off(wt, d, placed, cfg, report):
    """What `wavetime optimize` writes and `wavetime verify` / `wavetime
    sdc orig opt.net` then do with it: placement-file round trip, window
    STA, wave equivalence, SDC from the placement's anchors."""
    text = wt.optimizer.placement_to_text(placed, cfg,
                                          wt.netlist.serialize(d.circuit))
    rt, period = wt.optimizer.placement_from_text(text)
    scfg = wt.netlist.Config(T=d.circuit.T).with_period(period)
    _, violations = wt.sta.propagate_windows(rt, scfg)
    ok, diff = wt.verify.check_equivalence(d.circuit, rt, scfg)
    sol = wt.retime_extract.RetimeSolution()
    for e in d.graph.edges:
        key = (e.src, e.dst, e.dst_pin)
        sol.y[key] = rt.anchors(e)
        sol.w_r[key] = e.w
    classes = wt.sdcgen.classify_paths(d.graph, sol)
    wt.sdcgen.find_differentiating_pins(classes, d.graph)
    sdc = wt.sdcgen.emit_sdc(classes, scfg)
    return SimpleNamespace(placed=placed, report=report, final_T=cfg.T,
                           round_trip=rt, period=period,
                           violations=violations, equivalent=ok,
                           equiv_text=diff, sdc=sdc,
                           buffer_delay=cfg.buffer_delay)


def sweep_op(wt, d):
    cfg = wt.netlist.Config(T=d.period)
    placed, report, best = wt.optimizer.sweep_clock_period(
        d.graph, cfg, STEP_FRACTION)
    return sign_off(wt, d, placed, best, report)


def analyze_op(wt, d):
    """`wavetime analyze` plus the reference simulation every `wavetime
    verify` runs."""
    c = wt.netlist.parse_netlist(d.text)
    cfg = wt.netlist.Config(T=c.T)
    min_period = wt.sta.traditional_min_period(c)
    graph = wt.netlist.to_gate_graph(c)
    placed = wt.sta.as_placed(graph)
    windows, violations = wt.sta.propagate_windows(placed, cfg)
    report = wt.sta.format_report(placed, windows, violations)
    reference = wt.verify.simulate_waves(
        c, wt.verify.reference_config(c, cfg))
    return SimpleNamespace(circuit=c, graph=graph, cfg=cfg,
                           min_period=min_period, windows=windows,
                           report_text=report, reference=reference)


OPS = {"sweep": sweep_op, "analyze": analyze_op}


def summarize(workload, d, out):
    """Quality figures of one result, used for the metrics and for the
    check that every pass reproduces the first."""
    if workload == "analyze":
        guard = checks.guard_banded_period(out.circuit)
        return {"T": out.cfg.T, "guard_period": guard,
                "ratio": out.cfg.T / guard,
                "area": checks.FF_AREA * checks.removable_ffs(out.circuit)}
    guard = checks.guard_banded_period(d.circuit)
    return {"start_T": d.period, "T": out.final_T, "guard_period": guard,
            "ratio": out.final_T / guard, "area": out.report.area_after,
            "sdc_lines": out.sdc.count("\n")}


def check(workload, d, out):
    if workload == "analyze":
        return checks.check_analysis(out.circuit, out.graph, out)
    return checks.check_sweep_result(d, out, STEP_FRACTION)


def cross_check(wt, designs):
    """Stage-1 relaxed model at each design's first period: milp.solve
    against scipy's HiGHS."""
    bad = []
    for d in designs:
        cfg = wt.netlist.Config(T=d.period)
        model = wt.vsmodel.build_relaxed_model(d.graph, cfg).model
        ours = wt.milp.solve(model, max_nodes=cfg.milp_nodes,
                             time_ms=cfg.milp_time_ms)
        theirs, msg = checks.highs_objective(model)
        bad += [f"{d.name}: {b}" for b in
                checks.check_highs(ours.objective, theirs, msg)]
    return bad


# -- per-layer metrics --------------------------------------------------------

def _observers(tracer, counts):
    def solve(sol):
        counts["solves_bound"] += sol.status == "bound_reached"

    def build(arts):
        counts["vars_max"] = max(counts["vars_max"], len(arts.model.vars))
        counts["rows_max"] = max(counts["rows_max"],
                                 len(arts.model.constraints))

    def classify(classes):
        counts["paths"] += sum(len(c.paths) for c in classes)

    def emit(text):
        counts["lines"] += text.count("\n")

    tracer.observers.update({
        "milp.solve": solve, "vsmodel.build_relaxed_model": build,
        "vsmodel.build_cdq_model": build,
        "vsmodel.build_legalization_model": build,
        "sdcgen.classify_paths": classify, "sdcgen.emit_sdc": emit})


def layer_metrics(tracer, counts, passes, traced_wall):
    """Per-pass figures from the traced run; a metric whose functions no
    longer exist is left out."""
    per = 1.0 / passes

    def calls(key):
        return tracer.calls.get(key, 0) * per

    def self_s(*keys):
        return sum(tracer.self_s.get(k, 0.0) for k in keys) * per

    builds = ("vsmodel.build_relaxed_model", "vsmodel.build_cdq_model",
              "vsmodel.build_legalization_model")
    flows = calls("optimizer.run_flow")
    rows = [
        ("milp.lp_s", "s", ("milp.lp_solve",), lambda: self_s("milp.lp_solve")),
        ("milp.lp_solves", "count", ("milp.lp_solve",),
         lambda: calls("milp.lp_solve")),
        ("milp.bnb_nodes", "count", ("milp.lp_solve", "milp.solve"),
         lambda: (calls("milp.lp_solve") - calls("milp.solve")) / 2),
        ("milp.solve_s", "s", ("milp.solve",), lambda: self_s("milp.solve")),
        ("milp.solves", "count", ("milp.solve",), lambda: calls("milp.solve")),
        ("milp.budget_hits", "count", ("milp.solve",),
         lambda: counts["solves_bound"] * per),
        ("vsmodel.build_s", "s", builds, lambda: self_s(*builds)),
        ("vsmodel.decode_s", "s", ("vsmodel.decode_solution",),
         lambda: self_s("vsmodel.decode_solution")),
        ("vsmodel.vars_max", "count", builds, lambda: counts["vars_max"]),
        ("vsmodel.rows_max", "count", builds, lambda: counts["rows_max"]),
        ("optimizer.flows", "count", ("optimizer.run_flow",), lambda: flows),
        ("optimizer.flow_self_s", "s", ("optimizer.run_flow",),
         lambda: self_s("optimizer.run_flow")),
        ("optimizer.cdq_rounds", "rounds/flow",
         ("optimizer.run_flow", "vsmodel.build_cdq_model"),
         lambda: calls("vsmodel.build_cdq_model") / flows if flows else 0.0),
        ("optimizer.legal_rounds", "rounds/flow",
         ("optimizer.run_flow", "vsmodel.build_legalization_model"),
         lambda: (calls("vsmodel.build_legalization_model") / flows
                  if flows else 0.0)),
        ("optimizer.discretize_s", "s", ("optimizer.discretize_delays",),
         lambda: self_s("optimizer.discretize_delays")),
        ("optimizer.replace_s", "s", ("optimizer.replace_buffers",),
         lambda: self_s("optimizer.replace_buffers")),
        ("optimizer.placement_s", "s",
         ("optimizer.placement_to_text", "optimizer.placement_from_text"),
         lambda: self_s("optimizer.placement_to_text",
                        "optimizer.placement_from_text")),
        ("sta.propagate_s", "s", ("sta.propagate_windows",),
         lambda: self_s("sta.propagate_windows")),
        ("sta.propagate_calls", "count", ("sta.propagate_windows",),
         lambda: calls("sta.propagate_windows")),
        ("sta.trad_s", "s", ("sta.traditional_min_period",),
         lambda: self_s("sta.traditional_min_period")),
        ("sta.report_s", "s", ("sta.format_report",),
         lambda: self_s("sta.format_report")),
        ("verify.simulate_s", "s", ("verify.simulate_waves",),
         lambda: self_s("verify.simulate_waves")),
        ("verify.equiv_s", "s", ("verify.check_equivalence",),
         lambda: self_s("verify.check_equivalence")),
        ("netlist.parse_s", "s", ("netlist.parse_netlist",),
         lambda: self_s("netlist.parse_netlist")),
        ("netlist.graph_s", "s", ("netlist.to_gate_graph",),
         lambda: self_s("netlist.to_gate_graph")),
        ("sdcgen.classify_s", "s", ("sdcgen.classify_paths",),
         lambda: self_s("sdcgen.classify_paths")),
        ("sdcgen.paths", "count", ("sdcgen.classify_paths",),
         lambda: counts["paths"] * per),
        ("sdcgen.pins_s", "s", ("sdcgen.find_differentiating_pins",),
         lambda: self_s("sdcgen.find_differentiating_pins")),
        ("sdcgen.emit_s", "s", ("sdcgen.emit_sdc",),
         lambda: self_s("sdcgen.emit_sdc")),
        ("sdcgen.lines", "count", ("sdcgen.emit_sdc",),
         lambda: counts["lines"] * per),
        ("bench.traced_wall_s", "s", (), lambda: traced_wall),
    ]
    metrics, absent = {}, []
    for name, unit, needs, value in rows:
        if any(k in tracer.absent for k in needs):
            absent.append(name)
            continue
        metrics[name] = {"value": value(), "unit": unit}
    return metrics, absent


# -- measurement --------------------------------------------------------------

def measure(wt, workload, designs, seconds, tracer):
    """Whole passes over the designs until the next one would end after
    `seconds`.  The reference kernel runs before the first operation and
    after each one; an operation's ratio is its seconds over the mean of
    the kernel's seconds just before and just after it.  Returns the
    per-pass wall times, per-design operation seconds and ratios, the
    kernel times, per-design summaries, the attempted/failed counts and
    the problems found."""
    op = OPS[workload]
    r = SimpleNamespace(passes=[], op_seconds={d.name: [] for d in designs},
                        op_ratios={d.name: [] for d in designs},
                        refs=[reference.kernel_seconds()], summaries={},
                        attempted=0, failed=0, problems=[])
    start = time.perf_counter()
    while True:
        wall = 0.0
        for d in designs:
            r.attempted += 1
            out = None
            try:
                with tracer.op(d.name) if tracer else nullcontext():
                    t0 = time.perf_counter()
                    out = op(wt, d)
                    dt = time.perf_counter() - t0
            except Exception:
                r.failed += 1
                print(f"{d.name}: operation failed", file=sys.stderr)
                traceback.print_exc()
            r.refs.append(reference.kernel_seconds())
            if out is None:
                continue
            wall += dt
            r.op_seconds[d.name].append(dt)
            r.op_ratios[d.name].append(2 * dt / (r.refs[-2] + r.refs[-1]))
            summary = summarize(workload, d, out)
            first = r.summaries.setdefault(d.name, summary)
            if summary != first:
                r.problems.append(f"{d.name}: pass {len(r.passes) + 1} gave "
                                  f"{summary}, pass 1 gave {first}")
            # `wavetime verify` exiting with FAIL ends the chain as failed;
            # the result still counts in the quality metrics
            if workload == "sweep" and not out.equivalent:
                r.failed += 1
                if not r.passes:
                    print(f"{d.name}: check_equivalence FAIL\n"
                          f"{out.equiv_text}", file=sys.stderr)
            elif not r.passes:
                r.problems += [f"{d.name}: {b}"
                               for b in check(workload, d, out)]
        r.passes.append(wall)
        elapsed = time.perf_counter() - start
        if elapsed * (len(r.passes) + 1) / len(r.passes) > seconds:
            return r


def set_up(wt, workload):
    """Imports in a fresh interpreter and input loads in this one, each
    SETUP_REPEATS times with the reference kernel run between them.
    Returns the designs, the set-up time in reference seconds (median
    import ratio plus median load ratio, times REF_S) and in seconds."""
    reference.kernel_seconds()          # warm-up
    refs = [reference.kernel_seconds()]
    imports, loads = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = time.perf_counter()
        designs = load_designs(wt, workload)
        loads.append(time.perf_counter() - t0)
        refs.append(reference.kernel_seconds())
    around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    setup_ref_s = reference.REF_S * (
        statistics.median(i / a for i, a in zip(imports, around))
        + statistics.median(ld / a for ld, a in zip(loads, around)))
    setup_raw_s = statistics.median(imports) + statistics.median(loads)
    return designs, setup_ref_s, setup_raw_s


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def run(args):
    wt = _import_wavetime()
    designs, setup_s, setup_raw_s = set_up(wt, args.workload)
    random.Random(args.seed).shuffle(designs)

    tracer = counts = None
    if args.trace:
        tracer = Tracer(vars(wt))
        counts = {"solves_bound": 0, "vars_max": 0, "rows_max": 0,
                  "paths": 0, "lines": 0}
        _observers(tracer, counts)
        tracer.install()
    try:
        meas = measure(wt, args.workload, designs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # one pass, as the sum of each design's median ratio to the reference
    # kernel, in reference seconds: a burst of host load that slows the
    # operation slows the kernel around it too, and drops out
    wall_s = reference.REF_S * sum(statistics.median(v)
                                   for v in meas.op_ratios.values() if v)
    wall_raw_s = sum(statistics.median(v)
                     for v in meas.op_seconds.values() if v)
    summaries, problems = meas.summaries, meas.problems

    if args.workload == "sweep":
        problems += cross_check(wt, designs)

    if args.trace:
        metrics, absent = layer_metrics(tracer, counts, len(meas.passes),
                                        wall_s)
        if counts["solves_bound"]:
            problems.append(f"{counts['solves_bound']} MILP solves ended on "
                            f"their node or time budget")
        if absent:
            print("absent layers: " + ", ".join(absent), file=sys.stderr)
    else:
        done = [summaries[d.name] for d in designs if d.name in summaries]
        if not done:
            raise SetupError("no operation produced a result")
        values = {"setup_s": setup_s, "wall_s": wall_s,
                  "peak_rss_mb": peak_rss_mb,
                  "period_ratio": geomean([s["ratio"] for s in done]),
                  "area": sum(s["area"] for s in done)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}

    for name in sorted(summaries):
        print(f"{name}: " + " ".join(f"{k}={v:.6g}" for k, v in
                                     summaries[name].items()))
    print(f"passes={len(meas.passes)} pass_wall_s="
          + ",".join(f"{p:.3f}" for p in meas.passes))
    print(f"measured seconds: wall {wall_raw_s:.4f}, setup {setup_raw_s:.4f}; "
          f"reference kernel median {statistics.median(meas.refs):.4f} s, "
          f"REF_S {reference.REF_S} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for p in problems:
        print("CHECK FAILED: " + p, file=sys.stderr)

    result = {"correct": not problems, "attempted": meas.attempted,
              "failed": meas.failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, passes=meas.passes,
                       op_seconds=meas.op_seconds,
                       op_ratios=meas.op_ratios, reference_s=meas.refs,
                       wall_raw_s=wall_raw_s, setup_raw_s=setup_raw_s,
                       designs=summaries, problems=problems), fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.json")
    print(json.dumps(result))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except SetupError as e:
        print(f"benchmark not run: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
