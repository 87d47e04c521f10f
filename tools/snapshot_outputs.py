"""Write every observable output of the toolkit to OUTDIR, one file each.

    python3 tools/snapshot_outputs.py OUTDIR

Run it in two checkouts and compare with `diff -r OUT_A OUT_B`: an empty
diff means the two produce byte-identical outputs.  The script imports
`wavetime` from the `src/` next to it and the random circuit generator
from `tests/gen.py`, so copy it into a checkout that lacks it.

Inputs: every `tests/data/*.net` plus eight seeded `gen.random_circuit`
designs.  Per design: the traditional minimum period (its exact repr,
which `analyze` rounds to 6 digits), the window report, the reference
wave simulation, the LP text and raw solver values of the relaxed, cdq
(d_th = 7T/8 and 0) and legalization models, the raw result of every LP
the solver solved for each of those models (the root and every
branch-and-bound node, tagged cold or warm by how it was started), at
the file period and 1.2 times it the `run_flow` report, placement,
equivalence text, SDC, the window STA and the wave simulation of the
placement (both sorted, so independent of visit order), and the report,
placement and trajectory of a `sweep_clock_period` from the file period
in steps of 5%.  The trajectory has one line per flow: the period, how
the root LP of every stage's solves started (cold or warm), the stage-1
objective in absolute time, and for the flow that stopped the sweep the
stage that failed.  Then the CLI
`extract`, `sdc` and `verify` outputs on both netlist pairs, and the
`analyze` output of every `tests/data/*.net`.  Each CLI file holds the
exit code, then what the command wrote to stdout and stderr.
"""

import contextlib
import io
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gen import random_circuit  # noqa: E402
from wavetime import (cli, milp, netlist as nl, optimizer,  # noqa: E402
                      sdcgen, sta, verify, vsmodel)

DATA = ROOT / "tests" / "data"
PAIRS = (("loop_orig", "loop_opt"), ("entangled_orig", "entangled_opt"))


def designs():
    for path in sorted(DATA.glob("*.net")):
        yield path.stem, nl.parse_netlist(path.read_text())
    for seed in range(8):
        rng = random.Random(7000 + seed)
        yield f"rand{seed}", random_circuit(rng, max_gates=8, max_ffs=4,
                                            with_loop=seed % 2 == 1)


def guarded(fn):
    """The output of fn, or the exception it raised, as text."""
    try:
        return fn()
    except Exception as e:  # every failure is itself an output
        return f"{type(e).__name__}: {e}\n"


def models(graph, cfg):
    """(label, model) for the relaxed model, the cdq models on its sites
    and the legalization model on its sites."""
    relaxed = vsmodel.build_relaxed_model(graph, cfg)
    yield "relaxed", relaxed.model
    sol = milp.solve(relaxed.model, max_nodes=cfg.milp_nodes,
                     time_ms=cfg.milp_time_ms)
    if sol.status != "optimal":
        return
    _, sites = vsmodel.decode_solution(relaxed, sol)
    for label, d_th in (("cdq_hi", 7 * cfg.T / 8), ("cdq_0", 0.0)):
        yield label, vsmodel.build_cdq_model(graph, cfg, set(sites),
                                             d_th).model
    yield "legal", vsmodel.build_legalization_model(graph, cfg,
                                                    set(sites)).model


def solve_recording(model, cfg):
    """milp.solve on the model, and the text of every lp_solve result it
    got on the way, with exact float reprs, each tagged "cold" (solved
    from the slack basis) or "warm" (re-solved from a kept tableau)."""
    lines = []
    kernel = milp.lp_solve

    def record(*args, **kwargs):
        result = kernel(*args, **kwargs)
        status, x, obj = result[:3]
        tag = "cold" if kwargs.get("start") is None else "warm"
        lines.append(f"{tag} {status} {obj!r} "
                     f"{None if x is None else x.tolist()!r}\n")
        return result

    milp.lp_solve = record
    try:
        sol = milp.solve(model, max_nodes=cfg.milp_nodes,
                         time_ms=cfg.milp_time_ms)
    finally:
        milp.lp_solve = kernel
    return sol, "".join(lines)


def sweep_recording(graph, cfg, lines):
    """sweep_clock_period from cfg in steps of 5%, appending one line
    per flow to lines: "T=<period> relaxed=<start> objective=<stage-1
    objective> cdq=<start>,... legalization=<start>,...", where each
    <start> tells how the root LP of one solve of that stage started
    (cold or warm) and the objective is in absolute time, ending
    "stopped=<stage>" on the flow that failed, or "stopped=period" when
    the next period would not be positive."""
    flow, solve_stage, kernel = (optimizer.run_flow, optimizer._solve_stage,
                                 milp.lp_solve)
    rows = []

    def record_flow(graph, cfg, start=None):
        rows.append([f"T={cfg.T!r}"])
        try:
            return flow(graph, cfg, start)
        except optimizer.InfeasibleError as e:
            rows[-1].append(f"stopped={e.stage}")
            raise

    def record_stage(arts, cfg, stage, start=None):
        starts = []

        def record_lp(*args, **kwargs):
            starts.append("cold" if kwargs.get("start") is None else "warm")
            return kernel(*args, **kwargs)

        milp.lp_solve = record_lp
        try:
            sol = solve_stage(arts, cfg, stage, start)
        finally:
            milp.lp_solve = kernel
            row = rows[-1]
            # the first LP of a solve is its root
            if row[-1].startswith(f"{stage}="):
                row[-1] += f",{starts[0]}"
            else:
                row.append(f"{stage}={starts[0]}")
        if stage == "relaxed":
            rows[-1].append(f"objective={sol.objective * cfg.T!r}")
        return sol

    optimizer.run_flow, optimizer._solve_stage = record_flow, record_stage
    try:
        result = optimizer.sweep_clock_period(graph, cfg, 0.05)
        if not rows[-1][-1].startswith("stopped="):
            rows[-1].append("stopped=period")
        return result
    finally:
        optimizer.run_flow, optimizer._solve_stage = flow, solve_stage
        lines.extend(" ".join(row) + "\n" for row in rows)


def windows_text(windows, violations):
    """propagate_windows output that does not depend on the order it
    visited nodes in: sorted (key, s, s') lines, then the sorted
    violation multiset."""
    lines = sorted(f"{k!r} {w.s!r} {w.s_prime!r}\n"
                   for k, w in windows.items())
    lines += sorted(f"{v.node!r} {v.kind} {v.margin!r}\n"
                    for v in violations)
    return "".join(lines)


def simulation_text(rep):
    """simulate_waves output that does not depend on the order it visited
    nodes in: the converged flag, the offsets, then windows_text."""
    return (f"{rep.converged}\n{sorted(rep.offsets.items())!r}\n"
            + windows_text(rep.windows, rep.violations))


def flow_outputs(circuit, graph, cfg):
    placed, report = optimizer.run_flow(graph, cfg)
    base = nl.serialize(circuit)
    ok, diff = verify.check_equivalence(circuit, placed, cfg)
    classes = sdcgen.classify_paths(graph, cli._anchor_solution(graph, placed))
    sdcgen.find_differentiating_pins(classes, graph)
    return {"report": report.text(),
            "placement": optimizer.placement_to_text(placed, cfg, base),
            "equiv": f"{ok}\n{diff}",
            "windows": windows_text(*sta.propagate_windows(placed, cfg)),
            "simulate": simulation_text(verify.simulate_waves(placed, cfg)),
            "sdc": sdcgen.emit_sdc(classes, cfg)}


def snapshot(name, circuit):
    out = {}
    graph = nl.to_gate_graph(circuit)
    cfg = nl.Config(T=circuit.T)
    placed = sta.as_placed(graph)
    out["min_period"] = f"{sta.traditional_min_period(circuit)!r}\n"
    out["format_report"] = guarded(lambda: sta.format_report(
        placed, *sta.propagate_windows(placed, cfg)))
    out["simulate"] = guarded(lambda: repr(verify.simulate_waves(
        circuit, verify.reference_config(circuit, cfg))) + "\n")
    for label, model in models(graph, cfg):
        out[f"{label}.lp"] = milp.export_lp(model)
        sol, out[f"{label}.lps"] = solve_recording(model, cfg)
        out[f"{label}.values"] = f"{sol.status} {sol.objective!r}\n" \
            f"{sol.values!r}\n"
    for tag, T in (("T", circuit.T), ("T1.2", 1.2 * circuit.T)):
        try:
            texts = flow_outputs(circuit, graph, cfg.with_period(T))
        except optimizer.InfeasibleError as e:
            texts = {"error": f"{e}\n"}
        for key, text in texts.items():
            out[f"flow_{tag}.{key}"] = text
    trajectory = []
    try:
        placed, report, best = sweep_recording(graph, cfg, trajectory)
        texts = {"report": report.text(),
                 "placement": optimizer.placement_to_text(
                     placed, best, nl.serialize(circuit))}
    except optimizer.InfeasibleError as e:
        texts = {"error": f"{e}\n"}
    texts["trajectory"] = "".join(trajectory)
    for key, text in texts.items():
        out[f"sweep.{key}"] = text
    return {f"{name}.{key}": text for key, text in out.items()}


def run_cli(argv):
    """The exit code and the output of one CLI run, as text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return f"exit {code}\n{buf.getvalue()}"


def cli_outputs():
    out = {}
    for orig, opt in PAIRS:
        for cmd in ("extract", "sdc", "verify"):
            with tempfile.TemporaryDirectory() as tmp:
                out[f"cli.{cmd}.{orig}"] = run_cli(
                    [cmd, str(DATA / f"{orig}.net"), str(DATA / f"{opt}.net"),
                     "--out-dir", tmp])
    for path in sorted(DATA.glob("*.net")):
        out[f"cli.analyze.{path.stem}"] = run_cli(["analyze", str(path)])
    return out


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    outdir = pathlib.Path(argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    files = cli_outputs()
    for name, circuit in designs():
        files.update(snapshot(name, circuit))
    for name, text in files.items():
        (outdir / name).write_text(text)
    print(f"{len(files)} files in {outdir}")


if __name__ == "__main__":
    main(sys.argv)
