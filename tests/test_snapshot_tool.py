import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "snapshot_outputs.py"


def test_snapshot_tool_writes_every_output(tmp_path):
    """The tool wraps functions of the package by name, so a rename shows
    here and not only when two checkouts' snapshots are compared."""
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, str(TOOL), str(out)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    files = {p.name: p for p in out.iterdir()}
    assert run.stdout == f"{len(files)} files in {out}\n"
    designs = [n[:-len(".format_report")] for n in files
               if n.endswith(".format_report")]
    assert len(designs) >= 10
    # an optimal model's solve went through milp.lp_solve, root first, so
    # its recording shows that the tool's wrapper of the kernel was called
    optimal = [n[:-len(".values")] for n, p in files.items()
               if n.endswith(".values")
               and p.read_text().startswith("optimal")]
    assert optimal
    for model in optimal:
        lps = files[f"{model}.lps"].read_text()
        assert lps.startswith("cold"), model
    later = []      # the stage-2 and stage-3 roots after a first flow
    for name in designs:
        lines = files[f"{name}.sweep.trajectory"].read_text().splitlines()
        for line in lines:
            # each line tells how each stage's root LPs started
            starts = dict(tok.split("=") for tok in line.split()[1:])
            assert starts["relaxed"] in ("cold", "warm"), (name, line)
            for stage in ("cdq", "legalization"):
                assert set(starts.get(stage, "cold").split(",")) <= \
                    {"cold", "warm"}, (name, line)
        for line in lines[1:]:
            later += [tok.split("=")[1].split(",")[0] for tok in line.split()
                      if tok.startswith(("cdq=", "legalization="))]
        assert "stopped=" in lines[-1].split()[-1], name
    # a later step re-solves the stage-2 and stage-3 models of the one
    # before it
    assert "warm" in later
