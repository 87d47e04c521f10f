"""Explain an optimized circuit as retiming plus flip-flop removal.

Given the gate graph before and after optimization, an ILP finds integer
lags r(g) and per-edge removal counts y(e) such that moving r(g)
flip-flops across each gate and then deleting y(e) from each edge turns
the original weights into the optimized ones.  Edges with y(e) >= 1 are
the anchor points.
"""

from dataclasses import dataclass, field

from . import milp
from .milp import INTEGER, MilpModel


class RetimeError(Exception):
    """The two graphs are not related by retiming plus removal."""


@dataclass
class RetimeSolution:
    r: dict = field(default_factory=dict)    # gate -> integer lag
    y: dict = field(default_factory=dict)    # edge key -> removal count
    w_r: dict = field(default_factory=dict)  # edge key -> retimed weight

    def anchors(self):
        return {k: n for k, n in self.y.items() if n >= 1}

    def text(self):
        lines = [f"edge {k[0]} {k[1]} removed={n}"
                 for k, n in sorted(self.anchors().items())]
        return "\n".join(lines) + ("\n" if lines else "")


def _lag(sol_r, node):
    # terminals are pinned to zero lag; only gates carry variables
    return sol_r.get(node, 0)


def extract_removals(orig, opt, objective="min-removals"):
    """Solve for (r, y); objective "min-removals" prefers the sparsest
    anchor set (lags break ties), "min-lags" the other way around."""
    if objective not in ("min-removals", "min-lags"):
        raise ValueError(f"unknown objective {objective!r}")
    if set(orig.gates) != set(opt.gates):
        raise RetimeError("structural mismatch: gate sets differ")
    okeys = {(e.src, e.dst, e.dst_pin): e.w for e in orig.edges}
    pkeys = {(e.src, e.dst, e.dst_pin): e.w for e in opt.edges}
    if set(okeys) != set(pkeys):
        raise RetimeError("structural mismatch: connection sets differ")

    F = max(1, orig.total_weight()
            + sum(1 for k in orig.terminals.values() if k == "bff"))
    m = MilpModel()
    r_pos, r_neg = {}, {}
    for g in sorted(orig.gates):
        r_pos[g] = m.add_var(INTEGER, lb=0, ub=F, name=f"rp_{g}")
        r_neg[g] = m.add_var(INTEGER, lb=0, ub=F, name=f"rn_{g}")
    yv = {}
    for k in sorted(okeys):
        yv[k] = m.add_var(INTEGER, lb=0, ub=2 * F, name=f"y_{k[0]}_{k[1]}")

    def lag_coeffs(coeffs, node, sign):
        if node in r_pos:
            coeffs[r_pos[node]] = coeffs.get(r_pos[node], 0.0) + sign
            coeffs[r_neg[node]] = coeffs.get(r_neg[node], 0.0) - sign

    for k in sorted(okeys):
        src, dst, _ = k
        # w(e) + r(dst) - r(src) - y(e) = w'(e)
        coeffs = {yv[k]: -1.0}
        lag_coeffs(coeffs, dst, +1.0)
        lag_coeffs(coeffs, src, -1.0)
        m.add_constr(coeffs, "=", float(pkeys[k] - okeys[k]))
        # retimed weight stays nonnegative
        coeffs = {}
        lag_coeffs(coeffs, dst, +1.0)
        lag_coeffs(coeffs, src, -1.0)
        if coeffs:
            m.add_constr(coeffs, ">=", float(-okeys[k]))

    lag_cost = 2 * len(orig.gates) * F + 1
    rem_cost = 2 * len(okeys) * F + 1
    obj = {}
    ky = rem_cost if objective == "min-removals" else 1.0
    kr = 1.0 if objective == "min-removals" else lag_cost
    for v in yv.values():
        obj[v] = ky
    for g in r_pos:
        obj[r_pos[g]] = kr
        obj[r_neg[g]] = kr
    m.set_objective(obj)

    sol = milp.solve(m)
    if sol.status != "optimal":
        raise RetimeError("structural mismatch: no retime-plus-removal "
                          "relation exists")
    out = RetimeSolution()
    for g in sorted(orig.gates):
        out.r[g] = round(sol.values[r_pos[g]] - sol.values[r_neg[g]])
    for k in sorted(okeys):
        out.y[k] = round(sol.values[yv[k]])
        out.w_r[k] = okeys[k] + _lag(out.r, k[1]) - _lag(out.r, k[0])
        if out.w_r[k] < 0 or out.w_r[k] - out.y[k] != pkeys[k]:
            raise RetimeError("solution audit failed")
    return out
