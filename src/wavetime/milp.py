"""Mixed-integer linear programming: model container, big-M linearization
helpers, an embedded branch-and-bound solver over a dense two-phase
simplex kernel, and CPLEX-LP text export.

The solver is deterministic: Bland's rule in the LP kernel, best-bound
node selection with insertion-order tie-breaks, branching on the most
fractional integer variable with lowest-id ties.
"""

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

# substitute for missing bounds on continuous variables; kept moderate so
# the simplex tableau stays well conditioned
FREE_BOUND = 1e6

FEAS_EPS = 1e-6
PIVOT_EPS = 1e-9


@dataclass
class Var:
    id: int
    kind: str
    lb: float
    ub: float
    name: str


@dataclass
class Constraint:
    coeffs: dict      # var id -> coefficient
    rel: str          # "<=", ">=", "="
    rhs: float
    name: str


@dataclass
class Solution:
    status: str       # optimal | feasible | infeasible | bound_reached
    values: dict
    objective: float


class MilpModel:
    def __init__(self, name="model"):
        self.name = name
        self.vars = []
        self.constraints = []
        self.obj = {}
        self.obj_const = 0.0
        self.sense = "min"

    def add_var(self, kind=CONTINUOUS, lb=None, ub=None, name=None):
        if kind == BINARY:
            lb, ub = 0.0, 1.0
        if kind == INTEGER and (lb is None or ub is None or
                                not np.isfinite([lb, ub]).all()):
            raise ValueError("integer variables need finite bounds")
        if lb is None:
            lb = -FREE_BOUND
        if ub is None:
            ub = FREE_BOUND
        if lb > ub:
            raise ValueError(f"empty domain [{lb}, {ub}]")
        vid = len(self.vars)
        self.vars.append(Var(vid, kind, float(lb), float(ub),
                             name or f"v{vid}"))
        return vid

    def add_constr(self, coeffs, rel, rhs, name=None):
        assert rel in ("<=", ">=", "=")
        for v in coeffs:
            if not (0 <= v < len(self.vars)):
                raise ValueError(f"unknown variable {v}")
            if not np.isfinite(coeffs[v]):
                raise ValueError("non-finite coefficient")
        self.constraints.append(
            Constraint(dict(coeffs), rel, float(rhs),
                       name or f"c{len(self.constraints)}"))

    def set_objective(self, coeffs, sense="min", const=0.0):
        assert sense in ("min", "max")
        self.obj = dict(coeffs)
        self.obj_const = float(const)
        self.sense = sense

    # -- linearization helpers ---------------------------------------------

    def linearize_product(self, x, v, name=None):
        """New variable z equal to x*v for binary x and bounded v."""
        xv, vv = self.vars[x], self.vars[v]
        assert xv.kind == BINARY
        L, U = vv.lb, vv.ub
        if not np.isfinite([L, U]).all():
            raise ValueError("product linearization needs bounded v")
        z = self.add_var(CONTINUOUS, lb=min(L, 0.0), ub=max(U, 0.0),
                         name=name or f"prod_{xv.name}_{vv.name}")
        self.add_constr({z: 1.0, x: -U}, "<=", 0.0)
        self.add_constr({z: 1.0, x: -L}, ">=", 0.0)
        self.add_constr({z: 1.0, v: -1.0, x: -L}, "<=", -L)
        self.add_constr({z: 1.0, v: -1.0, x: -U}, ">=", -U)
        return z

    def add_either_or(self, branches, big_M):
        """One binary selector per branch, exactly one active; inactive
        branches are relaxed by big_M.  Each branch is a list of
        (coeffs, rel, rhs) with rel in {"<=", ">="}."""
        assert len(branches) >= 2
        sels = [self.add_var(BINARY, name=f"sel{len(self.vars)}")
                for _ in branches]
        self.add_constr({s: 1.0 for s in sels}, "=", 1.0)
        for sel, branch in zip(sels, branches):
            for coeffs, rel, rhs in branch:
                c = dict(coeffs)
                if rel == ">=":
                    # expr >= rhs - M(1 - sel)
                    c[sel] = c.get(sel, 0.0) - big_M
                    self.add_constr(c, ">=", rhs - big_M)
                elif rel == "<=":
                    c[sel] = c.get(sel, 0.0) + big_M
                    self.add_constr(c, "<=", rhs + big_M)
                else:
                    raise ValueError("either-or branches use <= or >=")
        return sels

    def add_indicator(self, x, coeffs, rhs, big_M):
        """expr >= rhs whenever binary x is 1 (big-M relaxed otherwise)."""
        assert self.vars[x].kind == BINARY
        c = dict(coeffs)
        c[x] = c.get(x, 0.0) - big_M
        self.add_constr(c, ">=", rhs - big_M)

    # -- audit -------------------------------------------------------------

    def violated(self, values, eps=FEAS_EPS):
        """Names of constraints (or variable bounds) broken by values."""
        bad = []
        for v in self.vars:
            x = values[v.id]
            if x < v.lb - eps or x > v.ub + eps:
                bad.append(f"bound:{v.name}")
            if v.kind != CONTINUOUS and abs(x - round(x)) > eps:
                bad.append(f"integrality:{v.name}")
        for c in self.constraints:
            lhs = sum(a * values[v] for v, a in c.coeffs.items())
            if c.rel == "<=" and lhs > c.rhs + eps:
                bad.append(c.name)
            elif c.rel == ">=" and lhs < c.rhs - eps:
                bad.append(c.name)
            elif c.rel == "=" and abs(lhs - c.rhs) > eps:
                bad.append(c.name)
        return bad

    def objective_value(self, values):
        return self.obj_const + sum(a * values[v] for v, a in self.obj.items())


# -- LP kernel ---------------------------------------------------------------

def _pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    for r in range(tab.shape[0]):
        if r != row and abs(tab[r, col]) > 0:
            tab[r] -= tab[r, col] * tab[row]
    basis[row] = col


def _simplex(tab, basis, allowed):
    """Minimize the cost row of a feasible tableau with Bland's rule."""
    m = tab.shape[0] - 1
    while True:
        cost = tab[-1, :-1]
        enter = -1
        for j in range(len(cost)):
            if allowed[j] and cost[j] < -PIVOT_EPS:
                enter = j
                break
        if enter < 0:
            return True
        leave, best = -1, np.inf
        for r in range(m):
            a = tab[r, enter]
            if a > PIVOT_EPS:
                ratio = tab[r, -1] / a
                if leave < 0 or ratio < best - PIVOT_EPS or \
                        (abs(ratio - best) <= PIVOT_EPS and
                         basis[r] < basis[leave]):
                    leave = r
                    best = min(best, ratio)
        if leave < 0:
            return False  # unbounded
        _pivot(tab, basis, leave, enter)


def lp_solve(c, rows, lb, ub):
    """Minimize c.x subject to rows (coeff array, rel, rhs) and bounds.

    Returns (status, x, objective) with status in
    {"optimal", "infeasible", "unbounded"}.
    """
    n = len(c)
    lb = np.asarray(lb, float)
    ub = np.asarray(ub, float)
    if np.any(ub - lb < -FEAS_EPS):
        return "infeasible", None, None
    # shift to y = x - lb >= 0
    conv = []
    for a, rel, b in rows:
        conv.append((np.asarray(a, float), rel,
                     float(b) - float(np.dot(a, lb))))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        conv.append((e, "<=", ub[i] - lb[i]))
    m = len(conv)
    A = np.zeros((m, n))
    b = np.zeros(m)
    rels = []
    for i, (a, rel, rhs) in enumerate(conv):
        if rhs < 0:
            a, rhs = -a, -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        A[i], b[i] = a, rhs
        rels.append(rel)
    slack_cols, art_cols = [], []
    extra = []
    basis = [-1] * m
    col = n
    for i, rel in enumerate(rels):
        if rel == "<=":
            e = np.zeros(m)
            e[i] = 1.0
            extra.append(e)
            basis[i] = col
            slack_cols.append(col)
            col += 1
        elif rel == ">=":
            e = np.zeros(m)
            e[i] = -1.0
            extra.append(e)
            slack_cols.append(col)
            col += 1
    for i, rel in enumerate(rels):
        if basis[i] < 0:
            e = np.zeros(m)
            e[i] = 1.0
            extra.append(e)
            basis[i] = col
            art_cols.append(col)
            col += 1
    full = np.hstack([A] + [np.array(extra).T.reshape(m, -1)]) \
        if extra else A.copy()
    ncols = full.shape[1]
    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :ncols] = full
    tab[:m, -1] = b
    allowed = np.ones(ncols, bool)

    if art_cols:
        for j in art_cols:
            tab[-1, j] = 1.0
        for r in range(m):
            if basis[r] in art_cols:
                tab[-1] -= tab[r]
        if not _simplex(tab, basis, allowed):
            return "infeasible", None, None
        if tab[-1, -1] < -FEAS_EPS:
            return "infeasible", None, None
        # drive leftover zero-valued artificials out of the basis
        for r in range(m):
            if basis[r] in art_cols:
                piv = next((j for j in range(ncols)
                            if j not in art_cols and abs(tab[r, j]) > 1e-7),
                           None)
                if piv is not None:
                    _pivot(tab, basis, r, piv)
        for j in art_cols:
            allowed[j] = False

    tab[-1, :] = 0.0
    tab[-1, :n] = c
    for r in range(m):
        if tab[-1, basis[r]] != 0.0:
            tab[-1] -= tab[-1, basis[r]] * tab[r]
    if not _simplex(tab, basis, allowed):
        return "unbounded", None, None
    y = np.zeros(ncols)
    for r in range(m):
        y[basis[r]] = tab[r, -1]
    x = y[:n] + lb
    return "optimal", x, float(np.dot(c, y[:n]) + np.dot(c, lb))


# -- branch and bound --------------------------------------------------------

def _model_arrays(m):
    n = len(m.vars)
    c = np.zeros(n)
    for v, a in m.obj.items():
        c[v] = a
    if m.sense == "max":
        c = -c
    rows = []
    for ct in m.constraints:
        a = np.zeros(n)
        for v, coef in ct.coeffs.items():
            a[v] = coef
        rows.append((a, ct.rel, ct.rhs))
    lb = np.array([v.lb for v in m.vars])
    ub = np.array([v.ub for v in m.vars])
    return c, rows, lb, ub


def solve(m, max_nodes=100000, time_ms=120000, int_eps=FEAS_EPS,
          gap=1e-6):
    """Branch-and-bound; deterministic for a fixed model."""
    c, rows, lb0, ub0 = _model_arrays(m)
    int_vars = [v.id for v in m.vars if v.kind != CONTINUOUS]

    def finish(status, x, obj):
        if x is None:
            return Solution(status, {}, float("nan"))
        values = {v.id: float(x[v.id]) for v in m.vars}
        for v in int_vars:
            values[v] = float(round(values[v]))
        return Solution(status, values, m.objective_value(values))

    status, x, obj = lp_solve(c, rows, lb0, ub0)
    if status != "optimal":
        return Solution("infeasible", {}, float("nan"))

    heap = []
    seq = 0
    heapq.heappush(heap, (obj, seq, lb0, ub0, x))
    incumbent, inc_obj = None, np.inf
    nodes = 0
    deadline = time.monotonic() + time_ms / 1000.0
    while heap:
        bound, _, lb, ub, x = heapq.heappop(heap)
        if incumbent is not None and \
                bound >= inc_obj - gap * max(1.0, abs(inc_obj)):
            continue
        nodes += 1
        if nodes > max_nodes or time.monotonic() > deadline:
            return finish("bound_reached", incumbent,
                          inc_obj if incumbent is not None else None)
        frac_var, frac = -1, 0.0
        for v in int_vars:
            f = abs(x[v] - round(x[v]))
            if f > int_eps and f > frac + 1e-12:
                frac_var, frac = v, f
        if frac_var < 0:
            if bound < inc_obj - 1e-12:
                incumbent, inc_obj = x, bound
            continue
        lo = float(np.floor(x[frac_var]))
        for side in (0, 1):
            nlb, nub = lb.copy(), ub.copy()
            if side == 0:
                nub[frac_var] = lo
            else:
                nlb[frac_var] = lo + 1.0
            st, nx, nobj = lp_solve(c, rows, nlb, nub)
            if st != "optimal":
                continue
            if incumbent is not None and \
                    nobj >= inc_obj - gap * max(1.0, abs(inc_obj)):
                continue
            seq += 1
            heapq.heappush(heap, (nobj, seq, nlb, nub, nx))
    if incumbent is None:
        return Solution("infeasible", {}, float("nan"))
    return finish("optimal", incumbent, inc_obj)


# -- LP-file export ----------------------------------------------------------

def _lp_terms(coeffs, vars):
    parts = []
    for v in sorted(coeffs):
        a = coeffs[v]
        if a == 0:
            continue
        sign = "-" if a < 0 else "+"
        mag = abs(a)
        term = f"{mag:.12g} {vars[v].name}"
        parts.append((sign, term))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    text = (("- " if first_sign == "-" else "") + first)
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def export_lp(m):
    """CPLEX-LP-format text for external solvers."""
    out = []
    out.append("Minimize" if m.sense == "min" else "Maximize")
    out.append(f" obj: {_lp_terms(m.obj, m.vars)}")
    out.append("Subject To")
    for ct in m.constraints:
        rel = {"<=": "<=", ">=": ">=", "=": "="}[ct.rel]
        out.append(f" {ct.name}: {_lp_terms(ct.coeffs, m.vars)} {rel} "
                   f"{ct.rhs:.12g}")
    out.append("Bounds")
    for v in m.vars:
        if v.kind == BINARY:
            continue
        out.append(f" {v.lb:.12g} <= {v.name} <= {v.ub:.12g}")
    bins = [v.name for v in m.vars if v.kind == BINARY]
    if bins:
        out.append("Binaries")
        out.append(" " + " ".join(bins))
    gens = [v.name for v in m.vars if v.kind == INTEGER]
    if gens:
        out.append("Generals")
        out.append(" " + " ".join(gens))
    out.append("End")
    return "\n".join(out) + "\n"
