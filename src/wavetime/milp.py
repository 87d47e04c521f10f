"""Mixed-integer linear programming: model container, an embedded
branch-and-bound solver over a dense simplex kernel, and CPLEX-LP text
export.

The kernel solves a root LP cold, by the two-phase method from the
slack/artificial basis.  It re-solves warm, by dual simplex from a kept
optimal tableau, wherever only bounds or right-hand sides changed.  A
kept tableau stores its nonbasic columns, read-only, apart from its
right-hand side.  A warm re-solve moves the right-hand side through
those columns and copies the tableau only if it must pivot; one that
needs no pivot shares its start's columns.  A solve of a model with the
same objective, matrix and relations as an earlier one (its start)
re-solves its root from the start's root, and each branch-and-bound
child from the same node of the start's tree, found by its branching
path from the root; a child the start's tree lacks is re-solved from
its parent's tableau.  A child that dual simplex proved infeasible
keeps the row that proved it, and the next solve checks that row
against its own right-hand sides and bounds before it solves any LP
for that child.  The flow's models keep time in units of the clock
period, so that holds for the stage-2 d_th rounds and, at the next
period of a sweep, for each stage that meets the sites of a model of
the step before.

The solver is deterministic: Bland's rule in the primal and the dual
simplex, best-bound node selection with insertion-order tie-breaks,
branching on the most fractional integer variable with lowest-id ties.

The kernel keeps its tableau transposed, one contiguous array row per
tableau column, so that a pivot rewrites only the columns where the pivot
row is nonzero.  A cold solve makes the same pivots and returns the same
values as the row-major textbook tableau, which tests/test_milp.py keeps
as its reference.
"""

import heapq
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

# substitute for missing or infinite bounds on continuous variables; kept
# moderate so the simplex tableau stays well conditioned
FREE_BOUND = 1e6

FEAS_EPS = 1e-6
PIVOT_EPS = 1e-9
# a basic value below -DUAL_EPS makes its row leave in dual simplex
DUAL_EPS = 1e-7
# the most node tableaux a Solution keeps for a re-solve: the first ones
# its branch-and-bound solved, so that a large tree keeps a bounded set
NODE_KEEP = 32
# the most proofs of infeasible child nodes a Solution keeps, likewise
PROOF_KEEP = 32


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
    status: str       # optimal | infeasible | bound_reached
    values: dict
    objective: float
    # the start of a re-solve: the root LP's Tableau, the Tableau of
    # each kept branch-and-bound node and the Proof of each kept
    # infeasible child, both by branching path from the root, a tuple of
    # (var, side, floor) with side 0 for var <= floor and 1 for
    # var >= floor + 1
    root: object = field(default=None, compare=False, repr=False)
    nodes: dict = field(default=None, compare=False, repr=False)
    proofs: dict = field(default=None, compare=False, repr=False)


class MilpModel:
    def __init__(self):
        self.vars = []
        self.constraints = []
        self.obj = {}
        self.obj_const = 0.0
        self.sense = "min"

    def add_var(self, kind=CONTINUOUS, lb=None, ub=None, name=None):
        if kind == BINARY:
            lb, ub = 0.0, 1.0
        lb = -math.inf if lb is None else float(lb)
        ub = math.inf if ub is None else float(ub)
        if math.isnan(lb) or math.isnan(ub):
            raise ValueError("variable bounds must not be NaN")
        if kind == INTEGER and not (math.isfinite(lb) and math.isfinite(ub)):
            raise ValueError("integer variables need finite bounds")
        if lb == -math.inf:
            lb = -FREE_BOUND
        if ub == math.inf:
            ub = FREE_BOUND
        if lb > ub:
            raise ValueError(f"empty domain [{lb}, {ub}]")
        vid = len(self.vars)
        self.vars.append(Var(vid, kind, lb, ub, name or f"v{vid}"))
        return vid

    def add_constr(self, coeffs, rel, rhs, name=None):
        if rel not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {rel!r}")
        for v in coeffs:
            if not (0 <= v < len(self.vars)):
                raise ValueError(f"unknown variable {v}")
            if not math.isfinite(coeffs[v]):
                raise ValueError("non-finite coefficient")
        if not math.isfinite(rhs):
            raise ValueError("non-finite right-hand side")
        self.constraints.append(
            Constraint(dict(coeffs), rel, float(rhs),
                       name or f"c{len(self.constraints)}"))

    def set_objective(self, coeffs, sense="min", const=0.0):
        if sense not in ("min", "max"):
            raise ValueError(f"unknown objective sense {sense!r}")
        if not all(map(math.isfinite, (const, *coeffs.values()))):
            raise ValueError("non-finite objective coefficient")
        self.obj = dict(coeffs)
        self.obj_const = float(const)
        self.sense = sense

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
#
# The tableau is stored transposed: cols[j] is tableau column j, cols[-1]
# the right-hand side and cols[:, -1] the cost row.  A pivot divides the
# pivot row and then updates only the columns where it is nonzero, each
# with the product-then-difference of the row-major update.  The entries
# this skips are exactly those from which the row-major update would
# subtract a signed zero, so at most the sign of a zero differs.  No zero
# sign reaches a decision: pivot choices compare against +-PIVOT_EPS and
# nonzero() ignores -0.0.  Nor a result: x = y + lb turns -0.0 into 0.0
# unless lb is -0.0 itself, and likewise for the objective sum.
#
# Columns are updated independently of each other, so the columns kept
# for warm starts (an equality row's artificial) change no other entry.

def _pivot(cols, basis, row, col):
    prow = cols[:, row]
    prow /= prow[col]
    touched = prow.nonzero()[0]
    factor = cols[col].copy()
    factor[row] = 0.0
    cols[touched] -= prow[touched, None] * factor
    basis[row] = col


def _simplex(cols, basis, n_enter):
    """Minimize the cost row of a feasible tableau with Bland's rule; only
    the first n_enter columns may enter the basis."""
    m = len(basis)
    # views: _pivot updates cols in place
    cost, rhs = cols[:n_enter, m], cols[-1, :m]
    while True:
        improving = (cost < -PIVOT_EPS).nonzero()[0]
        if not improving.size:
            return True
        enter = improving[0]
        column = cols[enter, :m]
        rows = (column > PIVOT_EPS).nonzero()[0]
        if not rows.size:
            return False  # unbounded
        # the tie-break depends on the rows seen before, so the ratio test
        # stays a loop over the rows with a positive entry, not an argmin
        ratios = (rhs[rows] / column[rows]).tolist()
        rows = rows.tolist()
        leave, best = rows[0], ratios[0]
        for r, ratio in zip(rows, ratios):
            if ratio < best - PIVOT_EPS or \
                    (abs(ratio - best) <= PIVOT_EPS and
                     basis[r] < basis[leave]):
                leave = r
                best = min(best, ratio)
        _pivot(cols, basis, leave, enter)


def _dual_simplex(cols, basis, n_enter):
    """Make the basic values of a dual feasible tableau nonnegative with
    the dual of Bland's rule: of the rows below -DUAL_EPS, the one whose
    basic column comes first leaves, and the first column of least ratio
    among the first n_enter enters.  None when that succeeds; else the
    leaving row that has no negative entry, which proves the LP
    infeasible."""
    m = len(basis)
    cost, rhs = cols[:n_enter, m], cols[-1, :m]
    while True:
        rows = (rhs < -DUAL_EPS).nonzero()[0].tolist()
        if not rows:
            return None
        leave = min(rows, key=basis.__getitem__)
        row = cols[:n_enter, leave]
        cand = (row < -PIVOT_EPS).nonzero()[0]
        if not cand.size:
            return leave
        ratios = np.maximum(cost[cand], 0.0) / -row[cand]
        _pivot(cols, basis, leave, cand[ratios.argmin()])


@dataclass
class Tableau:
    """The final tableau of an optimal LP, kept so that the LP can be
    re-solved after its right-hand sides or bounds change.

    A basic column is exactly the unit vector of its row (a pivot divides
    the entry to 1.0 and subtracts the column from itself elsewhere), so
    only the nonbasic columns are stored, in packed, and the right-hand
    side apart from them, in rhs.  packed is read-only: a re-solve that
    makes no pivot moves only rhs, and its Tableau shares packed,
    nonbasic and basis with its start.

    Row i of the starting tableau held a unit column, its slack (or, for
    an equality row, its artificial), now column unit[i]; times scale[i]
    it is the column of B^-1 for row i in its original orientation.
    """
    packed: np.ndarray       # None when an artificial column stayed basic
    nonbasic: np.ndarray
    basis: list
    rhs: np.ndarray          # the basic values, then minus the objective
    n_real: int              # the columns that may enter: x and slacks
    unit: np.ndarray
    scale: np.ndarray
    c: np.ndarray            # the LP it solves
    A: np.ndarray
    rel: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    @property
    def warm(self):
        """False when a basic artificial column, which would have to stay
        at zero whatever the right-hand side, rules out a re-solve."""
        return self.packed is not None

    def same_lp(self, c, A, rel):
        """Whether a re-solve may start here: b, lb and ub may differ,
        since _dual_resolve moves right-hand sides and bounds alike."""
        return all(np.array_equal(u, v) for u, v in
                   ((self.c, c), (self.A, A), (self.rel, rel)))

    def columns(self, js):
        """Tableau columns js, as unpacked() holds them, without
        unpacking."""
        m = len(self.basis)
        # a nonbasic column's index in packed; -1 - r for the basic
        # column of row r
        slot = np.empty(len(self.nonbasic) + m, int)
        slot[self.nonbasic] = np.arange(len(self.nonbasic))
        slot[self.basis] = -1 - np.arange(m)
        slot = slot[js]
        out = np.zeros((len(js), m + 1))
        packed = slot >= 0
        out[packed] = self.packed[slot[packed]]
        basic = (~packed).nonzero()[0]
        out[basic, -1 - slot[basic]] = 1.0
        return out

    def unpacked(self):
        """A new full transposed tableau."""
        m = len(self.basis)
        cols = np.zeros((len(self.nonbasic) + m + 1, m + 1))
        cols[self.nonbasic] = self.packed
        cols[-1] = self.rhs
        cols[self.basis, np.arange(m)] = 1.0
        return cols


@dataclass
class Proof:
    """The row that proved an LP infeasible, kept so that the LP can be
    proved infeasible again after its right-hand sides or bounds change.

    row is the leaving row of dual simplex, transposed-tableau row
    cols[:, leave]: its right-hand side row[-1] is below -DUAL_EPS and
    no column that may enter has an entry below -PIVOT_EPS, so no
    nonnegative values of those columns meet it.  Moving b, lb and ub
    moves only row[-1], as it moves a Tableau's rhs; while that stays
    below -DUAL_EPS, the row proves the moved LP infeasible too.

    unit, scale, b, lb and ub are those of the Tableau of the LP."""
    row: np.ndarray
    unit: np.ndarray
    scale: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def holds(self, A, b, lb, ub):
        """Whether the row proves the LP moved to b, lb and ub
        infeasible."""
        js, weights = _shift(self, A, b, lb, ub)
        return self.row[-1] + (self.row[js] * weights).sum() < -DUAL_EPS


def _shift(lp, A, b, lb, ub):
    """(js, weights) for the LP of lp, a Tableau or a Proof, moved to b,
    lb and ub: the change of the shifted right-hand side goes through
    B^-1, adding weights[i] times tableau column js[i] to the right-hand
    side."""
    dlb = lb - lp.lb
    delta = np.concatenate([b - lp.b, ub - lp.ub - dlb])
    moved = dlb.nonzero()[0]
    if moved.size:
        delta[:len(b)] -= (A[:, moved] * dlb[moved]).sum(axis=1)
    rows = delta.nonzero()[0]
    return lp.unit[rows], delta[rows] * lp.scale[rows]


def _keep(tab, cols, basis, b, lb, ub):
    """tab moved to the LP with b, lb and ub and final tableau cols."""
    packed = nonbasic = None
    if max(basis, default=-1) < tab.n_real:
        free = np.ones(len(cols) - 1, bool)
        free[basis] = False
        nonbasic = free.nonzero()[0]
        packed = cols[nonbasic]
        packed.flags.writeable = False
    return Tableau(packed, nonbasic, basis, cols[-1].copy(), tab.n_real,
                   tab.unit, tab.scale, tab.c, tab.A, tab.rel, b, lb, ub)


def _two_phase(c, A, rel, b, lb, ub):
    """(status, cols, basis, tab) of the LP solved from the
    slack/artificial basis; tab is the Tableau without its columns."""
    n = len(c)
    rel = np.asarray(rel, "U2")
    # shift to y = x - lb >= 0, one np.dot per row: A @ lb rounds
    # differently, and the solver's values end up printed with repr
    shifted = b - np.array([np.dot(a, lb) for a in A], float)
    # the bounds y <= ub - lb are an identity block under the constraints
    full = np.vstack([A, np.eye(n)])
    rhs = np.concatenate([shifted, ub - lb])
    sign = np.concatenate([np.select([rel == "<=", rel == ">="],
                                     [1.0, -1.0], 0.0), np.ones(n)])
    # rows with a negative right-hand side are negated so that the
    # starting basis below is feasible
    flip = rhs < 0
    scale = np.where(sign != 0, sign, np.where(flip, -1.0, 1.0))
    full[flip], rhs[flip], sign[flip] = -full[flip], -rhs[flip], -sign[flip]
    # a slack column (+1 for "<=", -1 for ">=") per inequality row, then an
    # artificial column per ">=" or "=" row, both in row order
    m = len(rhs)
    slack = sign.nonzero()[0]
    art = (sign <= 0).nonzero()[0]
    eq = (sign == 0).nonzero()[0]
    n_real = n + len(slack)
    ncols = n_real + len(art)
    cols = np.zeros((ncols + 1, m + 1))
    cols[:n, :m] = full.T
    cols[n + np.arange(len(slack)), slack] = sign[slack]
    cols[n_real + np.arange(len(art)), art] = 1.0
    cols[-1, :m] = rhs
    basis = np.zeros(m, int)
    basis[slack] = n + np.arange(len(slack))
    basis[art] = n_real + np.arange(len(art))
    basis = basis.tolist()
    unit = np.zeros(m, int)
    unit[slack] = n + np.arange(len(slack))
    unit[eq] = n_real + np.arange(len(eq))
    tab = Tableau(None, None, None, None, n_real, unit, scale, c, A, rel, b,
                  lb, ub)

    if len(art):
        cols[n_real:ncols, m] = 1.0
        # row by row: the rounding of the cost row depends on the order
        for r in art:
            cols[:, m] -= cols[:, r]
        if not _simplex(cols, basis, ncols) or cols[-1, m] < -FEAS_EPS:
            return "infeasible", None, None, None
        # drive leftover zero-valued artificials out of the basis
        for r in [r for r in range(m) if basis[r] >= n_real]:
            piv = (np.abs(cols[:n_real, r]) > 1e-7).nonzero()[0]
            if piv.size:
                _pivot(cols, basis, r, piv[0])
        # artificial columns never enter in phase 2; an equality row's is
        # kept as its unit column, the others are dropped
        cols = np.concatenate([cols[:n_real],
                               cols[n_real + (sign[art] == 0).nonzero()[0]],
                               cols[-1:]])

    cols[:, m] = 0.0
    cols[:n, m] = c
    # row by row, as in phase 1; an artificial left basic at zero has a
    # unit column, so its cost entry stays zero and it is skipped
    for r in range(m):
        if basis[r] < n_real and cols[basis[r], m] != 0.0:
            cols[:, m] -= cols[basis[r], m] * cols[:, r]
    if not _simplex(cols, basis, n_real):
        return "unbounded", None, None, None
    return "optimal", cols, basis, tab


def _dual_resolve(tab, A, b, lb, ub):
    """(status, result) of the LP of tab moved to b, lb and ub: the
    Tableau of the optimal LP, or the Proof of the infeasible one.

    The moved right-hand side is formed from tab's packed columns, which
    leaves the tableau dual feasible.  If no basic value is below
    -DUAL_EPS, the LP is optimal with no pivot, and its Tableau shares
    tab's packed columns: nothing is copied but the right-hand side.
    Only otherwise is the tableau unpacked, and dual simplex restores
    primal feasibility or proves the LP infeasible."""
    js, weights = _shift(tab, A, b, lb, ub)
    # an elementwise sum, not a matrix product, keeps BLAS out
    rhs = tab.rhs + (tab.columns(js) * weights[:, None]).sum(axis=0)
    moved = replace(tab, rhs=rhs, b=b, lb=lb, ub=ub)
    if not (rhs[:-1] < -DUAL_EPS).any():
        return "optimal", moved
    cols, basis = moved.unpacked(), list(tab.basis)
    leave = _dual_simplex(cols, basis, tab.n_real)
    if leave is not None:
        return "infeasible", Proof(cols[:, leave].copy(), tab.unit,
                                   tab.scale, b, lb, ub)
    return "optimal", _keep(tab, cols, basis, b, lb, ub)


def lp_solve(c, A, rel, b, lb, ub, start=None):
    """Minimize c.x subject to A x rel b (rel[i] in "<=", ">=", "=") and
    lb <= x <= ub.

    Returns (status, x, objective, kept) with status in
    {"optimal", "infeasible", "unbounded"}.  kept is the Tableau of an
    optimal LP, the Proof of an LP that dual simplex proved infeasible,
    else None.  Without start the LP is solved from the
    slack/artificial basis by the two-phase method.  start is the warm
    Tableau of an LP with the same c, A and rel, which is left as it is;
    the LP is re-solved from it by dual simplex (_dual_resolve), and its
    Tableau copies a tableau only when dual simplex pivots.
    """
    lb = np.asarray(lb, float)
    ub = np.asarray(ub, float)
    if np.any(ub - lb < -FEAS_EPS):
        return "infeasible", None, None, None
    b = np.asarray(b, float)
    if start is None:
        status, cols, basis, tab = _two_phase(c, A, rel, b, lb, ub)
        if status == "optimal":
            tab = _keep(tab, cols, basis, b, lb, ub)
    elif not start.warm:
        raise ValueError("a start tableau with a basic artificial column")
    else:
        status, tab = _dual_resolve(start, A, b, lb, ub)
    if status != "optimal":
        return status, None, None, tab
    n, m = len(c), len(tab.basis)
    y = np.zeros(tab.n_real + m)
    y[tab.basis] = tab.rhs[:m]
    x = y[:n] + lb
    return ("optimal", x, float(np.dot(c, y[:n]) + np.dot(c, lb)), tab)


# -- branch and bound --------------------------------------------------------

def _model_arrays(m):
    """(c, A, rel, b, lb, ub) of the model, with c negated for "max"."""
    n = len(m.vars)
    c = np.zeros(n)
    for v, a in m.obj.items():
        c[v] = a
    if m.sense == "max":
        c = -c
    A = np.zeros((len(m.constraints), n))
    for i, ct in enumerate(m.constraints):
        for v, coef in ct.coeffs.items():
            A[i, v] = coef
    rel = np.array([ct.rel for ct in m.constraints], "U2")
    b = np.array([ct.rhs for ct in m.constraints], float)
    lb = np.array([v.lb for v in m.vars])
    ub = np.array([v.ub for v in m.vars])
    return c, A, rel, b, lb, ub


def _start(tab):
    """The start for a re-solve from tab, or None for a cold solve."""
    return tab if tab is not None and tab.warm else None


def solve(m, max_nodes=100000, time_ms=120000, start=None):
    """Best-first branch-and-bound; deterministic for a fixed model and
    start.

    Nodes leave the queue in order of their LP bound, so the first node
    with an integral solution is optimal and no incumbent is ever kept:
    a node or time budget hit returns "bound_reached" with no values.

    Without start, the root LP is solved by the two-phase method and
    each child node is re-solved by dual simplex from its parent's
    tableau.  start is an optimal Solution of a model that differs from
    m only in right-hand sides and variable bounds.  It supplies the
    root tableau, from which the root LP is re-solved by dual simplex,
    its kept node tableaux (Solution.nodes), from which each child on a
    branching path of start's tree is re-solved instead of from its
    parent, and its kept proofs (Solution.proofs).  A child with a
    proof whose row, moved to the child's right-hand sides and bounds,
    still proves it infeasible is discarded with no LP; otherwise it is
    re-solved as if it had no proof.  A tableau that cannot start a
    re-solve (a basic artificial column) falls back to the two-phase
    method at the root and to the parent at a child.  The node tableaux
    and proofs are used up: solve takes them out of start, so a second
    solve from the same start re-solves only its root from it.

    An optimal Solution keeps, as a start for the next re-solve, its
    root tableau, the tableaux of the first NODE_KEEP child nodes it
    solved and the proofs of the first PROOF_KEEP children it found
    infeasible by dual simplex or by a kept proof.  A child re-solved
    with no pivot shares its tableau's columns with its start.

    The root LP cannot be unbounded: add_var boxes every variable, a
    missing bound becoming -FREE_BOUND or FREE_BOUND, so a root LP that
    is not optimal is infeasible.
    """
    c, A, rel, b, lb0, ub0 = _model_arrays(m)
    int_vars = [v.id for v in m.vars if v.kind != CONTINUOUS]
    # path -> Tableau and path -> Proof of the start's tree; each is used
    # once
    old, proved = {}, {}
    if start is not None:
        if start.root is None or not start.root.same_lp(c, A, rel):
            raise ValueError("a start must be an optimal solution of the "
                             "model with only right-hand sides and bounds "
                             "changed")
        old, start.nodes = start.nodes or {}, None
        proved, start.proofs = start.proofs or {}, None
        start = _start(start.root)
    status, x, obj, root = lp_solve(c, A, rel, b, lb0, ub0, start=start)
    if status != "optimal":
        return Solution("infeasible", {}, float("nan"))

    # a node's bounds are those of its Tableau
    heap = [(obj, 0, x, root, ())]
    kept, proofs = {}, {}
    seq = 0
    nodes = 0
    deadline = time.monotonic() + time_ms / 1000.0
    while heap:
        _, _, x, tab, path = heapq.heappop(heap)
        nodes += 1
        if nodes > max_nodes or time.monotonic() > deadline:
            return Solution("bound_reached", {}, float("nan"))
        frac_var, frac = -1, 0.0
        for v in int_vars:
            f = abs(x[v] - round(x[v]))
            if f > FEAS_EPS and f > frac + 1e-12:
                frac_var, frac = v, f
        if frac_var < 0:
            values = {v.id: float(x[v.id]) for v in m.vars}
            for v in int_vars:
                values[v] = float(round(values[v]))
            return Solution("optimal", values, m.objective_value(values),
                            root, kept, proofs)
        lo = float(np.floor(x[frac_var]))
        for side in (0, 1):
            nlb, nub = tab.lb.copy(), tab.ub.copy()
            if side == 0:
                nub[frac_var] = lo
            else:
                nlb[frac_var] = lo + 1.0
            child = path + ((frac_var, side, lo),)
            proof = proved.pop(child, None)
            if proof is None or not proof.holds(A, b, nlb, nub):
                st, nx, nobj, ntab = lp_solve(
                    c, A, rel, b, nlb, nub,
                    start=_start(old.pop(child, None)) or _start(tab))
                if st == "optimal":
                    seq += 1
                    heapq.heappush(heap, (nobj, seq, nx, ntab, child))
                    if len(kept) < NODE_KEEP:
                        kept[child] = ntab
                    continue
                proof = ntab            # a Proof, or None
            if proof is not None and len(proofs) < PROOF_KEEP:
                proofs[child] = proof
    return Solution("infeasible", {}, float("nan"))


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
