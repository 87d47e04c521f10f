"""Mixed-integer linear programming: an array-backed model, a
branch-and-bound solver over a dense simplex kernel, and CPLEX-LP export.

A MilpModel owns one set of arrays, c (negated for "max"), A, rel, b, lb,
ub and an integer mask, folded from the rows the builder appends when
first read; vars, constraints and obj are read-only views of them.  Its
setters give it new b, lb and ub arrays rather than write in place, for
a kept tableau holds the arrays of the LP it solved.

The kernel solves a root LP cold, by the two-phase method, and re-solves
it by dual simplex from a kept optimal tableau (its nonbasic columns,
read-only, shared by a re-solve with no pivot) where only right-hand
sides and bounds changed.  A solve from a start, the Solution of a model
with the same c, A and rel (the same arrays when moved by the setters,
else equal ones), starts its root and each branch-and-bound node from
the same node of the start's tree, and re-checks each kept proof of an
infeasible child before any LP of it.

The solver is deterministic: Bland's rule in the primal and the dual
simplex, best-bound node selection with insertion-order tie-breaks,
branching on the most fractional integer variable with lowest-id ties.
The tableau is kept transposed, one array row per tableau column; a cold
solve matches the row-major textbook tableau of tests/test_milp.py.
"""

import heapq
import math
import time
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

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


# a variable and a row of a model as its views read them from the arrays;
# Constraint.coeffs maps var id to nonzero coefficient, read-only
Var = namedtuple("Var", "id kind lb ub name")
Constraint = namedtuple("Constraint", "coeffs rel rhs name")


@dataclass
class Solution:
    status: str       # optimal | infeasible | bound_reached
    values: dict
    objective: float
    # the start of a re-solve: the root Tableau, and by branching path, a
    # tuple of (var, side, floor) with side 0 for var <= floor and 1 for
    # var >= floor + 1, kept node Tableaux and infeasible children's Proofs
    root: object = field(default=None, compare=False, repr=False)
    nodes: dict = field(default=None, compare=False, repr=False)
    proofs: dict = field(default=None, compare=False, repr=False)


class _View(Sequence):
    """A model's variables or rows, read-only, each read when indexed."""

    def __init__(self, names, item):
        self._names, self._item = names, item

    def __len__(self):
        return len(self._names)

    def __getitem__(self, i):
        return self._item(range(len(self))[i])


def _array(slot):
    return property(lambda m: getattr(m._fold(), slot))


def _replaced(a, idx, values):
    """A new read-only array: a with a[idx] = values."""
    if not np.isfinite(values).all():
        raise ValueError("non-finite right-hand side or bound")
    a = a.copy()
    a[idx] = values
    a.flags.writeable = False
    return a


class MilpModel:
    """A MILP that owns its arrays (see the module docstring)."""

    c, A, rel, b, lb, ub, integer = map(_array, (
        "_c", "_A", "_rel", "_b", "_lb", "_ub", "_integer"))

    def __init__(self):
        self.sense, self.obj_const = "min", 0.0
        self._kinds, self._names, self._row_names = [], [], []
        self._c = self._b = self._lb = self._ub = np.zeros(0)
        self._A, self._rel = np.zeros((0, 0)), np.zeros(0, "U2")
        self._integer = np.zeros(0, bool)
        self._obj_vars = []     # the objective's variables, in given order
        # what was appended since the last fold
        self._new_vars, self._new_rows, self._new_obj = [], [], None

    def add_var(self, kind=CONTINUOUS, lb=None, ub=None, name=None):
        if kind == BINARY:
            lb, ub = 0.0, 1.0
        lb = -math.inf if lb is None else float(lb)
        ub = math.inf if ub is None else float(ub)
        if math.isnan(lb) or math.isnan(ub):
            raise ValueError("variable bounds must not be NaN")
        if kind == INTEGER and not (math.isfinite(lb) and math.isfinite(ub)):
            raise ValueError("integer variables need finite bounds")
        lb = -FREE_BOUND if lb == -math.inf else lb
        ub = FREE_BOUND if ub == math.inf else ub
        if lb > ub:
            raise ValueError(f"empty domain [{lb}, {ub}]")
        self._kinds.append(kind)
        self._names.append(name or f"v{len(self._names)}")
        self._new_vars.append((lb, ub))
        return len(self._names) - 1

    def add_constr(self, coeffs, rel, rhs, name=None):
        """Append a row; returns its index."""
        if rel not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {rel!r}")
        for v in coeffs:
            if not (0 <= v < len(self._names)):
                raise ValueError(f"unknown variable {v}")
            if not math.isfinite(coeffs[v]):
                raise ValueError("non-finite coefficient")
        if not math.isfinite(rhs):
            raise ValueError("non-finite right-hand side")
        self._row_names.append(name or f"c{len(self._row_names)}")
        self._new_rows.append((dict(coeffs), rel, float(rhs)))
        return len(self._row_names) - 1

    def set_objective(self, coeffs, sense="min", const=0.0):
        if sense not in ("min", "max"):
            raise ValueError(f"unknown objective sense {sense!r}")
        if not all(map(math.isfinite, (const, *coeffs.values()))):
            raise ValueError("non-finite objective coefficient")
        self._new_obj = dict(coeffs)
        self.obj_const = float(const)
        self.sense = sense

    def _fold(self):
        new_vars, new_rows, new_obj = self._new_vars, self._new_rows, \
            self._new_obj
        if not (new_vars or new_rows or new_obj is not None):
            return self
        n, n0, m0 = len(self._names), len(self._lb), len(self._b)
        A = np.zeros((len(self._row_names), n))
        A[:m0, :n0] = self._A
        for i, (coeffs, _, _) in enumerate(new_rows, m0):
            A[i, list(coeffs)] = list(coeffs.values())
        c = np.zeros(n)
        if new_obj is None:
            c[:n0] = self._c
        else:
            self._obj_vars = list(new_obj)
            c[self._obj_vars] = list(new_obj.values())
            c = -c if self.sense == "max" else c
        lb, ub = zip(*new_vars) if new_vars else ((), ())
        _, rel, b = zip(*new_rows) if new_rows else ((), (), ())
        self._A, self._c = A, c
        self._rel = np.concatenate([self._rel, np.array(rel, "U2")])
        self._b = np.concatenate([self._b, b])
        self._lb = np.concatenate([self._lb, lb])
        self._ub = np.concatenate([self._ub, ub])
        self._integer = np.array([k != CONTINUOUS for k in self._kinds], bool)
        for a in (A, c, self._rel, self._b, self._lb, self._ub, self._integer):
            a.flags.writeable = False
        self._new_vars, self._new_rows, self._new_obj = [], [], None
        return self

    # the setters replace b, lb and ub, for kept Tableaux and Proofs hold
    # the arrays of the LP they solved

    def set_rhs(self, rows, values):
        self._b = _replaced(self.b, rows, values)

    def set_bounds(self, vars, lb, ub):
        self._lb, self._ub = (_replaced(self.lb, vars, lb),
                              _replaced(self.ub, vars, ub))

    @property
    def vars(self):
        return _View(self._names, lambda i: Var(
            i, self._kinds[i], float(self.lb[i]), float(self.ub[i]),
            self._names[i]))

    @property
    def constraints(self):
        def row(i):
            js = self.A[i].nonzero()[0].tolist()
            return Constraint(MappingProxyType(dict(zip(
                js, self.A[i, js].tolist()))), str(self.rel[i]),
                float(self.b[i]), self._row_names[i])
        return _View(self._row_names, row)

    @property
    def obj(self):
        """The objective's coefficients, read-only, in the order given."""
        c = self.c[self._obj_vars]
        return MappingProxyType(dict(zip(
            self._obj_vars, (-c if self.sense == "max" else c).tolist())))

    # -- audit -------------------------------------------------------------

    def violated(self, values, eps=FEAS_EPS):
        """Names of constraints (or variable bounds) broken by values: per
        variable its bound, then its integrality, then the rows."""
        x = np.array([values[v] for v in range(len(self._names))], float)
        self._fold()
        bound = (x < self._lb - eps) | (x > self._ub + eps)
        frac = self._integer & (np.abs(x - np.round(x)) > eps)
        bad = []
        for v in (bound | frac).nonzero()[0].tolist():
            bad += [f"{kind}:{self._names[v]}" for kind, hit in
                    (("bound", bound[v]), ("integrality", frac[v])) if hit]
        lhs, b, rel = self._A @ x, self._b, self._rel
        rows = np.where(rel == "<=", lhs > b + eps, np.where(
            rel == ">=", lhs < b - eps, np.abs(lhs - b) > eps))
        return bad + [self._row_names[i] for i in rows.nonzero()[0].tolist()]

    def objective_value(self, values):
        return self.obj_const + sum(a * values[v] for v, a in self.obj.items())


# -- LP kernel ---------------------------------------------------------------
#
# cols[j] is tableau column j, cols[-1] the right-hand side and cols[:, -1]
# the cost row.  A pivot updates only the columns where the pivot row is
# nonzero, with the row-major update's product-then-difference; the
# skipped entries would have lost a signed zero, whose sign reaches no
# decision (pivots compare against +-PIVOT_EPS, nonzero() ignores -0.0)
# nor result (x = y + lb turns -0.0 into 0.0).  Columns update
# independently, so a column kept for warm starts changes no other.

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
    """The final tableau of an optimal LP, kept for a re-solve after its
    right-hand sides or bounds change.  A basic column is exactly the
    unit vector of its row, so only the nonbasic columns are stored, in
    packed (read-only), and the right-hand side in rhs.  The basis is
    kept as a list, for the pivots, and as an index array, basis_ix
    (read-only), built once per basis for the reads that index by it; a
    re-solve with no pivot shares packed, nonbasic, basis, basis_ix and
    slot with its start.
    Row i of the starting tableau held a unit column (slack, or an
    equality row's artificial), now column unit[i]; times scale[i] it is
    the column of B^-1 for row i in its original orientation."""
    packed: np.ndarray       # None when an artificial column stayed basic
    nonbasic: np.ndarray
    basis: list
    basis_ix: np.ndarray
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
    # a nonbasic column's index in packed, -1 - r for the basic column of
    # row r; made by the first columns() call, shared while the basis is
    slot: np.ndarray = field(default=None, repr=False)

    @property
    def warm(self):
        """False when a basic artificial column, which would have to stay
        at zero whatever the right-hand side, rules out a re-solve."""
        return self.packed is not None

    def same_lp(self, c, A, rel):
        """Whether a re-solve may start here: b, lb and ub may differ,
        since _dual_resolve moves right-hand sides and bounds alike.  The
        arrays of the model solved last are the very objects kept here."""
        return all(u is v or np.array_equal(u, v) for u, v in
                   ((self.c, c), (self.A, A), (self.rel, rel)))

    def columns(self, js):
        """Tableau columns js, as unpacked() holds them, without
        unpacking."""
        m = len(self.basis)
        if self.slot is None:
            self.slot = np.empty(len(self.nonbasic) + m, int)
            self.slot[self.nonbasic] = np.arange(len(self.nonbasic))
            self.slot[self.basis_ix] = -1 - np.arange(m)
        slot = self.slot[js]
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
        cols[self.basis_ix, np.arange(m)] = 1.0
        return cols


@dataclass
class Proof:
    """The leaving row cols[:, leave] that proved an LP infeasible in dual
    simplex: row[-1] is below -DUAL_EPS and no column that may enter has
    an entry below -PIVOT_EPS.  Moving b, lb and ub moves only row[-1],
    as it moves a Tableau's rhs; while it stays below -DUAL_EPS, the row
    proves the moved LP infeasible.  unit, scale, b, lb and ub are those
    of the LP's Tableau."""
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
    basis_ix = np.array(basis, int)
    basis_ix.flags.writeable = False
    if max(basis, default=-1) < tab.n_real:
        free = np.ones(len(cols) - 1, bool)
        free[basis_ix] = False
        nonbasic = free.nonzero()[0]
        packed = cols[nonbasic]
        packed.flags.writeable = False
    return Tableau(packed, nonbasic, basis, basis_ix, cols[-1].copy(),
                   tab.n_real, tab.unit, tab.scale, tab.c, tab.A, tab.rel, b,
                   lb, ub)


def _two_phase(c, A, rel, b, lb, ub):
    """(status, cols, basis, tab) of the LP solved from the
    slack/artificial basis; tab is the Tableau without its columns."""
    n = len(c)
    # a model's own rel is kept, so that its Tableau holds the same object
    rel = rel if isinstance(rel, np.ndarray) else np.asarray(rel, "U2")
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
    tab = Tableau(None, None, None, None, None, n_real, unit, scale, c, A,
                  rel, b, lb, ub)

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
    Tableau of the optimal LP, or the Proof of the infeasible one.  The
    moved right-hand side is formed from tab's packed columns.  If no
    basic value is below -DUAL_EPS, the LP is optimal with no pivot and
    nothing is copied but the right-hand side; only otherwise is the
    tableau unpacked for dual simplex."""
    js, weights = _shift(tab, A, b, lb, ub)
    # an elementwise sum, not a matrix product, keeps BLAS out
    rhs = tab.rhs + (tab.columns(js) * weights[:, None]).sum(axis=0)
    moved = Tableau(tab.packed, tab.nonbasic, tab.basis, tab.basis_ix, rhs,
                    tab.n_real, tab.unit, tab.scale, tab.c, tab.A, tab.rel,
                    b, lb, ub, tab.slot)
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

    Returns (status, x, objective, kept) with status in {"optimal",
    "infeasible", "unbounded"}; kept is the Tableau of an optimal LP, the
    Proof of an LP that dual simplex proved infeasible, else None.
    Without start the LP is solved by the two-phase method; start, the
    warm Tableau of an LP with the same c, A and rel, is left as it is
    and the LP re-solved from it by dual simplex (_dual_resolve)."""
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
    y[tab.basis_ix] = tab.rhs[:m]
    x = y[:n] + lb
    return ("optimal", x, float(np.dot(c, y[:n]) + np.dot(c, lb)), tab)


# -- branch and bound --------------------------------------------------------

def _start(tab):
    """The start for a re-solve from tab, or None for a cold solve."""
    return tab if tab is not None and tab.warm else None


def solve(m, max_nodes=100000, time_ms=120000, start=None):
    """Best-first branch-and-bound; deterministic for a fixed model and
    start.  Nodes leave the queue in order of their LP bound, so the first
    integral node is optimal, and a node or time budget hit returns
    "bound_reached" with no values.  A child node is re-solved by dual
    simplex from its parent's tableau.

    start is an optimal Solution of a model with the same c, A and rel.
    Its root tableau starts the root LP, its node tableaux
    (Solution.nodes) the children on its tree's branching paths, and a
    child whose kept proof (Solution.proofs) still holds at the child's
    bounds is discarded with no LP; solve takes nodes and proofs out of
    start.  A tableau with a basic artificial column falls back to the
    two-phase method at the root and to the parent at a child.  An
    optimal Solution keeps its root tableau and the first NODE_KEEP node
    tableaux and PROOF_KEEP proofs as the next start.  The root LP cannot
    be unbounded: add_var boxes every variable."""
    c, A, rel, b, lb0, ub0 = m.c, m.A, m.rel, m.b, m.lb, m.ub
    int_vars = m.integer.nonzero()[0].tolist()
    # the start's node Tableaux and Proofs by path, each used once
    old, proved = {}, {}
    if start is not None:
        if start.root is None or not start.root.same_lp(c, A, rel):
            raise ValueError("a start must be an optimal solution of the model"
                             " with only right-hand sides and bounds changed")
        old, start.nodes = start.nodes or {}, None
        proved, start.proofs = start.proofs or {}, None
        start = _start(start.root)
    status, x, obj, root = lp_solve(c, A, rel, b, lb0, ub0, start=start)
    if status != "optimal":
        return Solution("infeasible", {}, float("nan"))

    # a node's bounds are those of its Tableau
    heap = [(obj, 0, x, root, ())]
    kept, proofs = {}, {}
    seq = nodes = 0
    deadline = time.monotonic() + time_ms / 1000.0
    while heap:
        _, _, x, tab, path = heapq.heappop(heap)
        nodes += 1
        if nodes > max_nodes or time.monotonic() > deadline:
            return Solution("bound_reached", {}, float("nan"))
        xs = x.tolist()
        frac_var, frac = -1, 0.0
        for v in int_vars:
            f = abs(xs[v] - round(xs[v]))
            if f > FEAS_EPS and f > frac + 1e-12:
                frac_var, frac = v, f
        if frac_var < 0:
            values = dict(enumerate(xs))
            for v in int_vars:
                values[v] = float(round(values[v]))
            return Solution("optimal", values, m.objective_value(values),
                            root, kept, proofs)
        lo = float(math.floor(xs[frac_var]))
        for side in (0, 1):
            nlb, nub = tab.lb.copy(), tab.ub.copy()
            (nlb if side else nub)[frac_var] = lo + side
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

def _lp_terms(coeffs, names):
    """The terms of (var, coefficient) pairs in var order."""
    text = " ".join(f"{'-' if a < 0 else '+'} {abs(a):.12g} {names[v]}"
                    for v, a in coeffs if a != 0)
    return (text[2:] if text.startswith("+") else text) or "0"


def export_lp(m):
    """CPLEX-LP-format text for external solvers, read from the arrays."""
    names, kinds, A = m._names, m._kinds, m.A
    out = ["Minimize" if m.sense == "min" else "Maximize",
           f" obj: {_lp_terms(sorted(m.obj.items()), names)}", "Subject To"]
    for i, (name, rel, rhs) in enumerate(zip(m._row_names, m.rel.tolist(),
                                             m.b.tolist())):
        js = A[i].nonzero()[0]
        terms = _lp_terms(zip(js.tolist(), A[i, js].tolist()), names)
        out.append(f" {name}: {terms} {rel} {rhs:.12g}")
    out.append("Bounds")
    out += [f" {lo:.12g} <= {name} <= {hi:.12g}" for name, kind, lo, hi
            in zip(names, kinds, m.lb.tolist(), m.ub.tolist())
            if kind != BINARY]
    for head, kind in (("Binaries", BINARY), ("Generals", INTEGER)):
        group = [name for name, k in zip(names, kinds) if k == kind]
        out += [head, " " + " ".join(group)] if group else []
    return "\n".join(out + ["End"]) + "\n"
