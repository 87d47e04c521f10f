import itertools
import random

import numpy as np
import pytest
from scipy.optimize import linprog

from wavetime import milp
from wavetime.milp import BINARY, CONTINUOUS, INTEGER, MilpModel


def scipy_lp(m, fixed=None):
    """Solve the continuous relaxation with scipy, optionally with some
    variables fixed; independent oracle for the embedded kernel.  It
    reads the model's arrays: c is in the minimizing sense, a ">=" row
    enters A_ub negated, and rows keep their order."""
    flip = np.where(m.rel == ">=", -1.0, 1.0)
    ub, eq = m.rel != "=", m.rel == "="
    A_ub, b_ub = (m.A * flip[:, None])[ub], (m.b * flip)[ub]
    lb, hi = m.lb.copy(), m.ub.copy()
    if fixed:
        ids = list(fixed)
        lb[ids] = hi[ids] = list(fixed.values())
    res = linprog(m.c, A_ub=A_ub if ub.any() else None,
                  b_ub=b_ub if ub.any() else None,
                  A_eq=m.A[eq] if eq.any() else None,
                  b_eq=m.b[eq] if eq.any() else None,
                  bounds=list(zip(lb.tolist(), hi.tolist())), method="highs")
    if not res.success:
        return None
    sign = -1.0 if m.sense == "max" else 1.0
    return sign * res.fun + m.obj_const


def enumeration_oracle(m):
    """Enumerate all binary/integer assignments, LP-solve the rest with
    scipy, return the best objective (None when infeasible)."""
    int_vars = [v for v in m.vars if v.kind != CONTINUOUS]
    domains = [range(int(v.lb), int(v.ub) + 1) for v in int_vars]
    best = None
    for combo in itertools.product(*domains):
        fixed = {v.id: float(val) for v, val in zip(int_vars, combo)}
        val = scipy_lp(m, fixed)
        if val is None:
            continue
        if best is None or (val < best if m.sense == "min" else val > best):
            best = val
    return best


def model_arrays(m):
    """(c, A, rel, b, lb, ub) of a model: what milp.solve passes to
    lp_solve for the root LP."""
    return m.c, m.A, m.rel, m.b, m.lb, m.ub


def random_model(rng, max_bin=8, max_cont=6):
    m = MilpModel()
    nb = rng.randint(0, max_bin)
    nc = rng.randint(0, max_cont)
    if nb + nc == 0:
        nc = 1
    for _ in range(nb):
        m.add_var(BINARY)
    for _ in range(nc):
        lo = rng.uniform(-10, 0)
        m.add_var(CONTINUOUS, lb=lo, ub=lo + rng.uniform(1, 20))
    n = nb + nc
    for _ in range(rng.randint(1, 2 * n)):
        coeffs = {v: rng.choice([-3, -2, -1, 1, 2, 3])
                  for v in rng.sample(range(n), rng.randint(1, min(3, n)))}
        rel = rng.choice(["<=", ">="])
        m.add_constr(coeffs, rel, rng.uniform(-8, 8))
    obj = {v: rng.uniform(-5, 5) for v in range(n)}
    m.set_objective(obj, sense=rng.choice(["min", "max"]))
    return m


# -- LP kernel ---------------------------------------------------------------

def _reference_pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    rows = tab[:, col].nonzero()[0]
    rows = rows[rows != row]
    tab[rows] -= np.outer(tab[rows, col], tab[row])
    basis[row] = col


def _reference_simplex(tab, basis, ncols):
    while True:
        improving = (tab[-1, :ncols] < -milp.PIVOT_EPS).nonzero()[0]
        if not improving.size:
            return True
        enter = improving[0]
        leave, best = -1, np.inf
        for r in (tab[:-1, enter] > milp.PIVOT_EPS).nonzero()[0]:
            ratio = tab[r, -1] / tab[r, enter]
            if leave < 0 or ratio < best - milp.PIVOT_EPS or \
                    (abs(ratio - best) <= milp.PIVOT_EPS and
                     basis[r] < basis[leave]):
                leave = r
                best = min(best, ratio)
        if leave < 0:
            return False
        _reference_pivot(tab, basis, leave, enter)


def reference_lp_solve(c, A, rel, b, lb, ub):
    """The textbook row-major two-phase tableau that milp.lp_solve must
    match bit for bit: tab[i] is tableau row i, every pivot rewrites whole
    rows, and the artificial columns stay through phase 2."""
    n = len(c)
    lb = np.asarray(lb, float)
    ub = np.asarray(ub, float)
    if np.any(ub - lb < -milp.FEAS_EPS):
        return "infeasible", None, None
    b = np.asarray(b, float)
    rel = np.asarray(rel, "U2")
    shifted = b - np.array([np.dot(a, lb) for a in A], float)
    full = np.vstack([A, np.eye(n)])
    rhs = np.concatenate([shifted, ub - lb])
    sign = np.concatenate([np.select([rel == "<=", rel == ">="],
                                     [1.0, -1.0], 0.0), np.ones(n)])
    flip = rhs < 0
    full[flip], rhs[flip], sign[flip] = -full[flip], -rhs[flip], -sign[flip]
    m = len(rhs)
    slack = sign.nonzero()[0]
    art = (sign <= 0).nonzero()[0]
    n_real = n + len(slack)
    ncols = n_real + len(art)
    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :n] = full
    tab[slack, n + np.arange(len(slack))] = sign[slack]
    tab[art, n_real + np.arange(len(art))] = 1.0
    tab[:m, -1] = rhs
    basis = np.zeros(m, int)
    basis[slack] = n + np.arange(len(slack))
    basis[art] = n_real + np.arange(len(art))
    if len(art):
        tab[-1, n_real:ncols] = 1.0
        for r in art:
            tab[-1] -= tab[r]
        if not _reference_simplex(tab, basis, ncols) or \
                tab[-1, -1] < -milp.FEAS_EPS:
            return "infeasible", None, None
        for r in (basis >= n_real).nonzero()[0]:
            piv = (np.abs(tab[r, :n_real]) > 1e-7).nonzero()[0]
            if piv.size:
                _reference_pivot(tab, basis, r, piv[0])
    tab[-1] = 0.0
    tab[-1, :n] = c
    for r in range(m):
        if tab[-1, basis[r]] != 0.0:
            tab[-1] -= tab[-1, basis[r]] * tab[r]
    if not _reference_simplex(tab, basis, n_real):
        return "unbounded", None, None
    y = np.zeros(ncols)
    y[basis] = tab[:m, -1]
    x = y[:n] + lb
    return "optimal", x, float(np.dot(c, y[:n]) + np.dot(c, lb))


def recorded_lp_calls(monkeypatch, models):
    """(model, arguments, warm, result) of every lp_solve call that
    milp.solve makes on the models: the root and every branch-and-bound
    node, warm when re-solved from a kept tableau.  A model that comes
    again right after itself, with only right-hand sides changed in
    between, is solved from its previous solution."""
    calls = []
    kernel = milp.lp_solve
    model = last = sol = None

    def record(*args, start=None):
        result = kernel(*args, start=start)
        calls.append((model, args, start is not None, result))
        return result

    with monkeypatch.context() as mp:
        mp.setattr(milp, "lp_solve", record)
        for model in models:
            again = model is last and sol.status == "optimal"
            sol = milp.solve(model, start=sol if again else None)
            last = model
    return calls


def bits(result):
    status, x, obj = result[:3]
    return status, None if x is None else x.tobytes(), repr(obj)


def assert_matches_reference(calls):
    """A cold call equals the reference bit for bit.  A warm call may end
    on another optimal vertex: it has the reference's status, an
    objective within 1e-7 relative, and values that break no row."""
    assert {warm for _, _, warm, _ in calls} == {False, True}
    for model, args, warm, result in calls:
        ref = reference_lp_solve(*args)
        if not warm:
            assert bits(result) == bits(ref)
            continue
        assert result[0] == ref[0]
        if ref[0] == "optimal":
            assert abs(result[2] - ref[2]) <= 1e-7 * max(1.0, abs(ref[2]))
            values = dict(enumerate(result[1].tolist()))
            assert [r for r in model.violated(values)
                    if not r.startswith("integrality:")] == []


def dth_rounds(graph, cfg):
    """The cdq model on the stage-1 sites, moved down the d_th schedule."""
    from wavetime import vsmodel
    arts = vsmodel.build_relaxed_model(graph, cfg)
    sol = milp.solve(arts.model)
    if sol.status != "optimal":
        return
    _, sites = vsmodel.decode_solution(arts, sol)
    if not sites:
        return
    arts = vsmodel.build_cdq_model(graph, cfg, set(sites),
                                   cfg.dth_schedule[0])
    yield arts.model
    for d_th in cfg.dth_schedule[1:]:
        vsmodel.set_dth(arts, d_th)
        yield arts.model


def test_lp_kernel_matches_reference_on_stage_models(monkeypatch):
    from test_vsmodel import stage_corpus, stage_models
    from wavetime.netlist import Config, to_gate_graph
    models = [model for _, c in stage_corpus()
              for _, model in stage_models(to_gate_graph(c), Config(T=c.T))]
    calls = recorded_lp_calls(monkeypatch, models)
    assert len(calls) > len(models)  # branch-and-bound nodes too
    assert_matches_reference(calls)
    # warm roots: each d_th round re-solved from the round before
    rounds = itertools.chain.from_iterable(
        dth_rounds(to_gate_graph(c), Config(T=c.T))
        for _, c in stage_corpus())
    calls = recorded_lp_calls(monkeypatch, rounds)
    assert_matches_reference(calls)


def test_lp_kernel_matches_reference_on_random_models(monkeypatch):
    rng = random.Random(99)
    calls = recorded_lp_calls(monkeypatch,
                              [random_model(rng) for _ in range(200)])
    assert {r[0] for _, _, _, r in calls} == {"optimal", "infeasible"}
    assert_matches_reference(calls)


def unpacked_resolve_start(tab, A, b, lb, ub):
    """The full tableau of tab with its right-hand side moved to b, lb
    and ub, formed the unpacked way: unpack, then add the moved columns
    of the unpacked tableau."""
    cols = tab.unpacked()
    dlb = lb - tab.lb
    delta = np.concatenate([b - tab.b, ub - tab.ub - dlb])
    moved = dlb.nonzero()[0]
    if moved.size:
        delta[:len(b)] -= (A[:, moved] * dlb[moved]).sum(axis=1)
    rows = delta.nonzero()[0]
    weights = (delta[rows] * tab.scale[rows])[:, None]
    cols[-1] += (cols[tab.unit[rows]] * weights).sum(axis=0)
    return cols


def test_kept_tableau_unpacks_bit_for_bit(monkeypatch):
    """A kept tableau unpacks to the final tableau of its LP.  A re-solve
    that needs no pivot shares its start's packed columns, read-only,
    and unpacks to the tableau that the unpacked path ends with."""
    pivots = []
    kernel = milp._pivot
    monkeypatch.setattr(milp, "_pivot",
                        lambda *args: pivots.append(args) or kernel(*args))
    rng = random.Random(5)
    kept = shared = 0
    for _ in range(100):
        c, A, rel, b, lb, ub = model_arrays(random_model(rng))
        status, cols, basis, tab = milp._two_phase(c, A, rel, b, lb, ub)
        if status != "optimal":
            continue
        tab = milp._keep(tab, cols, basis, b, lb, ub)
        assert tab.unpacked().tobytes() == cols.tobytes()
        kept += 1
        if not tab.warm:
            continue
        b2 = b + np.array([rng.uniform(-0.05, 0.05) for _ in b])
        lb2 = lb.copy()
        lb2[rng.randrange(len(lb))] -= rng.uniform(0.0, 0.05)
        ref = unpacked_resolve_start(tab, A, b2, lb2, ub)
        pivots.clear()
        if milp._dual_simplex(ref, list(tab.basis), tab.n_real) is not None \
                or pivots:
            continue
        status, warm = milp._dual_resolve(tab, A, b2, lb2, ub)
        assert status == "optimal" and pivots == []
        assert np.shares_memory(warm.packed, tab.packed)
        assert not warm.packed.flags.writeable
        assert warm.unpacked().tobytes() == ref.tobytes()
        shared += 1
    assert kept > 20 and shared > 10


def test_lp_kernel_closed_forms():
    # box-constrained: optimum at the corner
    st, x, obj, _ = milp.lp_solve(np.array([1.0, -2.0]), np.zeros((0, 2)),
                                  [], [], [0, 0], [3, 4])
    assert st == "optimal" and obj == pytest.approx(-8.0, abs=1e-9)
    assert x[1] == pytest.approx(4.0, abs=1e-9)
    # 2x2 transport problem: supplies (3, 2), demands (2, 3),
    # costs [[1, 4], [2, 1]]; optimum ships 2+1 on the diagonal-ish plan
    c = np.array([1.0, 4.0, 2.0, 1.0])
    A = np.array([[1.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1.0],
                  [1.0, 0.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 1.0]])
    st, x, obj, _ = milp.lp_solve(c, A, ["="] * 4, [3.0, 2.0, 2.0, 3.0],
                                  [0] * 4, [10] * 4)
    assert st == "optimal" and obj == pytest.approx(8.0, abs=1e-9)


def test_lp_kernel_infeasible():
    st, _, _, _ = milp.lp_solve(np.array([0.0]), np.array([[1.0], [1.0]]),
                                [">=", "<="], [5.0, 1.0], [0], [10])
    assert st == "infeasible"


def test_lp_kernel_vs_scipy_random():
    rng = random.Random(21)
    for _ in range(100):
        m = random_model(rng)
        st, x, obj, _ = milp.lp_solve(*model_arrays(m))
        oracle = scipy_lp(m, fixed=None)
        # make both pure relaxations: scipy_lp ignores integrality too
        if oracle is None:
            assert st == "infeasible"
        else:
            assert st == "optimal"
            sign = -1.0 if m.sense == "max" else 1.0
            assert sign * obj + m.obj_const == pytest.approx(oracle, abs=1e-6)


# -- model checks ------------------------------------------------------------

def test_infinite_bound_is_free_bound():
    m = MilpModel()
    y = m.add_var(CONTINUOUS, lb=0, ub=float("inf"))
    w = m.add_var(CONTINUOUS, lb=-float("inf"), ub=0)
    m.set_objective({y: -1.0, w: 1.0})
    sol = milp.solve(m)
    assert sol.status == "optimal"
    assert sol.values == {y: milp.FREE_BOUND, w: -milp.FREE_BOUND}
    assert sol.objective == -2 * milp.FREE_BOUND


@pytest.mark.parametrize("bounds", [(float("nan"), 1.0), (0.0, float("nan")),
                                    (None, float("nan")),
                                    (np.float64("nan"), 1.0),
                                    (0.0, np.float64("nan"))])
def test_nan_bound_is_rejected(bounds):
    with pytest.raises(ValueError, match="NaN"):
        MilpModel().add_var(CONTINUOUS, *bounds)


@pytest.mark.parametrize("call", [
    lambda m, x, v: m.add_constr({v: 1.0}, "<", 1.0),
    lambda m, x, v: m.add_constr({v: 1.0}, "<=", float("nan")),
    lambda m, x, v: m.add_constr({v: 1.0}, ">=", float("inf")),
    lambda m, x, v: m.set_objective({v: 1.0}, sense="maximize"),
    lambda m, x, v: m.set_objective({v: float("nan")}),
    lambda m, x, v: m.set_objective({v: 1.0}, const=float("inf")),
    lambda m, x, v: m.add_constr({v: float("nan")}, "<=", 1.0),
    lambda m, x, v: m.add_constr({x: 1.0, v: -float("inf")}, ">=", 0.0),
    lambda m, x, v: m.add_constr({v: 1.0}, "<=", np.float64("nan")),
    lambda m, x, v: m.add_var(INTEGER, lb=0, ub=float("inf")),
    lambda m, x, v: m.add_var(INTEGER, lb=None, ub=3),
], ids=["relation", "nan_rhs", "inf_rhs", "sense", "nan_objective",
        "inf_constant", "nan_coefficient", "inf_coefficient",
        "numpy_nan_rhs", "integer_inf_bound", "integer_free_bound"])
def test_bad_arguments_raise_value_error(call):
    # ValueError, not assert: the checks must hold under python -O
    m = MilpModel()
    x = m.add_var(BINARY)
    v = m.add_var(CONTINUOUS, lb=0, ub=10)
    with pytest.raises(ValueError):
        call(m, x, v)


def test_numpy_scalars_are_accepted():
    m = MilpModel()
    v = m.add_var(INTEGER, lb=np.int64(0), ub=np.float64(4.5))
    w = m.add_var(CONTINUOUS, lb=np.float64(-1.0), ub=np.int64(3))
    m.add_constr({v: np.float64(1.0), w: np.int64(2)}, "<=", np.float64(7.5))
    m.add_constr({v: np.int64(1)}, ">=", np.int64(1))
    m.set_objective({v: np.int64(-1), w: np.float64(-1.0)},
                    const=np.float64(0.5))
    assert [(var.lb, var.ub) for var in m.vars] == [(0.0, 4.5), (-1.0, 3.0)]
    assert [type(ct.rhs) for ct in m.constraints] == [float, float]
    sol = milp.solve(m)
    assert sol.status == "optimal"
    assert sol.values == pytest.approx({v: 4.0, w: 1.75})
    assert sol.objective == pytest.approx(-5.25)


# -- branch and bound --------------------------------------------------------

def test_solve_tiny_cover():
    m = MilpModel()
    x = m.add_var(BINARY)
    y = m.add_var(BINARY)
    m.add_constr({x: 1.0, y: 1.0}, ">=", 1.0)
    m.set_objective({x: 1.0, y: 1.0}, "min")
    sol = milp.solve(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_solve_contradiction():
    m = MilpModel()
    x = m.add_var(CONTINUOUS, lb=-10, ub=10)
    m.add_constr({x: 1.0}, ">=", 1.0)
    m.add_constr({x: 1.0}, "<=", 0.0)
    m.set_objective({}, "min")
    assert milp.solve(m).status == "infeasible"


def test_solver_matches_enumeration_oracle():
    rng = random.Random(99)
    for _ in range(200):
        m = random_model(rng)
        sol = milp.solve(m)
        oracle = enumeration_oracle(m)
        if oracle is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            denom = max(1.0, abs(oracle))
            assert abs(sol.objective - oracle) / denom < 1e-6
            assert m.violated(sol.values) == []


def knapsack(capacity, weights=(3.0, 4.0, 5.0, 2.5), rel="<="):
    m = MilpModel()
    xs = [m.add_var(BINARY) for _ in range(4)]
    v = m.add_var(CONTINUOUS, lb=0, ub=3)
    m.add_constr({**dict(zip(xs, weights)), v: 1.0}, rel, capacity)
    m.set_objective({**dict(zip(xs, (4.0, 5.0, 7.0, 3.0))), v: 0.7},
                    "max")
    return m


def node_starts(monkeypatch):
    """A list that counts, per milp.solve call with a start, the child
    LPs re-solved from a node tableau of that start, as the solves
    run."""
    counts = []
    solve, kernel = milp.solve, milp.lp_solve
    kept = {}

    def record_solve(m, *args, start=None, **kwargs):
        kept.clear()
        if start is not None:
            kept.update((id(t), t) for t in (start.nodes or {}).values())
            counts.append(0)
        return solve(m, *args, start=start, **kwargs)

    def record_lp(*args, start=None):
        if start is not None and kept.get(id(start)) is start:
            counts[-1] += 1
        return kernel(*args, start=start)

    monkeypatch.setattr(milp, "solve", record_solve)
    monkeypatch.setattr(milp, "lp_solve", record_lp)
    return counts


def assert_matches_cold(warm, cold, m):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        assert m.violated(warm.values) == []


def test_solve_from_start_matches_a_cold_solve(monkeypatch):
    m = knapsack(7.0)
    sol = milp.solve(m)
    starts = node_starts(monkeypatch)
    for capacity in (9.5, 6.0, 12.0, 2.0, 0.5, 30.0):
        m.set_rhs([0], [capacity])
        warm = milp.solve(m, start=sol)
        cold = milp.solve(knapsack(capacity))
        assert warm.status == "optimal"
        assert_matches_cold(warm, cold, m)
        sol = warm
    assert len(starts) == 6 and sum(starts) > 0


def test_solve_with_unchanged_data_pivots_at_no_node(monkeypatch):
    """Every node of a re-solve of the same data starts from its own
    final tableau, so no node pivots and the values repeat bit for bit;
    every infeasible child is proved again by its kept proof, with no
    LP."""
    pivots, statuses = [], []
    kernel, lp = milp._pivot, milp.lp_solve

    def record(*args, start=None):
        result = lp(*args, start=start)
        statuses.append(result[0])
        return result

    for capacity in (7.0, 6.0):
        m = knapsack(capacity)
        sol = milp.solve(m)
        paths, proved = set(sol.nodes), set(sol.proofs)
        assert len(paths) > 2       # the knapsack branches
        assert proved               # and some children are infeasible
        with monkeypatch.context() as mp:
            mp.setattr(milp, "_pivot",
                       lambda *args: pivots.append(args) or kernel(*args))
            mp.setattr(milp, "lp_solve", record)
            again = milp.solve(m, start=sol)
        assert pivots == []
        assert "infeasible" not in statuses
        assert sol.nodes is None and sol.proofs is None     # used up
        assert set(again.nodes) == paths and set(again.proofs) == proved
        assert again == sol
        assert [again.values[v].hex() for v in sorted(again.values)] == \
            [sol.values[v].hex() for v in sorted(sol.values)]


def move_bound(rng, m):
    v = m.vars[rng.randrange(len(m.vars))]
    if v.kind == BINARY:
        lb = ub = float(rng.randint(0, 1))
    else:
        lb = v.lb + rng.uniform(-2.0, 2.0)
        ub = max(lb, v.ub + rng.uniform(-2.0, 2.0))
    m.set_bounds([v.id], [lb], [ub])


def two_row_knapsack(rng):
    """Five binaries and two bounded continuous items under two
    capacities: children that overfill one capacity are infeasible."""
    m = MilpModel()
    xs = [m.add_var(BINARY) for _ in range(5)]
    xs += [m.add_var(CONTINUOUS, lb=0, ub=rng.uniform(1, 4))
           for _ in range(2)]
    for _ in range(2):
        m.add_constr({x: float(rng.randint(1, 9)) for x in xs}, "<=",
                     rng.uniform(5, 20))
    m.set_objective({x: float(rng.randint(1, 9)) for x in xs}, "max")
    return m


def move_capacity(rng, m):
    row = rng.randrange(len(m.constraints))
    m.set_rhs([row], [m.b[row] + rng.uniform(-2.0, 2.0)])


def test_solves_from_moved_starts_match_cold_solves(monkeypatch):
    """Chains of re-solves, each from the solution before it, with one
    variable bound of a random model or one capacity of a two-row
    knapsack moved at each step: each matches a cold solve and the
    enumeration oracle.  Some infeasible children are settled by a kept
    proof; some have a proof that no longer holds and are re-solved from
    their parent."""
    rng = random.Random(8)
    starts = node_starts(monkeypatch)
    held = []
    holds = milp.Proof.holds
    monkeypatch.setattr(milp.Proof, "holds", lambda *args: held.append(
        bool(holds(*args))) or held[-1])
    chains = 0
    for make, move in [(random_model, move_bound)] * 40 + \
            [(two_row_knapsack, move_capacity)] * 20:
        m = make(rng)
        sol = milp.solve(m)
        for _ in range(4):
            if sol.status != "optimal":
                break
            move(rng, m)
            warm = milp.solve(m, start=sol)
            cold = milp.solve(m)
            assert_matches_cold(warm, cold, m)
            oracle = enumeration_oracle(m)
            if oracle is None:
                assert warm.status == "infeasible"
            else:
                assert warm.objective == pytest.approx(oracle, abs=1e-6)
            sol = warm
            chains += 1
    assert chains > 60
    assert len(starts) == chains and sum(starts) > 0
    assert held.count(True) > 0 and held.count(False) > 0


def test_tableau_keeps_its_basis_as_a_shared_index_array(monkeypatch):
    """A Tableau's basis_ix is its basis list as a read-only index array,
    at the root, at every kept node and after every re-solve.  A
    re-solve with no pivot shares its start's array; one that pivots
    owns a new one."""
    pivots = []
    kernel, pivot = milp.lp_solve, milp._pivot
    monkeypatch.setattr(milp, "_pivot",
                        lambda *args: pivots.append(args) or pivot(*args))
    shared = owned = 0

    def check(tab):
        assert tab.basis_ix.dtype == int and not tab.basis_ix.flags.writeable
        assert tab.basis_ix.tolist() == tab.basis

    def record(*args, start=None):
        nonlocal shared, owned
        pivots.clear()
        result = kernel(*args, start=start)
        if isinstance(result[3], milp.Tableau):
            check(result[3])
            if start is not None and not pivots:
                assert result[3].basis_ix is start.basis_ix
                shared += 1
            elif start is not None:
                assert not np.shares_memory(result[3].basis_ix,
                                            start.basis_ix)
                owned += 1
        return result

    monkeypatch.setattr(milp, "lp_solve", record)
    rng = random.Random(8)
    for make, move in [(random_model, move_bound)] * 20 + \
            [(two_row_knapsack, move_capacity)] * 10:
        m = make(rng)
        sol = milp.solve(m)
        for _ in range(3):
            if sol.status != "optimal":
                break
            for tab in (sol.root, *sol.nodes.values()):
                check(tab)
            move(rng, m)
            sol = milp.solve(m, start=sol)
    assert shared > 10 and owned > 10


def wide_knapsack(capacity):
    rng = random.Random(3)
    m = MilpModel()
    xs = [m.add_var(BINARY) for _ in range(12)]
    m.add_constr({x: float(rng.randint(3, 20)) for x in xs}, "<=",
                 capacity)
    m.set_objective({x: float(rng.randint(3, 20)) for x in xs}, "max")
    return m


def test_large_tree_keeps_node_keep_tableaux(monkeypatch):
    """A tree larger than the cap keeps exactly NODE_KEEP node tableaux,
    and a re-solve from them still matches a cold solve.  Its proofs stay
    within PROOF_KEEP, here lowered below the 11 children the tree
    proves infeasible."""
    monkeypatch.setattr(milp, "PROOF_KEEP", 4)
    lps = []
    kernel = milp.lp_solve

    def record(*args, start=None):
        lps.append(args)
        return kernel(*args, start=start)

    m = wide_knapsack(30.5)
    with monkeypatch.context() as mp:
        mp.setattr(milp, "lp_solve", record)
        sol = milp.solve(m)
    assert sol.status == "optimal"
    assert len(lps) - 1 > milp.NODE_KEEP      # the root is no node
    assert len(sol.nodes) == milp.NODE_KEEP
    assert len(sol.proofs) == milp.PROOF_KEEP
    starts = node_starts(monkeypatch)
    for capacity in (30.75, 31.0, 30.25):
        m.set_rhs([0], [capacity])
        warm = milp.solve(m, start=sol)
        assert_matches_cold(warm, milp.solve(wide_knapsack(capacity)), m)
        assert len(warm.nodes) <= milp.NODE_KEEP
        assert len(warm.proofs) <= milp.PROOF_KEEP
        sol = warm
    assert len(starts) == 3 and sum(starts) > 0


def test_solutions_compare_and_print_without_tableaux():
    a, b = milp.solve(knapsack(7.0)), milp.solve(knapsack(7.0))
    assert a.root is not None and a.nodes
    assert a == b
    assert repr(a) == repr(b)
    assert "array" not in repr(a) and "Tableau" not in repr(a)


def objective_moved(m):
    m.set_objective({0: 1.0}, "max")
    return m


@pytest.mark.parametrize("change", [
    lambda m: knapsack(7.0, weights=(2.0, 4.0, 5.0, 2.5)),
    objective_moved,
    lambda m: knapsack(7.0, rel=">="),
], ids=["A", "c", "rel"])
def test_solve_start_of_another_model_raises(change):
    """A start is refused by a model whose matrix, objective or relations
    differ: the same model with a new objective, or a model built with a
    changed coefficient or relation."""
    m = knapsack(7.0)
    sol = milp.solve(m)
    m = change(m)
    with pytest.raises(ValueError, match="start"):
        milp.solve(m, start=sol)


def test_appends_after_a_solve_fold_into_new_arrays():
    """A variable and a row appended after a solve give the model new
    arrays, equal to those of the model built in one go; the kept root
    keeps the old ones and refuses to start the grown model."""
    def grow(m):
        y = m.add_var(CONTINUOUS, lb=0, ub=1)
        m.add_constr({0: 1.0, y: 1.0}, "<=", 1.5)
        return m
    m = knapsack(7.0)
    sol = milp.solve(m)
    A = m.A
    grow(m)
    want = grow(knapsack(7.0))
    for a, b in zip(model_arrays(m) + (m.integer,),
                    model_arrays(want) + (want.integer,)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert sol.root.A is A and A.shape == (1, 5) and m.A.shape == (2, 6)
    assert milp.export_lp(m) == milp.export_lp(want)
    with pytest.raises(ValueError, match="start"):
        milp.solve(m, start=sol)


def test_solve_start_with_other_bounds_matches_a_cold_solve(monkeypatch):
    """The relaxed model of every golden at T, 0.995T and 0.990T, as a
    period sweep steps it: its right-hand sides and bounds move with T,
    and each step re-solved from the one before reaches the cold
    objective with no row or bound broken."""
    from gen import DATA
    from wavetime import netlist, vsmodel
    warm = []
    kernel = milp.lp_solve

    def record(*args, start=None):
        warm.append(start is not None)
        return kernel(*args, start=start)

    moved = 0
    for path in sorted(DATA.glob("*.net")):
        c = netlist.parse_netlist(path.read_text())
        graph = netlist.to_gate_graph(c)
        sol = before = None
        for scale in (1.0, 0.995, 0.990):
            model = vsmodel.build_relaxed_model(
                graph, netlist.Config(T=scale * c.T)).model
            with monkeypatch.context() as mp:
                mp.setattr(milp, "lp_solve", record)
                warm_sol = milp.solve(model, start=sol)
            cold = milp.solve(model)
            assert warm_sol.status == cold.status, (path.stem, scale)
            if cold.status != "optimal":
                break
            assert abs(warm_sol.objective - cold.objective) <= \
                1e-9 * max(1.0, abs(cold.objective)), (path.stem, scale)
            assert model.violated(warm_sol.values) == [], (path.stem, scale)
            if before is not None:
                moved += [v.ub for v in before.vars] != \
                    [v.ub for v in model.vars]
            sol, before = warm_sol, model
    assert moved >= 2 and warm.count(True) == moved


def test_solve_start_must_be_optimal():
    m = knapsack(-1.0)
    sol = milp.solve(m)
    assert sol.status == "infeasible"
    with pytest.raises(ValueError, match="start"):
        milp.solve(m, start=sol)


def test_repeated_equality_row_keeps_branching_cold(monkeypatch):
    """A repeated equality row leaves an artificial basic at zero, which
    rules out a warm start: every node is then solved cold."""
    m = MilpModel()
    xs = [m.add_var(BINARY) for _ in range(3)]
    v = m.add_var(CONTINUOUS, lb=0, ub=2)
    for _ in range(2):
        m.add_constr({**{x: 2.0 for x in xs}, v: 1.0}, "=", 3.5)
    m.set_objective({xs[0]: -1.0, xs[1]: -2.0, xs[2]: -3.0, v: 0.1})
    calls = recorded_lp_calls(monkeypatch, [m])
    assert len(calls) > 1
    assert not any(warm for _, _, warm, _ in calls)
    assert milp.solve(m).objective == pytest.approx(enumeration_oracle(m))


def violated_row_by_row(m, values, eps=milp.FEAS_EPS):
    """The audit as a loop over the model's views, variable by variable
    and row by row: the oracle of MilpModel.violated."""
    bad = []
    for v in m.vars:
        x = values[v.id]
        if x < v.lb - eps or x > v.ub + eps:
            bad.append(f"bound:{v.name}")
        if v.kind != CONTINUOUS and abs(x - round(x)) > eps:
            bad.append(f"integrality:{v.name}")
    for c in m.constraints:
        lhs = sum(a * values[v] for v, a in c.coeffs.items())
        if c.rel == "<=" and lhs > c.rhs + eps:
            bad.append(c.name)
        elif c.rel == ">=" and lhs < c.rhs - eps:
            bad.append(c.name)
        elif c.rel == "=" and abs(lhs - c.rhs) > eps:
            bad.append(c.name)
    return bad


def test_vector_audit_matches_the_row_by_row_audit():
    """On random models, with values moved off their solution by amounts
    that break bounds, integrality and rows, some only at FEAS_EPS / T,
    the vector audit names what the loop names, in the same order."""
    rng = random.Random(12)
    T = 8.5
    seen = {"bound": 0, "integrality": 0, "row": 0, "only_at_eps_by_T": 0}
    for _ in range(300):
        m = random_model(rng)
        if rng.random() < 0.3:
            m.add_constr({0: 1.0}, "=", m.vars[0].lb)
        sol = milp.solve(m)
        values = dict(sol.values) if sol.status == "optimal" else \
            {v.id: rng.uniform(v.lb, v.ub) for v in m.vars}
        n = len(m.vars)
        for v in rng.sample(range(n), rng.randint(0, min(3, n))):
            values[v] += rng.choice([-1, 1]) * rng.choice(
                [0.0, 3e-7, 0.4, 2.5])
        for eps in (milp.FEAS_EPS, milp.FEAS_EPS / T):
            want = violated_row_by_row(m, values, eps)
            assert m.violated(values, eps) == want
            for name in want:
                kind = name.split(":")[0]
                seen[kind if kind in seen else "row"] += 1
        seen["only_at_eps_by_T"] += \
            m.violated(values) != m.violated(values, milp.FEAS_EPS / T)
    assert all(n > 10 for n in seen.values()), seen


def test_solution_audit_catches_small_big_M():
    m = MilpModel()
    v = m.add_var(CONTINUOUS, lb=0, ub=1000)
    bad = {v: 2000.0}
    assert m.violated(bad) != []


def test_determinism():
    rng1, rng2 = random.Random(17), random.Random(17)
    for _ in range(20):
        m1, m2 = random_model(rng1), random_model(rng2)
        s1, s2 = milp.solve(m1), milp.solve(m2)
        assert s1.status == s2.status
        assert s1.values == s2.values
        assert s1.objective == s2.objective or \
            (np.isnan(s1.objective) and np.isnan(s2.objective))


def test_integer_vars():
    m = MilpModel()
    x = m.add_var(INTEGER, lb=0, ub=10)
    m.add_constr({x: 1.0}, ">=", 2.3)
    m.set_objective({x: 1.0}, "min")
    sol = milp.solve(m)
    assert sol.values[x] == 3.0


def test_bound_reached_status():
    rng = random.Random(2)
    m = random_model(rng, max_bin=8, max_cont=4)
    sol = milp.solve(m, max_nodes=1)
    assert sol.status in ("bound_reached", "optimal", "infeasible")


def test_bound_reached_carries_no_values():
    # best-first search: the first integral node is optimal, so a budget
    # hit never leaves an incumbent behind
    rng = random.Random(5)
    hits = 0
    for _ in range(100):
        m = random_model(rng)
        for max_nodes in range(1, 6):
            sol = milp.solve(m, max_nodes=max_nodes)
            if sol.status == "bound_reached":
                hits += 1
                assert sol.values == {} and np.isnan(sol.objective)
    assert hits > 0


# -- LP export ---------------------------------------------------------------

def test_export_empty_model():
    m = MilpModel()
    text = milp.export_lp(m)
    assert text.startswith("Minimize\n obj: 0\n")
    assert text.endswith("End\n")


def test_export_cover_model():
    m = MilpModel()
    x = m.add_var(BINARY)
    y = m.add_var(BINARY)
    m.add_constr({x: 1.0, y: 1.0}, ">=", 1.0)
    m.set_objective({x: 1.0, y: 1.0}, "min")
    text = milp.export_lp(m)
    assert "Binaries" in text
    assert "v0 v1" in text
    assert "1 v0 + 1 v1 >= 1" in text


def test_export_reimport_values():
    # the export must preserve the numbers; spot-check the text against
    # the model rather than an external solver (not available offline)
    rng = random.Random(31)
    m = random_model(rng)
    text = milp.export_lp(m)
    for ct in m.constraints:
        assert ct.name + ":" in text
