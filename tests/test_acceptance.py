"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values are either hand-derived, computed by the independent
oracles in ``oracles.py``, or certified by direct linear solves / the convex
reference solver with a feasible-dual duality gap.
"""

import time

import numpy as np

from dapd.baselines import BaselineConfig, run_baseline
from dapd.deterministic import (
    IterateState,
    dapd_iterate,
    make_schedule,
    schedule_for_problem,
    validate_schedule,
)
from dapd.matrix import build_matrix, matvec
from dapd.proxlib import (
    dual_objective,
    feasible_dual_point,
    hinge_loss,
    l1_reg,
    l2_reg,
    elastic_net_reg,
    huber_reg,
    kl_reg,
    make_problem,
    primal_objective,
    prox_conjugate,
    squared_loss,
    svm_problem,
)
from dapd.harness import compute_reference
from dapd.sparse_engine import LazyState, run_sparse, sparse_iterate
from dapd.stochastic import (
    StochasticState,
    params_for_problem,
    perturb_problem,
    run_sdapd,
    sdapd_iterate_dense,
)
from dapd.traces import nnz_fraction

from oracles import (
    dapd_iterate_ergodic_y,
    elastic_fn,
    hinge_conj,
    huber_fn,
    kl_fn,
    l1_fn,
    l2_fn,
    lasso_problem,
    materialize_s,
    prox_loss,
    prox_oracle,
    prox_reg_coord,
    saddle_value,
    sampled_rows,
    squared_conj,
)


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:>2}] {label}: {status}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def dense_to_problem(rows, b, reg, scaling="finite_sum"):
    n, d = rows.shape
    A = build_matrix([(i, j, rows[i, j]) for i in range(n) for j in range(d)], n, d)
    return make_problem(A, squared_loss(b), reg, scaling)


def deterministic_ridge_instance(rng, n=20, d=20, mu=0.1):
    """0.5||Ax-b||^2 + mu/2||x||^2 with closed-form saddle point."""
    rows = rng.standard_normal((n, d)) / np.sqrt(d)
    b = rng.standard_normal(n)
    prob = dense_to_problem(rows, b, l2_reg(mu), "deterministic")
    x_star = np.linalg.solve(rows.T @ rows + mu * np.eye(d), rows.T @ b)
    y_star = rows @ x_star - b
    return prob, x_star, y_star


class TestCriterion1:
    def test_theorem_gap_bound(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        worst_ratio, lowest_gap = 0.0, 0.0
        for _ in range(20):
            prob, x_star, y_star = deterministic_ridge_instance(rng)
            sched = schedule_for_problem(prob)
            state = IterateState(prob, sched)
            numerator = (sched.beta(0) / (2 * sched.tau(0))) * float(y_star @ y_star)
            numerator += 0.5 * float(x_star @ x_star)
            f_star = saddle_value(prob, x_star, y_star)
            # the gap is a difference of O(|F*|) saddle values, so it cannot
            # be resolved below ulp scale; the bound keeps shrinking forever
            floor = 1e-12 * (1.0 + abs(f_star))
            ergodic_y = np.zeros(prob.n)
            for t in range(500):
                dapd_iterate_ergodic_y(state, ergodic_y)
                gap = (
                    saddle_value(prob, state.ergodic_x, y_star)
                    - saddle_value(prob, x_star, ergodic_y)
                )
                bound = numerator * np.exp(-(np.log(state.B_hat) + state.log_scale))
                worst_ratio = max(worst_ratio, (gap - floor) / bound)
                # a saddle gap is nonnegative, up to the same roundoff
                lowest_gap = min(lowest_gap, gap / (1.0 + abs(f_star)))
        elapsed = time.perf_counter() - start
        ok = worst_ratio <= 1.05 and lowest_gap >= -1e-9 and elapsed < 10.0
        report(
            1,
            "saddle-gap bound, 20 ridge instances, T<=500",
            ok,
            f"worst (gap-floor)/bound={worst_ratio:.4f} (<=1.05), "
            f"lowest gap/(1+|F*|)={lowest_gap:.1e} (>=-1e-9), {elapsed:.1f}s (<10s)",
        )


class TestCriterion2:
    def test_distance_bound_and_linear_rate(self):
        rng = np.random.default_rng(1002)
        worst_ratio = 0.0
        worst_rate_margin = -np.inf
        for _ in range(20):
            prob, x_star, y_star = deterministic_ridge_instance(rng)
            gamma, mu = 1.0, 0.1
            R = prob.stats.spectral_norm
            xi = 1.0 + np.sqrt(mu * gamma) / R
            sched = schedule_for_problem(prob)
            state = IterateState(prob, sched)
            numerator = float(x_star @ x_star) + (gamma / mu) * float(y_star @ y_star)
            # squared distances cannot be resolved below (ulp * ||x*||)^2
            floor = (1e-12 * (1.0 + np.linalg.norm(x_star))) ** 2
            dists = []
            for t in range(1, 501):
                dapd_iterate(state)
                d2 = float(np.sum((state.ergodic_x - x_star) ** 2))
                dists.append(d2)
                worst_ratio = max(worst_ratio, (d2 - floor) * (xi**t - 1.0) / numerator)
            # fit the linear rate over the last 100 still-decaying iterations
            # (past the floor the sequence is pure roundoff noise)
            decaying = [k for k, v in enumerate(dists) if v > 100.0 * floor]
            stop = decaying[-1] + 1 if decaying else 100
            window = np.array(dists[max(stop - 100, 0):stop])
            slope = np.polyfit(np.arange(window.size), np.log(window), 1)[0]
            worst_rate_margin = max(worst_rate_margin, np.exp(slope) * xi)
        ok = worst_ratio <= 1.05 and worst_rate_margin <= 1.01
        report(
            2,
            "distance bound + empirical linear rate",
            ok,
            f"worst (dist-floor)/bound={worst_ratio:.4f} (<=1.05), "
            f"rate*xi={worst_rate_margin:.4f} (<=1.01)",
        )


class TestCriterion3:
    def test_stochastic_linear_bound(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1003)
        n, d, mu = 50, 20, 0.1
        rows = rng.standard_normal((n, d)) / np.sqrt(d)
        b = rng.standard_normal(n)
        prob = dense_to_problem(rows, b, l2_reg(mu))
        x_star = np.linalg.solve(rows.T @ rows / n + mu * np.eye(d), rows.T @ b / n)
        y_star = rows @ x_star - b
        params = params_for_problem(prob)
        c = prob.loss_scale
        alpha = 1.0 + (n - 1) * 1.0 * params.tau / n
        total = 0.5 * float(x_star @ x_star)
        total += (alpha * params.beta0 / (2 * params.tau)) * float(y_star @ y_star)
        total += (n - 1) * params.beta0 * (
            saddle_value(prob, x_star, c * y_star) - saddle_value(prob, x_star, np.zeros(n) * c)
        )
        delta0 = 2.0 * (params.xi - 1.0) / (mu * params.beta0) * total
        details = []
        ok = True
        for T in (n, 5 * n, 20 * n):
            dists = [
                float(np.sum((run_sdapd(prob, params, T, seed=s).x_ergodic - x_star) ** 2))
                for s in range(50)
            ]
            bound = delta0 / (params.xi**T - 1.0)
            ratio = np.mean(dists) / bound
            details.append(f"T={T}: mean/bound={ratio:.3f}")
            ok = ok and ratio <= 1.1
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 30.0
        report(3, "stochastic expected-distance bound, 50 seeds", ok,
               "; ".join(details) + f", {elapsed:.1f}s (<30s)")


def sparse_instance(rng, n, d, density, reg, noise=0.1):
    triplets = []
    for i in range(n):
        k = max(1, int(round(density * d)))
        cols = np.sort(rng.choice(d, size=k, replace=False))
        vals = rng.standard_normal(k) / np.sqrt(k)
        triplets.extend((i, int(c), float(v)) for c, v in zip(cols, vals))
    A = build_matrix(triplets, n, d)
    b = rng.standard_normal(n) * noise + matvec(A, rng.standard_normal(d))
    return make_problem(A, squared_loss(b), reg, "finite_sum")


class TestCriterion4:
    def test_two_sequence_identity(self):
        rng = np.random.default_rng(1004)
        prob = sparse_instance(rng, 100, 200, 0.05, l2_reg(0.1))
        params = params_for_problem(prob)
        lazy = LazyState(prob, params)
        # dense shadow on the identical rows
        rows = sampled_rows(100, 77)
        from dapd.proxlib import prox_reg, recover_primal

        y = np.zeros(100)
        u = np.zeros(200)
        s = np.zeros(200)
        x0 = np.zeros(200)
        beta, B = params.beta0, 0.0
        worst = 0.0
        for t in range(500):
            i = next(rows)
            sparse_iterate(lazy, i)
            x = recover_primal(prob.reg, x0, s, B, 1.0)
            xbar = prox_reg(prob.reg, params.eta, x - params.eta * u)
            cols, vals = prob.matrix.row(i)
            dot = float(vals @ xbar[cols])
            ynew = prox_conjugate(prob.loss, i, params.tau, y[i] + params.tau * dot)
            dy = ynew - y[i]
            y[i] = ynew
            s += beta * u
            s[cols] += beta * dy * vals
            u[cols] += (dy / 100) * vals
            B += beta
            beta *= params.xi
            err = np.abs(materialize_s(lazy) - s).max() / (1.0 + np.abs(s).max())
            worst = max(worst, err)
        ok = worst <= 1e-9
        report(4, "two-sequence gradient-sum identity, 500 iterations", ok,
               f"worst rel inf-norm error={worst:.2e} (<=1e-9)")


class TestCriterion5:
    def test_sparse_dense_equivalence_with_rebase(self, monkeypatch):
        monkeypatch.setattr("dapd.sparse_engine.RESCALE_THRESHOLD", 1e8)
        rng = np.random.default_rng(1005)
        prob = sparse_instance(rng, 50, 100, 0.1, l2_reg(0.1))
        params = params_for_problem(prob)
        iterations = 10_000
        dense = run_sdapd(prob, params, iterations, seed=9)
        sparse = run_sparse(prob, params, iterations, seed=9)
        diff = float(np.abs(sparse.x - dense.x).max())
        rebases = sparse.resolved["rebase_count"]
        ok = diff <= 1e-8 and rebases >= 1
        report(5, "sparse/dense trajectory equivalence, 1e4 iterations", ok,
               f"max|diff|={diff:.2e} (<=1e-8), rebases={rebases} (>=1)")


class TestCriterion6:
    def test_work_bound(self):
        rng = np.random.default_rng(1006)
        n, d, rho = 200, 10_000, 1e-3
        prob = sparse_instance(rng, n, d, rho, l2_reg(0.05))
        params = params_for_problem(prob)
        row_nnz = np.diff(prob.matrix.row_offsets)
        mean_nnz = float(row_nnz.mean())
        state = LazyState(prob, params)
        iterations = 2000
        rows = sampled_rows(n, 4)
        for _ in range(iterations):
            sparse_iterate(state, next(rows))
        mean_touches = state.touch_counter / iterations
        dense_state = StochasticState(prob, params)
        rows = sampled_rows(n, 4)
        for _ in range(50):
            before = dense_state.touch_counter
            sdapd_iterate_dense(dense_state, next(rows))
        dense_per_iter = dense_state.touch_counter / 50
        ok = mean_touches <= 10.0 * (mean_nnz + 1.0) and dense_per_iter >= d
        report(6, "per-iteration work bound at rho=1e-3, d=1e4", ok,
               f"sparse mean touches={mean_touches:.1f} (<= {10*(mean_nnz+1):.1f}), "
               f"dense per-iter={dense_per_iter:.0f} (>= {d})")


class TestCriterion7:
    STEPS = [0.01, 0.5, 1.0, 10.0, 1000.0]
    VGRID = np.linspace(-10.0, 10.0, 21)

    def test_prox_oracle_suite(self):
        import dataclasses

        worst = 0.0
        cases = []
        for d1 in (0.0, 0.1):
            loss_sq = dataclasses.replace(squared_loss([0.7]), dual_perturbation=d1)
            cases.append(
                ("squared*", lambda s, v, L=loss_sq: prox_conjugate(L, 0, s, v),
                 lambda s, v, dd=d1: prox_oracle(squared_conj(0.7, dd), s, v, -abs(v) - 1002, abs(v) + 1002))
            )
            loss_h = dataclasses.replace(hinge_loss([1.0]), dual_perturbation=d1)
            cases.append(
                ("hinge*", lambda s, v, L=loss_h: prox_conjugate(L, 0, s, v),
                 lambda s, v, dd=d1: prox_oracle(hinge_conj(dd), s, v, -1.0, 0.0))
            )
        for d2 in (0.0, 0.1):
            regs = [
                (l1_reg(0.7), l1_fn(0.7, d2)),
                (l2_reg(0.3), l2_fn(0.3, d2)),
                (elastic_net_reg(0.5, 0.2), elastic_fn(0.5, 0.2, d2)),
                (huber_reg(0.8, 0.6), huber_fn(0.8, 0.6, d2)),
            ]
            for reg, fn in regs:
                reg = dataclasses.replace(reg, primal_perturbation=d2)
                cases.append(
                    (reg.kind, lambda s, v, R=reg: prox_reg_coord(R, 0, s, v),
                     lambda s, v, F=fn: prox_oracle(F, s, v, -abs(v) - 2, abs(v) + 2))
                )
            klr = dataclasses.replace(kl_reg(1.3), primal_perturbation=d2)
            cases.append(
                ("kl", lambda s, v, R=klr: prox_reg_coord(R, 0, s, v),
                 lambda s, v, dd=d2: prox_oracle(
                     kl_fn(1.3, dd), s, v, 1e-9, abs(v) + np.sqrt(4 * s * 1.3) + 5))
            )
        for name, fn, orc in cases:
            for step in self.STEPS:
                for v in self.VGRID:
                    err = abs(fn(step, float(v)) - orc(step, float(v)))
                    worst = max(worst, err)
        # Moreau identity for both losses
        worst_moreau = 0.0
        for loss in (squared_loss([0.4]), hinge_loss([1.0])):
            for tau in self.STEPS:
                for v in self.VGRID:
                    lhs = prox_conjugate(loss, 0, tau, float(v)) + tau * prox_loss(
                        loss, 0, 1.0 / tau, float(v) / tau
                    )
                    worst_moreau = max(worst_moreau, abs(lhs - v))
        ok = worst <= 1e-6 and worst_moreau <= 1e-10
        report(7, "prox oracle suite + Moreau identity", ok,
               f"worst prox err={worst:.2e} (<=1e-6), worst Moreau err={worst_moreau:.2e} (<=1e-10)")


class TestCriterion8:
    def test_schedule_feasibility_grid(self):
        count = 0
        bad = []
        for gamma in (0.0, 0.5, 2.0):
            for mu in (0.0, 0.05, 1.0):
                for R in (0.5, 1.0, 4.0):
                    sched = make_schedule(gamma=gamma, mu=mu, R=R, L=1.0)
                    violations = validate_schedule(sched, gamma, mu, R, horizon=10_000)
                    count += 1
                    if violations:
                        bad.append((gamma, mu, R, violations[0]))
        ok = not bad
        report(8, "schedule feasibility, 4 regimes x parameter grid, t<=1e4", ok,
               f"{count} schedules checked, {len(bad)} infeasible")


class TestCriterion9:
    def test_desk_scale_lambda_sweep(self):
        rng = np.random.default_rng(1009)
        n = d = 200
        rows = rng.standard_normal((n, d)) / np.sqrt(d)
        x_true = rng.standard_normal(d)
        b = rows @ x_true + 0.1 * rng.standard_normal(n)
        details = []
        ok = True
        for lam in (1e-2, 1e-3, 1e-4):
            prob = dense_to_problem(rows, b, l2_reg(lam))
            ref = compute_reference(prob, 1e-10)
            da50 = run_baseline(
                BaselineConfig("da", epochs=50), prob, reference_value=ref.value
            ).trace[-1].suboptimality
            params = params_for_problem(prob)
            wins = 0
            for seed in range(10):
                s50 = run_sdapd(
                    prob, params, 50 * n, seed=seed, reference_value=ref.value
                ).trace[-1].suboptimality
                p50 = run_baseline(
                    BaselineConfig("proxsgd", epochs=50, seed=seed),
                    prob, reference_value=ref.value,
                ).trace[-1].suboptimality
                if s50 < da50 and s50 < p50:
                    wins += 1
            details.append(f"lam={lam:.0e}: {wins}/10")
            ok = ok and wins >= 8
        report(9, "SDAPD dominates DA and ProxSGD at epoch 50", ok, ", ".join(details))


def polished_lasso_reference(prob, rows, b, lam):
    """Active-set-polished optimum, certified by a feasible-dual duality gap.

    Starting from the convex-solver support, alternately drop coordinates
    whose polished sign flips and add the worst off-support stationarity
    violator until the exact optimality system holds.
    """
    ref = compute_reference(prob, 1e-6)
    x = ref.x.copy()
    c = prob.loss_scale
    d = rows.shape[1]
    support = np.abs(x) > 1e-7
    signs = np.sign(x)
    for _ in range(50):
        if support.any():
            As = rows[:, support]
            xs = np.linalg.solve(c * As.T @ As, c * As.T @ b - lam * signs[support])
        else:
            xs = np.zeros(0)
        x = np.zeros(d)
        x[support] = xs
        flipped = support & (np.sign(x) * signs < 0)
        if flipped.any():
            support = support & ~flipped
            continue
        kkt = c * rows.T @ (rows @ x - b)
        violations = (~support) & (np.abs(kkt) > lam * (1 + 1e-12))
        if violations.any():
            j = int(np.argmax(np.where(support, -np.inf, np.abs(kkt))))
            support[j] = True
            signs[j] = -np.sign(kkt[j])
            continue
        break
    y_feas = feasible_dual_point(prob, c * (rows @ x - b))
    gap = primal_objective(prob, x) - dual_objective(prob, y_feas)
    assert 0 <= gap <= 1e-12, f"polish failed to certify: gap={gap:.3e}"
    return x, primal_objective(prob, x)


class TestCriterion10:
    def test_sparsity_study(self):
        rng = np.random.default_rng(1010)
        n, d, k = 30, 30, 5
        rows = rng.standard_normal((n, d)) / np.sqrt(d)
        plant = np.zeros(d)
        plant[rng.choice(d, k, replace=False)] = rng.standard_normal(k)
        b = rows @ plant + 0.02 * rng.standard_normal(n)
        lam = 0.2 * float(np.abs(rows.T @ b / n).max())
        prob = dense_to_problem(rows, b, l1_reg(lam))
        x_ref, pstar = polished_lasso_reference(prob, rows, b, lam)
        ref_nnz = nnz_fraction(x_ref)

        # DAPD run until suboptimality <= 1e-8
        sched = schedule_for_problem(prob)
        state = IterateState(prob, sched)
        dapd_x = None
        for t in range(100_000):
            dapd_iterate(state)
            if (t + 1) % 25 == 0 and primal_objective(prob, state.x) - pstar <= 1e-8:
                dapd_x = state.x.copy()
                break
        assert dapd_x is not None, "DAPD did not reach 1e-8"

        # SDAPD on the perturbed problem, last iterate at 1e-8 on the original
        pert = perturb_problem(prob, 1e-5, c1=0.1, c2=1.0)
        params = params_for_problem(pert)
        sstate = StochasticState(pert, params)
        sdapd_x = None
        rows = sampled_rows(pert.n, 3)
        for t in range(1_000_000):
            sdapd_iterate_dense(sstate, next(rows))
            if (t + 1) % 200 == 0 and primal_objective(prob, sstate.x) - pstar <= 1e-8:
                sdapd_x = sstate.x.copy()
                break
        assert sdapd_x is not None, "SDAPD did not reach 1e-8"

        # ProxSGD at its own achievable suboptimality
        sgd = run_baseline(
            BaselineConfig("proxsgd", epochs=300, seed=1), prob, reference_value=pstar
        )
        sgd_subopt = sgd.trace[-1].suboptimality
        sgd_nnz = nnz_fraction(sgd.x)
        # native iterates at the matched (coarser) suboptimality level
        match_state = IterateState(prob, sched)
        matched_nnz = None
        for t in range(100_000):
            dapd_iterate(match_state)
            if primal_objective(prob, match_state.x) - pstar <= sgd_subopt:
                matched_nnz = nnz_fraction(match_state.x)
                break
        one_coord = 1.0 / d + 1e-12
        ok = (
            abs(nnz_fraction(dapd_x) - ref_nnz) <= one_coord
            and abs(nnz_fraction(sdapd_x) - ref_nnz) <= one_coord
            and matched_nnz is not None
            and matched_nnz <= sgd_nnz + 1e-12
        )
        report(
            10,
            "planted-sparse solution structure",
            ok,
            f"ref nnz={ref_nnz:.3f}, dapd={nnz_fraction(dapd_x):.3f}, "
            f"sdapd={nnz_fraction(sdapd_x):.3f} (+-{1/d:.3f}); "
            f"dapd@{sgd_subopt:.1e}: {matched_nnz:.3f} <= proxsgd {sgd_nnz:.3f}",
        )


class TestCriterion11:
    def test_rate_regime_scaling(self):
        rng = np.random.default_rng(1011)
        n, d = 20, 15
        plant = rng.standard_normal(d)
        plant /= np.linalg.norm(plant)
        # rows with unit norm and comfortable margins keep the hinge optimum
        # small, so accuracy-proportional perturbations stay benign
        rows = np.empty((n, d))
        count = 0
        while count < n:
            candidate = rng.standard_normal(d)
            candidate /= np.linalg.norm(candidate)
            if abs(candidate @ plant) >= 0.4:
                rows[count] = candidate
                count += 1
        labels = np.sign(rows @ plant)
        b = rows @ plant + 0.05 * rng.standard_normal(n)
        A = build_matrix([(i, j, rows[i, j]) for i in range(n) for j in range(d)], n, d)
        cells = [
            ("hinge+l1", svm_problem(A, labels, l1_reg(0.01)), 1.0),
            ("hinge+l2", svm_problem(A, labels, l2_reg(0.5)), 0.5),
            ("squared+l1", lasso_problem(A, b, 0.05), 0.5),
        ]
        details = []
        ok = True
        for name, prob, p_target in cells:
            ref = compute_reference(prob, 1e-7)
            iteration_counts = []
            for eps in (1e-2, 1e-3, 1e-4):
                pert = perturb_problem(prob, eps, c1=0.1, c2=0.1)
                params = params_for_problem(pert)
                state = StochasticState(pert, params)
                hit = None
                rows = sampled_rows(pert.n, 5)
                for t in range(2_000_000):
                    sdapd_iterate_dense(state, next(rows))
                    if (t + 1) % 10 == 0:
                        if primal_objective(prob, state.x) - ref.value <= eps:
                            hit = t + 1
                            break
                assert hit is not None, f"{name} never reached eps={eps}"
                iteration_counts.append(hit)
            slope = np.polyfit([2.0, 3.0, 4.0], np.log10(iteration_counts), 1)[0]
            factor = 10.0**slope
            limit = 3.0 * 10.0**p_target
            details.append(f"{name}: decade factor {factor:.2f} <= {limit:.1f}")
            ok = ok and factor <= limit
        report(11, "perturbed rate-regime scaling", ok, "; ".join(details))
