import warnings
from dataclasses import replace

import numpy as np
import pytest

import csamp.amp as amp
import csamp.experiments as experiments
from csamp.bamp import bamp_recover
from csamp.experiments import (
    KNOWN_ALGORITHMS,
    GridConfig,
    SweepResult,
    extract_contour,
    read_csv,
    run_grids,
    run_nmse_sweep,
    run_phase_transition,
    run_support_phase_transition,
    trial_rng,
    write_csv,
)
from csamp.model import ComplexVector, RecoveryError, RecoverySettings, make_instance, nmse
from csamp.support import support_metrics


def forbidden(*args, **kwargs):
    raise AssertionError("the sweep called a function it must not call")


@pytest.fixture
def solved(monkeypatch):
    """The algorithm name of every solve a sweep makes, once per instance of
    each chunk."""
    names = []
    original = experiments._solve_chunk

    def counting(name, instances, *args, **kwargs):
        names.extend([name] * len(instances))
        return original(name, instances, *args, **kwargs)

    monkeypatch.setattr(experiments, "_solve_chunk", counting)
    return names


@pytest.fixture
def loops(monkeypatch):
    """The M of every instance of each batched loop a sweep runs, one list
    per loop."""
    calls = []
    original = experiments._solve_chunk

    def recording(name, instances, *args, **kwargs):
        calls.append([inst.m for inst in instances])
        return original(name, instances, *args, **kwargs)

    monkeypatch.setattr(experiments, "_solve_chunk", recording)
    return calls


def tiny_grid(**overrides) -> GridConfig:
    base = dict(
        n=48,
        m_ratios=(0.3, 0.6, 0.9),
        k_ratios=(0.1, 0.4),
        trials=3,
        base_seed=5,
        settings=RecoverySettings(t_max=40),
    )
    base.update(overrides)
    return GridConfig(**base)


class TestGridConfig:
    def test_cell_dims_rounding(self):
        cfg = tiny_grid()
        m, k = cfg.cell_dims(0.3, 0.4)
        assert m == round(0.3 * 48) and k == round(0.4 * m)
        m, k = cfg.cell_dims(0.02, 0.01)
        assert m >= 1 and k >= 0

    def test_validation(self):
        cfg = tiny_grid(n=np.int64(24), trials=np.int64(2), base_seed=np.int64(1),
                        workers=np.int64(1))
        assert (cfg.n, cfg.trials, cfg.base_seed, cfg.workers) == (24, 2, 1, 1)
        # the snr alone says whether a grid is noisy
        assert tiny_grid().noiseless and not tiny_grid(snr=10.0).noiseless

    def test_repeated_algorithm_rejected_before_any_draw(self, monkeypatch):
        # a repeated name would solve every chunk twice and double its rows
        monkeypatch.setattr(experiments, "make_instance", forbidden)
        with pytest.raises(ValueError, match="'amp' given more than once"):
            tiny_grid(algorithms=("amp", "cbamp", "amp"))
        with pytest.raises(ValueError, match="'cbamp' given more than once"):
            run_nmse_sweep(24, 2, [12], [20.0], 2, algorithms=("cbamp", "cbamp"))


class TestPhaseTransition:
    def test_row_shape_and_rates(self):
        cfg = tiny_grid()
        res = run_phase_transition(cfg)
        assert len(res.rows) == 6 * len(cfg.algorithms)
        rates = res.column("success_rate")
        assert all(0.0 <= r <= 1.0 for r in rates)
        counts = res.column("successes")
        assert all(c <= cfg.trials for c in counts)

    def test_paired_instances_across_algorithm_subsets(self):
        # the cbamp column must be identical whether or not other
        # algorithms run alongside it
        lone = run_phase_transition(tiny_grid(algorithms=("cbamp",)))
        joint = run_phase_transition(
            tiny_grid(algorithms=("amp", "cbamp", "cbossamp"))
        )
        lone_rows = {
            (r[0], r[1]): r for r in lone.rows
        }
        for row in joint.rows:
            if row[4] != "cbamp":
                continue
            assert lone_rows[(row[0], row[1])] == row

    def test_reproducible_and_worker_invariant(self, tmp_path):
        res1 = run_phase_transition(tiny_grid())
        res2 = run_phase_transition(tiny_grid())
        assert res1.rows == res2.rows
        res_par = run_phase_transition(tiny_grid(workers=2))
        assert res_par.rows == res1.rows
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        res1.to_csv(p1)
        res_par.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rate_monotone_in_m_ratio(self):
        # along fixed K/M, more measurements cannot hurt beyond noise
        cfg = GridConfig(
            n=64, m_ratios=(0.2, 0.4, 0.6, 0.8), k_ratios=(0.3,),
            trials=20, base_seed=2, algorithms=("cbossamp",),
            settings=RecoverySettings(t_max=60),
        )
        res = run_phase_transition(cfg)
        rates = res.column("success_rate")
        for lo, hi in zip(rates, rates[1:]):
            two_se = 2 * np.sqrt(max(lo * (1 - lo), 0.25 / 20) / 20)
            assert hi >= lo - two_se

    def test_corner_cells_at_desk_scale(self):
        # deep success corner: every algorithm at rate >= 0.95; deep failure
        # corner: every algorithm at rate <= 0.05 (N=256, 50 trials)
        easy = GridConfig(n=256, m_ratios=(0.95,), k_ratios=(0.05,),
                          trials=50, base_seed=8, workers=2)
        rates = run_phase_transition(easy).column("success_rate")
        assert all(r >= 0.95 for r in rates)
        hard = GridConfig(n=256, m_ratios=(0.05,), k_ratios=(0.95,),
                          trials=50, base_seed=8, workers=2)
        rates = run_phase_transition(hard).column("success_rate")
        assert all(r <= 0.05 for r in rates)

    def test_zero_k_cell(self):
        cfg = GridConfig(
            n=20, m_ratios=(0.05,), k_ratios=(0.1,), trials=2,
            base_seed=0, algorithms=("amp", "cbamp"),
            settings=RecoverySettings(t_max=20),
        )
        m, k = cfg.cell_dims(0.05, 0.1)
        assert k == 0
        res = run_phase_transition(cfg)  # must not raise
        assert all(r == 1.0 for r in res.column("success_rate"))


class TestSupportPhaseTransition:
    def test_default_detector_configs(self):
        cfg = tiny_grid(m_ratios=(0.6, 0.9), k_ratios=(0.1,))
        res = run_support_phase_transition(cfg)
        labels = {(r[4], r[5]) for r in res.rows}
        assert labels == {("cbamp", "em"), ("cbossamp", "em"), ("cbossamp", "prior")}
        assert len(res.rows) == 2 * 3

    def test_easy_cell_detects_support(self):
        cfg = GridConfig(
            n=64, m_ratios=(0.9,), k_ratios=(0.1,), trials=5, base_seed=1,
            settings=RecoverySettings(t_max=60),
        )
        res = run_support_phase_transition(cfg)
        assert all(r >= 0.8 for r in res.column("success_rate"))

    def test_rejects_empty_detectors(self, monkeypatch):
        # amp has no detector pair, so an amp-only grid has none to score
        monkeypatch.setattr(experiments, "make_instance", forbidden)
        with pytest.raises(ValueError, match="pair"):
            run_support_phase_transition(tiny_grid(algorithms=("amp",)))

    def test_solves_only_paired_algorithms(self, solved):
        cfg = tiny_grid()
        run_support_phase_transition(cfg)
        cells = len(cfg.m_ratios) * len(cfg.k_ratios)
        assert "amp" not in solved
        assert solved.count("cbamp") == solved.count("cbossamp") == cells * cfg.trials


class TestRunGrids:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_separate_runners(self, workers, tmp_path):
        cfg = tiny_grid(workers=workers)
        recovery, support = run_grids(cfg)
        for joint, alone in ((recovery, run_phase_transition(cfg)),
                             (support, run_support_phase_transition(cfg))):
            assert joint.kind == alone.kind
            assert joint.columns == alone.columns
            assert joint.rows == alone.rows
            assert joint.meta == alone.meta
            joint.to_csv(tmp_path / "joint.csv")
            alone.to_csv(tmp_path / "alone.csv")
            assert (tmp_path / "joint.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_solves_each_instance_once_per_algorithm(self, solved):
        cfg = tiny_grid()
        run_grids(cfg)
        draws = len(cfg.m_ratios) * len(cfg.k_ratios) * cfg.trials
        assert sorted(solved) == sorted(list(cfg.algorithms) * draws)

    def test_recovery_runner_runs_no_detector(self, monkeypatch):
        monkeypatch.setattr(experiments, "detect_support", forbidden)
        run_phase_transition(tiny_grid())


def chunk_of_trials():
    """Instances of one cell, (M, N, K) = (24, 64, 6), and the trial
    numbers of those whose solve must fail."""
    draws = [make_instance(24, 64, 6, trial_rng(7, 0, j))[0] for j in range(4)]
    big = replace(draws[1], A=1e300 * draws[1].A)
    instances = [
        draws[0],
        big,  # overflows at t=1
        draws[2],
        replace(big, y=ComplexVector(np.zeros(24), big.y.im)),  # its real part converges at t=1
        replace(draws[3], y=ComplexVector.zeros(24)),  # no data
        draws[3],
    ]
    return instances, (1, 3)


def mixed_k_chunk():
    """Instances of one (M, N) = (24, 64) under different priors: two
    interior K, K=0 without data (its loop runs the spike mask and stops at
    t=1, and cbossamp keeps gamma0), K=N (the slab mask) and a trial whose
    solve must fail; their K and the trial numbers of those that fail."""
    ks = [4, 0, 64, 6, 9]
    instances = [make_instance(24, 64, k, trial_rng(9, c, 0))[0] for c, k in enumerate(ks)]
    instances[3] = replace(instances[3], A=1e300 * instances[3].A)  # overflows at t=1
    assert not instances[1].y.norm_sq()
    return instances, ks, (3,)


class TestChunkedSolves:
    @pytest.mark.parametrize("part_variance", ["half", "full"])
    @pytest.mark.parametrize("variant", ["own-beta", "printed-cross-beta"])
    @pytest.mark.parametrize("algo", KNOWN_ALGORITHMS)
    def test_equal_lone_solves_bit_for_bit(self, algo, variant, part_variance):
        settings = RecoverySettings(t_max=60, likelihood_variant=variant,
                                    part_variance=part_variance)
        instances, failing = chunk_of_trials()
        # in trial 0 one cbamp part stops before the other
        first = instances[0]
        gamma0, s2 = first.prior.gamma0[0], first.prior.s2
        assert (bamp_recover(first.A, first.y.re, gamma0, s2, settings).iterations
                != bamp_recover(first.A, first.y.im, gamma0, s2, settings).iterations)
        # one chunk of one prior, and one whose trials each have their own
        inputs = [(instances, [6] * len(instances), failing), mixed_k_chunk()]
        with np.errstate(over="ignore", invalid="ignore"):
            for instances, ks, failing in inputs:
                chunk = experiments._solve_chunk(algo, instances, ks, settings)
                for j, (inst, k, out) in enumerate(zip(instances, ks, chunk)):
                    if j in failing:
                        assert isinstance(out, RecoveryError)
                        with pytest.raises(RecoveryError):
                            experiments.run_algorithm(algo, inst, k, settings)
                        continue
                    alone = experiments.run_algorithm(algo, inst, k, settings)
                    for part in ("re", "im"):
                        assert np.array_equal(getattr(out.x_hat, part),
                                              getattr(alone.x_hat, part))
                    for name in ("u_r", "u_i", "gamma_r", "gamma_i"):
                        assert np.array_equal(getattr(out, name), getattr(alone, name))
                    assert ((out.beta_r, out.beta_i, out.iterations, out.converged,
                             out.diverged)
                            == (alone.beta_r, alone.beta_i, alone.iterations, alone.converged,
                                alone.diverged))

    @pytest.mark.parametrize("algo", ["amp", "cbamp"])
    def test_one_and_two_live_rows_side_by_side_keep_lone_bits(self, monkeypatch, algo):
        # each part stops on its own rule, so trials with one live row and
        # trials with two share the state: one stacked matmul per row count
        counts = []
        update = amp._StackedA.update

        def recording(self, rows):
            update(self, rows)
            counts.append(sorted(r for r, _, _ in self.runs))

        monkeypatch.setattr(amp._StackedA, "update", recording)
        instances = [make_instance(24, 64, 6, trial_rng(7, 0, j))[0] for j in range(6)]
        settings = RecoverySettings(t_max=60)
        chunk = experiments._solve_chunk(algo, instances, 6, settings)
        assert [1, 2] in counts
        for inst, out in zip(instances, chunk):
            alone = experiments.run_algorithm(algo, inst, 6, settings)
            assert np.array_equal(out.x_hat.re, alone.x_hat.re)
            assert np.array_equal(out.x_hat.im, alone.x_hat.im)
            assert np.array_equal(out.u_r, alone.u_r) and np.array_equal(out.u_i, alone.u_i)
            assert ((out.beta_r, out.beta_i, out.iterations, out.converged)
                    == (alone.beta_r, alone.beta_i, alone.iterations, alone.converged))

    @pytest.mark.parametrize("algo", KNOWN_ALGORITHMS)
    def test_non_finite_trial_fails_alone_without_new_warnings(self, algo):
        # one trial overflows at t=1; in another |z|^2 overflows while the
        # iterate stays finite, so the finite check's exact pass clears it
        # and the trial stops as diverged
        draws = [make_instance(24, 64, 6, trial_rng(8, 0, j))[0] for j in range(4)]
        instances = [draws[0], replace(draws[1], A=1e300 * draws[1].A), draws[2],
                     replace(draws[3], A=1e100 * draws[3].A)]
        settings = RecoverySettings(t_max=40)
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("always")
            chunk = experiments._solve_chunk(algo, instances, 6, settings)
            alone = [experiments._solve_chunk(algo, [inst], 6, settings)[0]
                     for inst in instances]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert [isinstance(out, RecoveryError) for out in chunk] == [False, True, False, False]
        assert chunk[3].diverged and chunk[3].iterations == 1
        for j in (0, 2, 3):
            assert np.array_equal(chunk[j].x_hat.re, alone[j].x_hat.re)
            assert np.array_equal(chunk[j].x_hat.im, alone[j].x_hat.im)
            assert chunk[j].iterations == alone[j].iterations

    @pytest.mark.parametrize("algo", KNOWN_ALGORITHMS)
    def test_zero_data_with_nan_in_a_fails_its_trial(self, algo):
        # a problem without data runs the loop, so a NaN in its A fails it
        draws = [make_instance(24, 64, 6, trial_rng(8, 0, j))[0] for j in range(3)]
        A = draws[1].A.copy()
        A[2, 7] = np.nan
        broken = replace(draws[1], A=A, y=ComplexVector.zeros(24))
        settings = RecoverySettings(t_max=40)
        with np.errstate(invalid="ignore"):
            chunk = experiments._solve_chunk(algo, [draws[0], broken, draws[2]], 6, settings)
            with pytest.raises(RecoveryError):
                experiments.run_algorithm(algo, broken, 6, settings)
        assert [isinstance(out, RecoveryError) for out in chunk] == [False, True, False]
        for out, inst in zip(chunk[::2], draws[::2]):
            alone = experiments.run_algorithm(algo, inst, 6, settings)
            assert np.array_equal(out.x_hat.re, alone.x_hat.re)
            assert np.array_equal(out.x_hat.im, alone.x_hat.im)

    @pytest.mark.parametrize("algo", KNOWN_ALGORITHMS)
    def test_problems_of_other_dimensions_rejected(self, algo):
        # the loop stacks every problem's A, so a chunk shares one (M, N)
        instances = [make_instance(24, 64, 6, trial_rng(7, 0, 0))[0],
                     make_instance(20, 64, 6, trial_rng(7, 0, 1))[0]]
        with pytest.raises(ValueError, match=r"the problems of one solve must share \(M, N\)"):
            experiments._solve_chunk(algo, instances, 6, RecoverySettings())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_bytes_do_not_depend_on_the_chunk_budget(self, monkeypatch, tmp_path,
                                                          workers):
        cfg = tiny_grid(trials=5, workers=workers)
        files = {}
        for budget in (1, 1 << 30):  # one trial per chunk; the whole cell
            monkeypatch.setattr(experiments, "CHUNK_BYTES", budget)
            for result in run_grids(cfg):
                path = tmp_path / f"{result.kind}-{budget}.csv"
                result.to_csv(path)
                files.setdefault(result.kind, []).append(path.read_bytes())
        assert all(small == large for small, large in files.values())


def per_cell_reference(cfg: GridConfig, cells, pairs=()) -> dict:
    """Per (cell index, algorithm): every trial drawn from trial_rng(seed,
    cell, j), solved alone by run_algorithm and scored in trial order, as
    (scores, summed iterations, diverged, {detector: exact matches}, trials),
    trials holding each trial's (score, iterations, diverged, {detector:
    SupportMetrics})."""
    out = {}
    for index, m, k, snr in cells:
        draws = [make_instance(m, cfg.n, k, trial_rng(cfg.base_seed, index, j),
                               snr=snr, noiseless=snr is None)[0] for j in range(cfg.trials)]
        for algo in cfg.algorithms:
            scores, iterations, diverged, trials = [], 0, 0, []
            exact = {d: 0 for a, d in pairs if a == algo}
            for inst in draws:
                try:
                    res = experiments.run_algorithm(algo, inst, k, cfg.settings)
                except RecoveryError:
                    scores.append(None)
                    iterations, diverged = iterations + cfg.settings.t_max, diverged + 1
                    trials.append((None, cfg.settings.t_max, True, {}))
                    continue
                scores.append(nmse(res.x_hat, inst.x_true))
                iterations, diverged = iterations + res.iterations, diverged + res.diverged
                metrics = {}
                for d in exact:
                    estimate = experiments.detect_support(d, res, inst.prior)
                    metrics[d] = support_metrics(inst.x_true, estimate)
                    exact[d] += metrics[d].exact_match
                trials.append((scores[-1], res.iterations, res.diverged, metrics))
            out[index, algo] = scores, iterations, diverged, exact, trials
    return out


class TestChunksSpanCells:
    # M = 14, 29, 43 at N = 48: 4, 2 and 1 draws per chunk
    BUDGET = 8 * 48 * 29 * 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_rows_equal_per_cell_reference(self, monkeypatch, workers):
        monkeypatch.setattr(experiments, "CHUNK_BYTES", self.BUDGET)
        cfg = tiny_grid(workers=workers)
        ratios = [(mr, kr) for mr in cfg.m_ratios for kr in cfg.k_ratios]
        cells = [(c, *cfg.cell_dims(mr, kr), None) for c, (mr, kr) in enumerate(ratios)]
        chunks = list(experiments._chunks(cfg, cells))
        assert max(len({draw[0] for draw in chunk}) for chunk in chunks) == 2
        assert [len(chunk) for chunk in chunks[:5]] == [4, 2, 2, 2, 2]
        recovery, support = run_grids(cfg)
        pairs = experiments.DEFAULT_DETECTOR_CONFIGS
        reference = per_cell_reference(cfg, cells, pairs)
        rows = iter(recovery.rows)
        for c, _, _, _ in cells:
            for algo in cfg.algorithms:
                scores, iterations, diverged, _, _ = reference[c, algo]
                successes = sum(s is not None and s < cfg.success_threshold for s in scores)
                row = next(rows)
                assert row[4] == algo
                assert (row[6], row[8], row[9]) == (successes, iterations / cfg.trials, diverged)
        rows = iter(support.rows)
        for c, _, _, _ in cells:
            for algo, detector in pairs:
                _, iterations, diverged, exact, _ = reference[c, algo]
                row = next(rows)
                assert row[4:6] == (algo, detector)
                assert (row[7], row[9], row[10]) == (exact[detector], iterations / cfg.trials,
                                                     diverged)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_equal_per_cell_reference(self, monkeypatch, workers):
        # trial by trial: score, iterations, diverged and each detector's
        # SupportMetrics (exact match, false positives and negatives)
        monkeypatch.setattr(experiments, "CHUNK_BYTES", self.BUDGET)
        cfg = tiny_grid(workers=workers)
        ratios = [(mr, kr) for mr in cfg.m_ratios for kr in cfg.k_ratios]
        cells = [(c, *cfg.cell_dims(mr, kr), None) for c, (mr, kr) in enumerate(ratios)]
        pairs = experiments.DEFAULT_DETECTOR_CONFIGS
        reference = per_cell_reference(cfg, cells, pairs)
        per_cell = experiments._run_cells(cfg, cells, pairs)
        assert len(per_cell) == len(cells)
        for (c, *_), records in zip(cells, per_cell):
            assert list(records) == list(cfg.algorithms)
            for algo in cfg.algorithms:
                assert records[algo] == reference[c, algo][4]
        # the detectors miss and false-alarm on some trials, so the counts are tested
        metrics = [m for by_algo in per_cell for records in by_algo.values()
                   for r in records for m in r.support.values()]
        assert any(m.false_negatives for m in metrics) and any(m.false_positives for m in metrics)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nmse_rows_equal_per_cell_reference(self, monkeypatch, workers):
        monkeypatch.setattr(experiments, "CHUNK_BYTES", self.BUDGET)
        m_list, snr_db_list = [14, 29, 14], [10.0, 30.0]
        settings = RecoverySettings(t_max=40)
        res = run_nmse_sweep(n=48, k=4, m_list=m_list, snr_db_list=snr_db_list, trials=3,
                             base_seed=3, settings=settings, workers=workers)
        cfg = GridConfig(n=48, trials=3, base_seed=3, settings=settings)
        cells = [(c, m, 4, 10.0 ** (snr_db / 10.0))
                 for c, (m, snr_db) in enumerate((m, s) for m in m_list for s in snr_db_list)]
        reference = per_cell_reference(cfg, cells)
        rows = iter(res.rows)
        for c, m, _, _ in cells:
            for algo in cfg.algorithms:
                scores, iterations, diverged, _, _ = reference[c, algo]
                v = np.array([1.0 if s is None else s for s in scores])
                row = next(rows)
                assert row[0] == m and row[2] == algo
                assert row[4:8] == (float(v.mean()), float(np.median(v)),
                                    iterations / cfg.trials, diverged)

    def test_no_loop_exceeds_the_budget_or_mixes_m(self, loops):
        # the default budget: 13 draws per loop at M=38, 6 at M=77 (N=256)
        cfg = GridConfig(n=256, m_ratios=(0.15, 0.3), k_ratios=(0.2, 0.55), trials=4,
                         base_seed=1, settings=RecoverySettings(t_max=10))
        run_grids(cfg)
        run_nmse_sweep(n=256, k=20, m_list=[77, 38], snr_db_list=[10.0, 20.0], trials=4,
                       base_seed=1, settings=cfg.settings)
        assert loops
        for ms in loops:
            assert len(set(ms)) == 1
            assert len(ms) <= max(1, experiments.CHUNK_BYTES // (8 * ms[0] * cfg.n))
        # the cells' 8 draws of M=38 share a loop; the budget splits M=77's
        assert sorted({(ms[0], len(ms)) for ms in loops}) == [(38, 8), (77, 2), (77, 6)]


def fail_on(monkeypatch, bad):
    """Make every algorithm's solve of the draw bad a RecoveryError, as a
    non-finite iterate makes it."""
    original = experiments._solve_chunk

    def failing(name, instances, *args, **kwargs):
        outs = original(name, instances, *args, **kwargs)
        return [RecoveryError("AMP produced a non-finite iterate at t=1")
                if np.array_equal(inst.y.re, bad.y.re) else out
                for inst, out in zip(instances, outs)]

    monkeypatch.setattr(experiments, "_solve_chunk", failing)


class TestFailedTrials:
    # trial 1 of cell 0 fails; its lone solve says what it would have added
    def test_grid_counts_it_diverged_at_t_max_and_never_a_success(self, monkeypatch):
        cfg = tiny_grid(m_ratios=(0.6,))
        m, k = cfg.cell_dims(0.6, 0.1)
        bad = make_instance(m, cfg.n, k, trial_rng(cfg.base_seed, 0, 1))[0]
        alone = {a: experiments.run_algorithm(a, bad, k, cfg.settings) for a in cfg.algorithms}
        assert all(nmse(out.x_hat, bad.x_true) < cfg.success_threshold
                   for out in alone.values())
        base = run_grids(cfg)
        fail_on(monkeypatch, bad)
        failed = run_grids(cfg)
        pairs = experiments.DEFAULT_DETECTOR_CONFIGS
        exact = {(a, d): support_metrics(bad.x_true, experiments.detect_support(
            d, alone[a], bad.prior)).exact_match for a, d in pairs}
        assert any(exact.values())
        for result, before in zip(failed, base):
            for row, old in zip(result.rows, before.rows):
                if row[:2] != (0.6, 0.1):
                    assert row == old
                    continue
                row, old = dict(zip(result.columns, row)), dict(zip(result.columns, old))
                out = alone[row["algorithm"]]
                lost = exact[row["algorithm"], row["detector"]] if "detector" in row else 1
                assert row["successes"] == old["successes"] - lost
                assert (round(row["mean_iterations"] * cfg.trials)
                        == round(old["mean_iterations"] * cfg.trials) - out.iterations
                        + cfg.settings.t_max)
                assert row["diverged"] == old["diverged"] + 1 - out.diverged

    def test_nmse_sweep_counts_it_as_nmse_one(self, monkeypatch):
        settings = RecoverySettings(t_max=40)
        kwargs = dict(n=48, k=4, m_list=[24], snr_db_list=[30.0, 10.0], trials=3,
                      base_seed=3, settings=settings)
        snr = 10.0 ** (30.0 / 10.0)
        draws = [make_instance(24, 48, 4, trial_rng(3, 0, j), snr=snr, noiseless=False)[0]
                 for j in range(3)]
        base = run_nmse_sweep(**kwargs)
        fail_on(monkeypatch, draws[1])
        failed = run_nmse_sweep(**kwargs)
        for row, old in zip(failed.rows, base.rows):
            if row[1] != 30.0:
                assert row == old
                continue
            alone = [experiments._solve_chunk(row[2], [inst], 4, settings)[0] for inst in draws]
            assert isinstance(alone[1], RecoveryError)
            v = np.array([1.0 if isinstance(out, RecoveryError) else nmse(out.x_hat, inst.x_true)
                          for inst, out in zip(draws, alone)])
            assert row[4:6] == (float(v.mean()), float(np.median(v)))
            assert row[4:6] != old[4:6]
            iterations = [settings.t_max if isinstance(out, RecoveryError) else out.iterations
                          for out in alone]
            assert round(row[6] * 3) == sum(iterations)
            assert row[7] == 1 + sum(not isinstance(out, RecoveryError) and out.diverged
                                     for out in alone)


class TestNmseSweep:
    def test_aggregates(self):
        res = run_nmse_sweep(
            n=48, k=4, m_list=[24], snr_db_list=[20.0], trials=4,
            base_seed=3, algorithms=("cbamp", "cbossamp"),
            settings=RecoverySettings(t_max=40),
        )
        assert len(res.rows) == 2
        for row in res.rows:
            mean, median = row[4], row[5]
            assert 0 <= median <= 10 and 0 <= mean <= 10

    def test_worker_invariance(self):
        kwargs = dict(
            n=48, k=4, m_list=[16, 24], snr_db_list=[10.0, 30.0], trials=3,
            base_seed=3, algorithms=("cbamp",), settings=RecoverySettings(t_max=30),
        )
        assert run_nmse_sweep(**kwargs).rows == run_nmse_sweep(workers=2, **kwargs).rows

    def test_validation(self, monkeypatch):
        monkeypatch.setattr(experiments, "make_instance", forbidden)
        for k, message in ((20, "need 0 <= K <= N, got K=20, N=10"),
                           (0, "Ax is zero; SNR calibration undefined")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                run_nmse_sweep(n=10, k=k, m_list=[5], snr_db_list=[10], trials=2)

    def test_numpy_integers_accepted(self):
        kwargs = dict(snr_db_list=[20.0], trials=2, base_seed=3, algorithms=("cbamp",),
                      settings=RecoverySettings(t_max=10))
        assert (run_nmse_sweep(np.int64(24), np.int64(2), [np.int64(12)], **kwargs).rows
                == run_nmse_sweep(24, 2, [12], **kwargs).rows)


class TestContour:
    @staticmethod
    def synthetic(rates_by_k, m_ratio=0.5, algorithm="cbamp"):
        rows = [
            (m_ratio, k, 1, 1, algorithm, 10, int(10 * r), r, 1.0, 0, 0)
            for k, r in rates_by_k
        ]
        return SweepResult(
            "phase-transition",
            ["m_ratio", "k_ratio", "m", "k", "algorithm", "trials", "successes",
             "success_rate", "mean_iterations", "diverged", "base_seed"],
            rows,
            {"kind": "phase-transition"},
        )

    def test_midpoint_interpolation(self):
        res = self.synthetic([(0.1, 1.0), (0.2, 1.0), (0.3, 0.0)])
        contour = extract_contour(res, 0.5)
        assert len(contour.rows) == 1
        algo, m_ratio, k_cross = contour.rows[0]
        assert (algo, m_ratio) == ("cbamp", 0.5)
        assert k_cross == pytest.approx(0.25)

    def test_all_success_column_omitted(self):
        res = self.synthetic([(0.1, 1.0), (0.2, 1.0), (0.3, 0.9)])
        assert extract_contour(res, 0.5).rows == []

    def test_monotone_column_single_crossing(self):
        res = self.synthetic([(0.1, 1.0), (0.2, 0.8), (0.3, 0.4), (0.4, 0.1)])
        contour = extract_contour(res, 0.5)
        assert len(contour.rows) == 1
        assert 0.2 < contour.rows[0][2] < 0.3

    def test_empty_rejected(self):
        empty = SweepResult("phase-transition", ["m_ratio"], [], {})
        with pytest.raises(ValueError, match="^empty sweep result$"):
            extract_contour(empty, 0.5)

    def test_level_one_allowed(self):
        res = self.synthetic([(0.1, 1.0), (0.2, 1.0), (0.3, 0.0)])
        assert extract_contour(res, 1.0).rows == [("cbamp", 0.5, 0.2)]


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [(1, 2.5), (3, -0.125)], {"kind": "test", "n": 4})
        columns, rows, meta = read_csv(path)
        assert columns == ["a", "b"]
        assert rows == [["1", "2.5"], ["3", "-0.125"]]
        assert meta["kind"] == "test" and meta["n"] == "4"

    def test_unwritable_path_raises_oserror(self):
        with pytest.raises(OSError):
            write_csv("/nonexistent-dir/x.csv", ["a"], [(1,)], {})

    def test_no_tmp_left_behind(self, tmp_path):
        write_csv(tmp_path / "ok.csv", ["a"], [(1,)], {})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


    def test_failed_row_leaves_no_tmp_and_the_target_untouched(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise ValueError("cannot format")

        path = tmp_path / "out.csv"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match="cannot format"):
            write_csv(path, ["a"], [(1,), (Unprintable(),)], {"kind": "test"})
        assert path.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestTrialRng:
    def test_streams_independent_and_stable(self):
        a = trial_rng(1, 2, 3).standard_normal(4)
        b = trial_rng(1, 2, 3).standard_normal(4)
        c = trial_rng(1, 2, 4).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
