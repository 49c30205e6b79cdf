import csv
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats

from trilevel import cli, config as config_module
from trilevel.adjoint import auto_scale_bilevel, auto_scales
from trilevel.advhpt import bundled_dataset_path
from trilevel.cli import (
    T975,
    _build_task,
    _ci_half,
    aggregate,
    main,
    run_experiment,
    verify_checks,
)
from trilevel.config import _SECTIONS, ExperimentConfig, from_ini, load_config, save_config, to_ini
from trilevel.driver import RunTrace, TraceRecord, run_bsg
from trilevel.synthetic import default_init_point, default_quadratic, make_oracle


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        problem="quadratic", n=5, m=5, t=5, spec_seed=1,
        engine="H", mode="deterministic", schedule="decaying",
        alpha_bar=0.3, beta_bar=0.2, gamma_bar=0.1,
        ul_iters=15, adaptive=True, repetitions=2, base_seed=7,
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class NanInSecondLamY:
    """Delegates to an oracle whose grad_y_f2 turns NaN once grad_z_f1 has
    been called twice. NFD's UL gradient calls grad_z_f1 once, for lam_z,
    and then grad_y_f2 only inside lam_y's CG operator, so the second UL
    gradient's lam_y solve meets a non-finite operator, whatever the
    instance does."""

    def __init__(self, inner):
        self.inner, self.capabilities, self.dims = inner, inner.capabilities, inner.dims
        self.lam_z_solves = 0

    def grad_z_f1(self, point, sample):
        self.lam_z_solves += 1
        return self.inner.grad_z_f1(point, sample)

    def grad_y_f2(self, point, sample):
        g = self.inner.grad_y_f2(point, sample)
        return g * np.nan if self.lam_z_solves >= 2 else g

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestConfig:
    def test_round_trip_semantic_identity(self, tmp_path):
        cfg = tiny_config(tmp_path, engine="AD", neumann_q=12, c0=2.0, c1=None,
                          mode="stochastic", std_grad=0.5, std_hess=0.05)
        assert from_ini(to_ini(cfg)) == cfg

    def test_save_and_load(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_docstring_example_loads(self):
        # the module docstring's example is the full key reference: with its
        # inline comments it must load, and it lists every default
        example = textwrap.dedent(config_module.__doc__.split("::", 1)[1])
        cfg = from_ini(example)
        assert cfg.validate() == ExperimentConfig()

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, problem="pentalevel").validate()
        with pytest.raises(ValueError):
            tiny_config(tmp_path, problem="adv-hpt", csv=None).validate()
        with pytest.raises(ValueError):
            tiny_config(tmp_path, repetitions=0).validate()

    @pytest.mark.parametrize("section,line", [
        ("problem", "n ="),
        ("budget", "ul_iters = auto"),
        ("run", "repetitions = none"),
        ("budget", "adaptive = maybe"),
    ])
    def test_empty_values_and_bad_booleans_rejected(self, tmp_path, section, line):
        # only Optional fields take empty/auto/none; a boolean must be one
        # of true/false/1/0/yes/no/on/off
        text = f"[{section}]\n{line}\n"
        with pytest.raises(ValueError):
            from_ini(text)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 2

    def test_optional_values_and_booleans_parse(self):
        cfg = from_ini("[engine]\ncg_max_iters = auto\nc0 = none\nc1 = 2.5\n"
                       "[problem]\ncsv =\n[budget]\nadaptive = Off\n")
        assert (cfg.cg_max_iters, cfg.c0, cfg.c1, cfg.csv, cfg.adaptive) == (None, None, 2.5, None, False)

    @pytest.mark.parametrize("text,message", [
        ("[budget]\nul_iter = 5\n[engin]\nkind = AD\n", r"unknown key 'ul_iter' in \[budget\]"),
        ("[engin]\nkind = AD\n", r"unknown section \[engin\]"),
        ("[budget]\nul_threshold = 0.01\n", "unknown key 'ul_threshold'"),
    ], ids=["misspelt_key_and_section", "misspelt_section", "removed_key"])
    def test_unknown_sections_and_keys_rejected(self, tmp_path, text, message):
        # a misspelt or removed key must not silently run the defaults
        with pytest.raises(ValueError, match=message):
            from_ini(text)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_ini_schema_covers_every_field_once(self, tmp_path):
        names = [name for section in _SECTIONS.values() for name in section]
        assert len(names) == len(set(names))
        assert set(names) == {f.name for f in fields(ExperimentConfig)}
        # every field off its default survives the round trip
        values = dict(
            problem="quartic", n=3, m=4, t=2, spec_seed=5, csv="data.csv",
            engine="AD", fd_eps=0.05, cg_max_iters=7, neumann_q=12, c0=2.5, c1=3.5,
            mode="stochastic", std_grad=0.2, std_hess=0.01,
            schedule="theorem", alpha_bar=0.5, beta_bar=0.4, gamma_bar=0.3,
            ul_iters=9, j0=2, k0=3, adaptive=False,
            repetitions=4, base_seed=99, output_dir=str(tmp_path / "elsewhere"),
            reduction="without-ul", minibatch=16, noise_test_realizations=7,
        )
        assert values.keys() == set(names)
        cfg = ExperimentConfig(**values)
        assert all(getattr(cfg, f.name) != f.default for f in fields(ExperimentConfig))
        assert from_ini(to_ini(cfg)) == cfg

    def test_h_engine_hess_noise_warns_not_errors(self, tmp_path):
        cfg = tiny_config(tmp_path, mode="stochastic", engine="H", std_hess=0.5)
        with pytest.warns(UserWarning):
            cfg.validate()


class TestAggregation:
    def test_ci_half_width_matches_t_quantile(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 1.0, 10)
        expected = stats.t.ppf(0.975, 9) * values.std(ddof=1) / math.sqrt(10)
        assert _ci_half(values) == pytest.approx(expected)

    def test_single_run_zero_width(self):
        assert _ci_half(np.array([4.2])) == 0.0

    def test_identical_runs_zero_width(self):
        assert _ci_half(np.full(10, 1.25)) == 0.0

    def test_ci_half_bit_identical_to_stats_t_ppf(self):
        # the t-quantile comes from scipy.special; scipy.stats stays the reference
        rng = np.random.default_rng(1)
        for n in range(2, 201):
            values = rng.normal(3.0, 1.0, n)
            sem = values.std(ddof=1) / math.sqrt(n)
            assert _ci_half(values) == stats.t.ppf(0.975, n - 1) * sem, n

    def _trace(self, values):
        records = [
            TraceRecord(i=i + 1, cum_ml=0, cum_ll=0, wall_s=0.1 * (i + 1),
                        f1=v, f2=0.0, f3=0.0, gnorm=0.0, J=1, K=1,
                        alpha=0.1, beta=0.1, gamma=0.1)
            for i, v in enumerate(values)
        ]
        return RunTrace(records=records)

    def test_aggregate_mean_and_ci(self):
        traces = [self._trace([10.0, 5.0]), self._trace([12.0, 7.0])]
        agg = aggregate(traces)
        np.testing.assert_allclose(agg.mean_f1, [11.0, 6.0])
        half = stats.t.ppf(0.975, 1) * np.std([10.0, 12.0], ddof=1) / math.sqrt(2)
        np.testing.assert_allclose(agg.ci_hi[0] - agg.mean_f1[0], half)


class TestRunExperiment:
    def test_outputs_and_schema(self, tmp_path):
        cfg = tiny_config(tmp_path)
        agg = run_experiment(cfg)
        out = tmp_path / "out"
        for name in ("run_0.csv", "run_1.csv", "aggregate.csv", "aggregate_time.csv",
                      "config.ini", "spec.json"):
            assert (out / name).exists()
        with open(out / "run_0.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "run_id", "i", "cum_ml", "cum_ll", "wall_s", "f1", "f2", "f3",
            "gnorm", "J", "K", "alpha", "beta", "gamma",
        ]
        assert len(rows) == 1 + cfg.ul_iters
        # parse-back round-trips exactly (repr of float)
        assert float(rows[1][5]) == agg.traces[0].records[0].f1

    def test_deterministic_mode_seed_invariant(self, tmp_path):
        a = run_experiment(tiny_config(tmp_path, base_seed=1, output_dir=str(tmp_path / "a")))
        b = run_experiment(tiny_config(tmp_path, base_seed=999, output_dir=str(tmp_path / "b")))
        np.testing.assert_array_equal(a.mean_f1, b.mean_f1)

    def test_single_repetition_zero_ci(self, tmp_path):
        agg = run_experiment(tiny_config(tmp_path, repetitions=1))
        np.testing.assert_array_equal(agg.ci_lo, agg.mean_f1)
        np.testing.assert_array_equal(agg.ci_hi, agg.mean_f1)

    def test_stochastic_ci_positive(self, tmp_path):
        cfg = tiny_config(tmp_path, mode="stochastic", std_grad=0.5, std_hess=0.0,
                          repetitions=4, ul_iters=6)
        agg = run_experiment(cfg)
        assert (agg.ci_hi - agg.ci_lo)[1:].max() > 0.0

    def test_jobs_other_than_one_rejected_before_output(self, tmp_path):
        # repetitions run serially; the keyword stays for callers passing jobs=1
        cfg = tiny_config(tmp_path)
        with pytest.raises(ValueError, match="jobs must be 1"):
            run_experiment(cfg, jobs=2)
        assert not os.path.exists(cfg.output_dir)

    def test_adv_hpt_outputs(self, tmp_path):
        cfg = tiny_config(
            tmp_path, problem="adv-hpt", csv=bundled_dataset_path(), engine="AD",
            mode="stochastic", neumann_q=5, alpha_bar=0.1, beta_bar=0.01, gamma_bar=0.1,
            ul_iters=5, repetitions=2, minibatch=64, noise_test_realizations=10,
        )
        run_experiment(cfg)
        out = tmp_path / "out"
        with open(out / "noisy_test.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run_id", "realization", "mse"]
        assert len(rows) == 1 + 2 * 10


class TestAutoScales:
    def test_without_ll_scales_its_own_operator(self, tmp_path):
        # the bilevel gradient's Neumann series inverts H_yy(f2) at z = 0,
        # whose norm the trilevel c1 (a bound on Hbar_yy) can undershoot
        spec = default_quadratic(10, 10, 10, rng=42)
        oracle, init = make_oracle(spec), default_init_point(spec, rng=43)
        cfg = tiny_config(tmp_path, n=10, m=10, t=10, spec_seed=42, engine="AD",
                          reduction="without-ll", ul_iters=3, repetitions=1)
        c1 = auto_scale_bilevel(oracle, init.replace(z=np.zeros(10)))
        _, tri_c1 = auto_scales(oracle, init, neumann_q=cfg.neumann_q)
        assert c1 == pytest.approx(8.0, rel=0.05) and tri_c1 == pytest.approx(4.0, rel=0.05)
        adjoint_cfg = _build_task(cfg).adjoint_cfg
        assert adjoint_cfg.c1 == c1
        # the bilevel gradient uses no c0: it stays unset and the run steps
        assert adjoint_cfg.c0 is None
        agg = run_experiment(cfg)
        assert len(agg.mean_f1) == cfg.ul_iters and np.all(np.isfinite(agg.mean_f1))
        # an explicit c1 still wins
        assert _build_task(replace(cfg, c1=3.0)).adjoint_cfg.c1 == 3.0

    def test_ad_scales_do_not_depend_on_fd_eps(self, tmp_path):
        # c0 is pinned and c1 comes from oracle products, so the FD step
        # reaches NFD only
        cfg = tiny_config(tmp_path, problem="adv-hpt", csv=bundled_dataset_path(), spec_seed=7,
                          engine="AD", neumann_q=30)
        scales = []
        for fd_eps in (0.1, 1e-3):
            adjoint_cfg = _build_task(replace(cfg, fd_eps=fd_eps)).adjoint_cfg
            scales.append((adjoint_cfg.c0, adjoint_cfg.c1))
        assert scales[0] == scales[1]
        assert scales[0][0] == 1.0 and scales[0][1] == pytest.approx(87.39, rel=1e-3)


class TestVerifyCommand:
    def test_default_checks_pass(self, tmp_path):
        cfg = tiny_config(tmp_path, engine="NFD", n=8, m=8, t=8)
        checks = verify_checks(cfg)
        assert all(ok for _, _, _, ok in checks)

    def test_huge_fd_eps_flagged(self, tmp_path):
        cfg = tiny_config(tmp_path, engine="NFD", fd_eps=10.0)
        checks = verify_checks(cfg)
        assert any(not ok for _, _, _, ok in checks)

    def test_corrupt_spec_surfaces_construction_error(self):
        from trilevel.synthetic import QuadraticSpec

        with pytest.raises(ValueError):
            QuadraticSpec(
                n=2, m=2, t=2,
                h_x=np.zeros(2), h_y=np.zeros(2), h_z=np.zeros(2),
                Hxx=np.array([[1.0, 0.5], [-0.5, 1.0]]),  # asymmetric
                Hyy=np.eye(2), Hzz=np.eye(2),
                Hxy=np.zeros((2, 2)), Hxz=np.zeros((2, 2)), Hyz=np.zeros((2, 2)),
            )


class TestMainEntry:
    def test_run_and_verify_exit_codes(self, tmp_path):
        cfg = tiny_config(tmp_path, ul_iters=5, repetitions=1)
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        assert main(["run", "--config", str(path)]) == 0
        assert main(["split-info", bundled_dataset_path()]) == 0

    @pytest.mark.parametrize("seed", [0, 7])
    def test_split_info_prints_fixed_split_sizes(self, capsys, seed):
        assert main(["split-info", bundled_dataset_path(), "--seed", str(seed)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "rows=200 features=5", "train=140 val=30 test=30",
        ]

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[problem]\nkind = pentalevel\n")
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("overrides,message", [
        (dict(fd_eps=-1.0), "fd_eps"),
        (dict(ul_iters=0), "budgets"),
        (dict(alpha_bar=2.0), "alpha_bar"),
        (dict(mode="stochastic", std_grad=-1.0), "noise standard deviations"),
        (dict(n=0), "n, m and t"),
        (dict(problem="adv-hpt", csv=bundled_dataset_path(), engine="NFD",
              mode="stochastic", minibatch=0), "batch_size"),
        (dict(engine="NFD", cg_max_iters=0), "cg_max_iters"),
        (dict(problem="adv-hpt", csv=bundled_dataset_path(), engine="NFD",
              noise_test_realizations=0), "noise_test_realizations"),
        (dict(engine="AD", neumann_q=-1, c0=1.0, c1=1.0), "neumann_q"),
        (dict(engine="AD", c0=-2.0, c1=1.0), "c0"),
        (dict(engine="AD", c0=1.0, c1=0.0), "c1"),
    ], ids=["fd_eps", "ul_iters", "alpha_bar", "std_grad", "n", "minibatch",
            "cg_max_iters", "realizations", "neumann_q", "c0", "c1"])
    def test_out_of_range_values_exit_2_before_output(self, tmp_path, capsys, overrides, message):
        cfg = tiny_config(tmp_path, **overrides)
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not os.path.exists(cfg.output_dir)

    def test_seed_and_out_overrides(self, tmp_path):
        cfg = tiny_config(tmp_path, ul_iters=3, repetitions=1)
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        out2 = tmp_path / "other"
        assert main(["run", "--config", str(path), "--out", str(out2), "--seed", "42"]) == 0
        assert (out2 / "aggregate.csv").exists()
        echoed = load_config(out2 / "config.ini")
        assert echoed.base_seed == 42

    def test_verify_exit_code(self, capsys):
        assert main(["verify"]) == 0
        assert "quadratic_pairwise_max" in capsys.readouterr().out

    @pytest.mark.parametrize("overrides,message", [
        (dict(n=0), "n, m and t"),
        (dict(fd_eps=-1.0), "fd_eps"),
        # verify runs the AD engine, whatever the [engine] kind is
        (dict(engine="H", neumann_q=-1), "neumann_q"),
    ], ids=["n", "fd_eps", "neumann_q"])
    def test_verify_config_errors_exit_2_before_any_check(self, tmp_path, capsys, overrides,
                                                          message):
        path = tmp_path / "cfg.ini"
        save_config(tiny_config(tmp_path, **overrides), path)
        assert main(["verify", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error: ") and message in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "--jobs", "2"],
        ["verify", "--seed", "3"],
        ["verify", "--out", "d"],
        ["grid-search", "--config", "{cfg}", "--jobs", "2"],
        ["run", "--config", "{cfg}", "--jobs", "2"],
    ], ids=["verify-jobs", "verify-seed", "verify-out", "grid-search-jobs", "run-jobs"])
    def test_flags_a_subcommand_does_not_read_exit_2(self, tmp_path, argv):
        cfg = tiny_config(tmp_path)
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        with pytest.raises(SystemExit) as exc:
            main([a.format(cfg=path) for a in argv])
        assert exc.value.code == 2
        assert not os.path.exists(cfg.output_dir)

    @pytest.mark.parametrize("engine, spec_seed, alpha_bar, gamma_bar, spy, reason, records", [
        ("NFD", 5, 0.03, 0.005, NanInSecondLamY, "operator returned non-finite values", 1),
        ("H", 3, 1.0, 0.5, None, "c A + u u^T with c = 0 has rank one", 2),
    ], ids=["NFD-cg-non-finite", "H-singular-lu"])
    def test_numerical_breakdown_aborts_its_repetition(self, tmp_path, capsys, monkeypatch, engine,
                                                       spec_seed, alpha_bar, gamma_bar, spy, reason,
                                                       records):
        # an NFD CG operator that goes non-finite (a spy oracle's, in the
        # second UL iteration) or a quartic whose Hzz(f3) is singular (g = 0
        # exactly at t = 8, leaving the rank-one u u'): the repetition aborts
        # at the same UL iteration and the run exits 1 with its trace
        if spy is not None:
            monkeypatch.setattr(cli, "make_oracle", lambda spec: spy(make_oracle(spec)))
        cfg = tiny_config(tmp_path, problem="quartic", n=8, m=8, t=8, spec_seed=spec_seed,
                          engine=engine, alpha_bar=alpha_bar, beta_bar=1.0, gamma_bar=gamma_bar,
                          j0=2, k0=5, adaptive=False, repetitions=1)
        task = _build_task(cfg)
        with np.errstate(all="ignore"):
            trace = run_bsg(cfg.reduction, task.oracle_for(cfg.base_seed), task.init,
                            task.schedule, task.budget, task.adjoint_cfg,
                            samples=task.samples_for(cfg.base_seed))
            assert reason in trace.aborted and len(trace.records) == records
            path = tmp_path / "cfg.ini"
            save_config(cfg, path)
            assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("run failed: aborted runs: [(0, '")
        assert os.path.exists(os.path.join(cfg.output_dir, "run_0.csv"))

    def test_advhpt_penalty_overflow_aborts_its_repetition(self, tmp_path, capsys):
        # lam steps past exp's range on split 1 under H: the penalty raises
        # NonFiniteError, not OverflowError, so the repetition aborts
        cfg = tiny_config(tmp_path, problem="adv-hpt", csv=bundled_dataset_path(), spec_seed=1)
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: aborted runs: [(0, '") and "exp(lam) overflows" in err
        assert os.path.exists(os.path.join(cfg.output_dir, "run_0.csv"))

    def test_module_invocation(self, tmp_path):
        cfg = tiny_config(tmp_path, ul_iters=3, repetitions=1)
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        proc = subprocess.run(
            [sys.executable, "-m", "trilevel.cli", "run", "--config", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestScipyImports:
    """scipy is imported only for stdtrit, for t-quantiles beyond the table:
    the H engine solves with numpy's LAPACK. Each check runs in a fresh
    interpreter, since this test process has imported scipy already."""

    def _fresh(self, code):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), TSG_LOG="0")
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

    def test_import_loads_no_scipy(self):
        assert self._fresh(f"import sys, trilevel.cli; print({self.LOADED})") == "[]"

    @pytest.mark.parametrize("overrides", [
        dict(problem="adv-hpt", csv=bundled_dataset_path(), engine="AD", mode="stochastic",
             neumann_q=5, alpha_bar=0.1, beta_bar=0.01, gamma_bar=0.1, ul_iters=2,
             repetitions=2, minibatch=16, noise_test_realizations=3),
        dict(engine="NFD", mode="stochastic", std_grad=0.1, std_hess=0.01, n=3, m=3, t=3,
             ul_iters=3, adaptive=False, repetitions=2),
    ], ids=["adv-hpt-AD", "quadratic-NFD"])
    def test_matrix_free_runs_load_no_scipy(self, tmp_path, overrides):
        assert self._run_loaded(tmp_path, overrides) == "[]"

    @pytest.mark.parametrize("problem", ["quadratic", "quartic"], ids=["quadratic-H", "quartic-H"])
    def test_h_engine_runs_load_no_scipy(self, tmp_path, problem):
        assert self._run_loaded(tmp_path, dict(problem=problem, ul_iters=3)) == "[]"

    def _run_loaded(self, tmp_path, overrides):
        """The scipy modules loaded after a two-repetition run through cli.main."""
        path = tmp_path / "cfg.ini"
        save_config(tiny_config(tmp_path, **overrides), path)
        out = self._fresh(f"""
            import sys
            from trilevel import cli
            assert cli.main(["run", "--config", {str(path)!r}]) == 0
            print({self.LOADED})
        """)
        assert (tmp_path / "out" / "run_1.csv").exists()
        return out

    def test_t975_table_is_stdtrit_bit_for_bit(self):
        from scipy.special import stdtrit

        assert len(T975) == 30
        for df, q in enumerate(T975, start=1):
            assert q.hex() == float(stdtrit(df, 0.975)).hex(), df


class TestGridSearch:
    def test_grid_emits_27_rows(self, tmp_path):
        cfg = tiny_config(tmp_path, n=3, m=3, t=3, ul_iters=3, repetitions=1,
                          adaptive=False)
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        assert main(["grid-search", "--config", str(path)]) == 0
        with open(tmp_path / "out" / "grid.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 27
        assert rows[0] == ["alpha_bar", "beta_bar", "gamma_bar", "final_f1"]

    def test_task_built_once_and_grid_unchanged(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, n=3, m=3, t=3, ul_iters=3, repetitions=1,
                          adaptive=False, engine="AD", neumann_q=10)
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        calls = []

        def counting_auto_scales(*args, **kwargs):
            calls.append(1)
            return auto_scales(*args, **kwargs)

        monkeypatch.setattr(cli, "auto_scales", counting_auto_scales)
        assert main(["grid-search", "--config", str(path)]) == 0
        assert len(calls) == 1

        # the same grid, with every point built from its own config
        expected = ["alpha_bar,beta_bar,gamma_bar,final_f1\n"]
        grid = (0.1, 0.01, 0.001)
        for ab in grid:
            for bb in grid:
                for gb in grid:
                    sub = replace(cfg, alpha_bar=ab, beta_bar=bb, gamma_bar=gb,
                                  output_dir=str(tmp_path / "ref"))
                    final = float(run_experiment(sub).mean_f1[-1])
                    expected.append(",".join(repr(v) for v in (ab, bb, gb, final)) + "\n")
        assert (tmp_path / "out" / "grid.csv").read_text() == "".join(expected)
