"""Tests for the experiment harness, trace persistence, and the CLI."""

import argparse
import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from summarize_reference import summarize as reference_summarize

import zosah
from zosah.baselines import BaselineConfig
from zosah.cli import _RUN_OPTIONS, build_parser, main
from zosah.harness import (
    ALGORITHMS,
    DATA_DIR_ENV,
    SUMMARY_HEADER,
    TRACE_HEADER,
    ExperimentConfig,
    SummaryRow,
    UsageError,
    _algorithm_config,
    initial_point,
    read_trace_csv,
    resolve_objective,
    run_experiment,
    run_single,
    summarize,
    write_summary_csv,
    write_trace_csv,
)
from zosah.oracle import DatasetFormatError, Objective, logistic_objective
from zosah.optimizer import StepStats, TraceRow, ZosahConfig, run_zosah


@pytest.fixture
def inline_pool(monkeypatch):
    """Stand in for ProcessPoolExecutor with a pool that maps in this process,
    so no worker starts; returns the keyword arguments of each pool made."""
    made = []

    class InlinePool:
        def __init__(self, **kwargs):
            made.append(kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    return made


class TestExperimentConfig:
    def test_all_algorithm_ids_accepted(self):
        assert sorted(ALGORITHMS) == sorted(
            ["zosah", "zosah-diag", "zosah-fd", "rspg", "signsgd", "adamm"]
        )
        for alg in ALGORITHMS:
            cfg = ExperimentConfig(alg=alg, obj="rosenbrock", max_evals=10)
            assert cfg.alg == alg

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alg": "newton"},
            {"seeds": ()},
            {"max_evals": 0},
            {"jobs": 0},
            {"seeds": (0, 0, 1)},
            {"seeds": (3, -1)},
            {"x0": "origin"},
            {"x0": (math.nan, 1.0)},
        ],
    )
    def test_invalid_config(self, kwargs):
        base = {"alg": "zosah", "obj": "rosenbrock", "max_evals": 100}
        base.update(kwargs)
        with pytest.raises(UsageError):
            ExperimentConfig(**base)

    @pytest.mark.parametrize("kwargs,message", [
        ({"jobs": 1.5}, "jobs must be an integer, got 1.5"),
        ({"max_evals": 50.0}, "max_evals must be an integer, got 50.0"),
        ({"seeds": (0, 1.5)}, "seeds[1] must be an integer, got 1.5"),
        ({"seeds": ("0",)}, "seeds[0] must be an integer, got '0'"),
        ({"jobs": True}, "jobs must be an integer, got True"),
        ({"max_evals": True}, "max_evals must be an integer, got True"),
        ({"seeds": (True,)}, "seeds[0] must be an integer, got True"),
        ({"seeds": (2, False)}, "seeds[1] must be an integer, got False"),
    ])
    def test_non_integral_count_names_its_field(self, kwargs, message):
        # a ValueError, which the CLI reports as a usage error (exit 2)
        base = {"alg": "zosah", "obj": "rosenbrock", "max_evals": 50, "seeds": (0, 1)}
        base.update(kwargs)
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**base)
        assert str(info.value) == message

    @pytest.mark.parametrize("kwargs,message", [
        ({"max_evals": 0}, "max_evals must be >= 1, got 0"),
        ({"seeds": (-1,)}, "seeds must be non-negative, got (-1,)"),
        ({"m": 3}, "m must be an even integer >= 2, got 3"),
        ({"T": 0}, "T must be >= 1, got 0"),
        ({"eps": 0.0}, "eps must be finite and positive, got 0.0"),
        ({"kappa": math.nan}, "kappa must be finite and positive, got nan"),
        ({"hess_radius": math.inf}, "hess_radius must be finite and positive, got inf"),
        ({"alg": "rspg", "q": 0}, "q must be >= 1, got 0"),
    ])
    def test_every_bad_setting_is_a_usage_error(self, kwargs, message):
        # the algorithm config's own checks included, with their messages
        base = {"alg": "zosah", "obj": "rosenbrock", "max_evals": 100}
        with pytest.raises(UsageError) as info:
            ExperimentConfig(**{**base, **kwargs})
        assert type(info.value) is UsageError and str(info.value) == message

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_shared_fields_reach_the_algorithm_config(self, alg):
        # non-default values for every hyperparameter ExperimentConfig has
        settings = {"max_evals": 77, "m": 4, "T": 5, "eps": 2e-3, "kappa": 0.2,
                    "hess_radius": 0.07, "q": 3, "jobs": 2}
        built = _algorithm_config(
            ExperimentConfig(alg=alg, obj="rosenbrock", seeds=(4,), **settings), 7
        )
        cls = ZosahConfig if alg.startswith("zosah") else BaselineConfig
        shared = {f.name for f in dataclasses.fields(cls)} & {
            f.name for f in dataclasses.fields(ExperimentConfig)
        }
        assert type(built) is cls and built.seed == 7 and shared <= set(settings)
        for name in shared:
            assert getattr(built, name) == settings[name] != getattr(cls, name, None), name


class TestDefaultPeriod:
    """The subspace period T defaults to 3; T = 20, the earlier default, stays
    selectable and gives the traces it gave as the default."""

    # SHA-256 of combined.csv for one 800-query seed-0 run on the synth123 set
    # at the default config with T = 20, as written when T = 20 was the default
    T20_TRACES = {
        "zosah": "3a7101af51cc1067cc3d1208cbd8c81e4a1430b1a710257c21647fc328af537a",
        "zosah-diag": "45ee9d7842e46ed906e0ae42e4725d6dc109c71140e5f6b5add81d53e6d5f151",
        "zosah-fd": "7857c692e8bfe9524cfbb708b80d911d0d58c03eb8ed32ba3752266f01a0a0ae",
    }

    def test_one_default_everywhere(self, capsys):
        assert ZosahConfig(max_evals=1).T == ExperimentConfig.T == 3
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "steps per subspace period (default 3)" in help_text

    @pytest.mark.parametrize("alg", sorted(T20_TRACES))
    def test_t20_reproduces_earlier_default_traces(self, tmp_path, synth123_path, alg):
        cfg = ExperimentConfig(alg=alg, obj=f"logistic:{synth123_path}", max_evals=800,
                               seeds=(0,), T=20)
        combined = run_experiment(cfg, tmp_path)[-1]
        assert hashlib.sha256(combined.read_bytes()).hexdigest() == self.T20_TRACES[alg]

    def test_default_reaches_logistic_target_fast(self, synth123_data):
        # queries to f < 0.9 ln 2 from x0 = 0: 153, 171 and 176 at T = 3
        # against 167, 811 and 550 at T = 20
        obj = logistic_objective(synth123_data)
        target = 0.9 * math.log(2.0)
        hits = []
        for seed in range(3):
            trace = run_zosah(obj, np.zeros(obj.dim), ZosahConfig(max_evals=1000, seed=seed))
            hits.append(next((row.cum_evals for row in trace if row.f_value < target),
                             math.inf))
        assert statistics.median(hits) <= 250, hits


class TestResolveObjective:
    def test_rosenbrock(self):
        obj = resolve_objective("rosenbrock")
        assert obj.dim == 2
        assert obj(np.array([1.0, 1.0])) == 0.0

    def test_logistic_absolute_path(self, synth123_path):
        obj = resolve_objective(f"logistic:{synth123_path}")
        assert obj.dim == 123

    def test_logistic_relative_path_uses_data_dir(self, synth123_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(synth123_path.parent))
        obj = resolve_objective(f"logistic:{synth123_path.name}")
        assert obj.dim == 123

    def test_logistic_missing_file_raises_oserror(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        with pytest.raises(OSError):
            resolve_objective("logistic:/nonexistent/never.txt")

    def test_logistic_empty_path_rejected(self):
        with pytest.raises(UsageError, match="needs a path"):
            resolve_objective("logistic:")

    def test_unknown_id_rejected(self):
        with pytest.raises(UsageError, match="unknown objective id"):
            resolve_objective("sphere")


class TestInitialPoint:
    def test_zeros(self):
        np.testing.assert_array_equal(initial_point("zeros", 4), np.zeros(4))

    def test_standard_rosenbrock(self):
        np.testing.assert_array_equal(initial_point("standard-rosenbrock", 2), [-1.2, 1.0])

    def test_standard_rosenbrock_needs_dim_two(self):
        with pytest.raises(UsageError, match="2-d"):
            initial_point("standard-rosenbrock", 3)

    def test_explicit_point(self):
        np.testing.assert_array_equal(initial_point((0.5, -1.0, 2.0), 3), [0.5, -1.0, 2.0])

    def test_explicit_point_length_mismatch(self):
        with pytest.raises(UsageError, match="dimension"):
            initial_point((0.5, -1.0), 3)

    def test_unknown_policy(self):
        with pytest.raises(UsageError, match="unknown x0 policy"):
            initial_point("origin", 2)


class TestRunSingle:
    def test_auto_start_on_rosenbrock(self):
        cfg = ExperimentConfig(alg="zosah", obj="rosenbrock", max_evals=200)
        trace = run_single(resolve_objective("rosenbrock"), cfg, seed=0)
        assert trace[0].f_value == pytest.approx(24.2)
        assert trace[0].cum_evals == 1
        assert trace[-1].cum_evals <= 200 + 27

    def test_auto_start_on_logistic_is_zero_vector(self, synth123_path):
        cfg = ExperimentConfig(
            alg="signsgd", obj=f"logistic:{synth123_path}", max_evals=30
        )
        trace = run_single(resolve_objective(cfg.obj), cfg, seed=0)
        assert trace[0].f_value == pytest.approx(math.log(2.0), abs=1e-14)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_every_algorithm_runs(self, alg):
        cfg = ExperimentConfig(alg=alg, obj="rosenbrock", max_evals=120)
        trace = run_single(resolve_objective("rosenbrock"), cfg, seed=1)
        fs = [row.f_value for row in trace]
        assert all(later <= earlier for earlier, later in zip(fs, fs[1:]))


class TestRunExperiment:
    def test_writes_per_seed_and_combined(self, tmp_path):
        # each file holds the bytes write_trace_csv gives for its seeds, in
        # cfg.seeds order, though run_experiment formats each row only once
        seeds = (2, 0, 1)
        cfg = ExperimentConfig(alg="zosah", obj="rosenbrock", max_evals=150, seeds=seeds)
        paths = run_experiment(cfg, tmp_path / "nested" / "out")
        names = [p.name for p in paths]
        assert names == ["seed_2.csv", "seed_0.csv", "seed_1.csv", "combined.csv"]
        traces = [run_single(resolve_objective("rosenbrock"), cfg, seed) for seed in seeds]
        for seed, rows, path in zip(seeds, traces, paths):
            write_trace_csv(tmp_path / "want.csv", {seed: rows})
            assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
        write_trace_csv(tmp_path / "want.csv", dict(zip(seeds, traces)))
        assert paths[-1].read_bytes() == (tmp_path / "want.csv").read_bytes()
        combined = read_trace_csv(paths[-1])
        assert list(combined) == list(seeds)
        assert combined[0] == read_trace_csv(paths[1])[0]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(alg="rspg", obj="rosenbrock", max_evals=200, seeds=(0, 2))
        first = run_experiment(cfg, tmp_path / "a")
        second = run_experiment(cfg, tmp_path / "b")
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes()

    def test_parallel_jobs_match_serial_bytes(self, tmp_path):
        serial = ExperimentConfig(alg="zosah", obj="rosenbrock", max_evals=150, seeds=(0, 1, 2))
        parallel = ExperimentConfig(
            alg="zosah", obj="rosenbrock", max_evals=150, seeds=(0, 1, 2), jobs=3
        )
        a = run_experiment(serial, tmp_path / "serial")
        b = run_experiment(parallel, tmp_path / "parallel")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("alg", ["zosah", "zosah-fd"])
    def test_parallel_logistic_jobs_match_serial_bytes(self, tmp_path, synth123_path, alg):
        # Each seed's worker process has its own copy of the logistic
        # objective, and so of its kept point.
        obj = f"logistic:{synth123_path}"
        serial = ExperimentConfig(alg=alg, obj=obj, max_evals=400, seeds=(0, 1, 2))
        parallel = ExperimentConfig(alg=alg, obj=obj, max_evals=400, seeds=(0, 1, 2), jobs=3)
        a = run_experiment(serial, tmp_path / "serial")
        b = run_experiment(parallel, tmp_path / "parallel")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_worker_count_capped_at_seed_count(self, tmp_path, inline_pool):
        cfg = ExperimentConfig(alg="rspg", obj="rosenbrock", max_evals=50, seeds=(0, 1, 2), jobs=64)
        run_experiment(cfg, tmp_path)
        assert [kwargs["max_workers"] for kwargs in inline_pool] == [3]

    def test_jobs_fork_workers_or_run_serially(self, tmp_path, monkeypatch, inline_pool):
        cfg = ExperimentConfig(alg="zosah", obj="rosenbrock", max_evals=150, seeds=(0, 1, 2), jobs=3)
        serial = run_experiment(dataclasses.replace(cfg, jobs=1), tmp_path / "serial")
        assert inline_pool == []

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["fork", "spawn", "forkserver"])
        forked = run_experiment(cfg, tmp_path / "fork")
        assert len(inline_pool) == 1
        assert inline_pool[0]["mp_context"].get_start_method() == "fork"

        # without fork no pool is made: the seeds run in this process
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        no_fork = run_experiment(cfg, tmp_path / "no_fork")
        assert len(inline_pool) == 1
        for a, b, c in zip(serial, forked, no_fork, strict=True):
            assert a.read_bytes() == b.read_bytes() == c.read_bytes()


@st.composite
def traces(draw):
    """Traces by seed as every optimizer writes them: cum_evals in
    non-decreasing order (ties included) from a first row that may come
    after the first checkpoint, and finite values of any magnitude."""
    out = {}
    for seed in range(draw(st.sampled_from([1, 2, 3, 10]))):
        start = draw(st.integers(1, 60))
        evals = itertools.accumulate(draw(st.lists(st.integers(0, 25), max_size=12)),
                                     initial=start)
        values = st.floats(allow_nan=False, allow_infinity=False)
        out[seed] = [TraceRow(i, c, draw(values)) for i, c in enumerate(evals)]
    return out


class TestRecords:
    """TraceRow, StepStats and SummaryRow are immutable NamedTuples."""

    def test_fields(self):
        assert TraceRow._fields == tuple(TRACE_HEADER.split(",")[1:])
        assert SummaryRow._fields == tuple(SUMMARY_HEADER.split(","))
        assert StepStats._fields == (
            "step", "grad_evals", "hess_evals", "search_evals", "pair_hess_evals",
            "accepted", "rho", "degraded_pairs", "repeated",
        )
        assert StepStats._field_defaults == {"repeated": False}

    def test_records_are_their_tuples(self):
        assert TraceRow(3, 40, 0.5) == (3, 40, 0.5)
        stats = StepStats(0, 2, 3, 4, (3,), True, 0.5, 1)
        assert stats == (0, 2, 3, 4, (3,), True, 0.5, 1, False)
        assert stats.total_evals == 10
        assert stats._replace(repeated=True) == (*stats[:-1], True)

    @pytest.mark.parametrize("record", [
        TraceRow(0, 1, 2.0),
        StepStats(0, 2, 0, 1, (0,), True, 1.0, 0),
        SummaryRow(100, 2.0, 1.5, 1.0, 3.0),
    ], ids=["TraceRow", "StepStats", "SummaryRow"])
    def test_immutable(self, record):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0

    @settings(max_examples=200)
    @given(rows=traces())
    def test_write_read_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        write_trace_csv(path, rows)
        back = read_trace_csv(path)
        assert back == rows
        assert [(type(r), r.f_value.hex()) for rs in back.values() for r in rs] == [
            (TraceRow, r.f_value.hex()) for rs in rows.values() for r in rs
        ]


class TestTraceCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rows = {
            3: [TraceRow(0, 1, 1.0 / 3.0), TraceRow(1, 14, 1e-17)],
            5: [TraceRow(0, 1, math.pi), TraceRow(1, 9, -2.5e300)],
        }
        path = tmp_path / "t.csv"
        write_trace_csv(path, rows)
        assert read_trace_csv(path) == rows

    def test_header_written(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(path, {0: [TraceRow(0, 1, 2.0)]})
        assert path.read_text().splitlines()[0] == TRACE_HEADER

    @pytest.mark.parametrize("seed,message", [
        (True, "seed must be an integer, got True"),
        ("a", "seed must be an integer, got 'a'"),
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_seed_key_that_is_not_a_count_rejected(self, tmp_path, seed, message):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError) as info:
            write_trace_csv(path, {0: [TraceRow(0, 1, 2.0)], seed: [TraceRow(0, 1, 3.0)]})
        assert str(info.value) == message and not path.exists()

    def test_numpy_integer_seed_key_reads_back(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(path, {np.int64(3): [TraceRow(0, 1, 2.0)]})
        assert read_trace_csv(path) == {3: [TraceRow(0, 1, 2.0)]}

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,f\n0,1\n")
        with pytest.raises(ValueError, match="missing trace header"):
            read_trace_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="missing trace header"):
            read_trace_csv(path)


MALFORMED_TRACES = {
    "no_header": ("\n0,0,1,2.5\n", 2, "missing trace header"),
    "short_row": (f"{TRACE_HEADER}\n0,0,1,2.5\n0,1,5\n", 3,
                  r"expected 4 fields \(seed,step,cum_evals,f_value\), got 3"),
    "long_row": (f"{TRACE_HEADER}\n0,0,1,2.5,7\n", 2, "expected 4 fields"),
    "text_value": (f"{TRACE_HEADER}\n0,0,1,abc\n", 2, "non-numeric f_value 'abc'"),
    "float_count": (f"{TRACE_HEADER}\n0,0,1.5,2.0\n", 2, "non-numeric cum_evals '1.5'"),
    # int and float read digit separators: "1_0" would be 10
    "digit_separator": (f"{TRACE_HEADER}\n0,0,1,2.5\n0,0,1_0,0.5\n", 3,
                        "non-numeric cum_evals '1_0'"),
    "decreasing_evals": (f"{TRACE_HEADER}\n0,0,5,2.5\n1,0,1,3.0\n0,1,3,2.0\n", 4,
                         "seed 0: cum_evals 3 below the previous row's 5"),
    "nan_value": (f"{TRACE_HEADER}\n0,0,1,1.0\n0,1,5,nan\n0,2,9,inf\n", 3,
                  "non-finite f_value 'nan'"),
    "inf_value": (f"{TRACE_HEADER}\n0,0,1,1.0\n0,1,5,inf\n", 3, "non-finite f_value 'inf'"),
    # no run writes a negative count
    "negative_seed": (f"{TRACE_HEADER}\n-1,0,1,2.5\n", 2, "negative seed '-1'$"),
    "negative_step": (f"{TRACE_HEADER}\n0,-3,5,2.5\n", 2, "negative step '-3'$"),
    "negative_evals": (f"{TRACE_HEADER}\n0,0,-5,2.5\n", 2, "negative cum_evals '-5'$"),
}


class TestMalformedTraceCsv:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
    def test_error_names_path_and_line(self, tmp_path, case):
        text, line, message = MALFORMED_TRACES[case]
        path = tmp_path / "seed_0.csv"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=f"^{path}:{line}: {message}"):
            read_trace_csv(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
    def test_summarize_exits_3_with_one_error_line(self, tmp_path, capsys, case):
        text, line, message = MALFORMED_TRACES[case]
        path = tmp_path / "seed_0.csv"
        path.write_text(text)
        code = main(["summarize", "--in", str(tmp_path), "--out", str(tmp_path / "s.csv")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}:{line}: ")


class TestSummarize:
    @pytest.mark.parametrize("rows", [{0: []}, {0: [], 4: []}], ids=["one_seed", "two_seeds"])
    def test_empty_seeds_have_no_traces(self, rows):
        with pytest.raises(ValueError, match="^no traces to summarize$"):
            summarize(rows, grid=10)

    def test_two_seed_statistics(self):
        rows = {
            1: [TraceRow(0, 1, 5.0), TraceRow(1, 100, 1.0)],
            3: [TraceRow(0, 1, 5.0), TraceRow(1, 90, 3.0)],
        }
        out = summarize(rows, grid=100)
        assert len(out) == 1
        row = out[0]
        assert row.cum_evals == 100
        assert row.mean == pytest.approx(2.0)
        assert row.std == pytest.approx(math.sqrt(2.0))
        assert (row.min, row.max) == (1.0, 3.0)

    def test_single_seed_std_is_zero(self):
        out = summarize({7: [TraceRow(0, 1, 4.0), TraceRow(1, 150, 2.0)]}, grid=100)
        assert [(r.cum_evals, r.mean, r.std) for r in out] == [(100, 4.0, 0.0)]

    def test_step_interpolation_without_lookahead(self):
        rows = {0: [TraceRow(0, 100, 5.0), TraceRow(1, 300, 1.0)]}
        out = summarize(rows, grid=100)
        assert [(r.cum_evals, r.mean) for r in out] == [(100, 5.0), (200, 5.0), (300, 1.0)]

    def test_checkpoint_before_first_value_is_omitted(self):
        rows = {
            0: [TraceRow(0, 150, 7.0), TraceRow(1, 250, 6.0)],
            1: [TraceRow(0, 50, 9.0)],
        }
        out = summarize(rows, grid=100)
        assert [r.cum_evals for r in out] == [200]
        assert out[0].mean == pytest.approx(8.0)

    def test_mean_non_increasing_for_monotone_traces(self):
        rng = np.random.default_rng(0)
        rows = {}
        for seed in range(3):
            cums = np.cumsum(rng.integers(5, 40, size=12)) + 1
            fs = np.sort(rng.uniform(0.0, 10.0, size=12))[::-1]
            rows[seed] = [
                TraceRow(i, int(c), float(f)) for i, (c, f) in enumerate(zip(cums, fs))
            ]
        means = [r.mean for r in summarize(rows, grid=25)]
        assert len(means) > 3
        assert all(later <= earlier for earlier, later in zip(means, means[1:]))

    def test_grid_beyond_last_row_gives_no_checkpoints(self):
        assert summarize({0: [TraceRow(0, 40, 1.0)]}, grid=100) == []

    def test_rows_out_of_cum_evals_order_rejected(self):
        rows = {3: [TraceRow(0, 10, 2.0), TraceRow(1, 5, 1.0)]}
        with pytest.raises(ValueError, match="seed 3"):
            summarize(rows, grid=5)

    def test_ties_take_the_last_row(self):
        rows = {0: [TraceRow(0, 1, 5.0), TraceRow(1, 10, 4.0), TraceRow(2, 10, 3.0)]}
        assert [(r.cum_evals, r.mean) for r in summarize(rows, grid=5)] == [(5, 5.0), (10, 3.0)]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="grid"):
            summarize({0: [TraceRow(0, 1, 1.0)]}, grid=0)
        with pytest.raises(ValueError, match="^grid must be an integer, got 2.5$"):
            summarize({0: [TraceRow(0, 1, 1.0), TraceRow(1, 5, 0.5)]}, grid=2.5)
        with pytest.raises(ValueError, match="^grid must be an integer, got True$"):
            summarize({0: [TraceRow(0, 1, 1.0), TraceRow(1, 5, 0.5)]}, grid=True)
        with pytest.raises(ValueError, match="no traces"):
            summarize({}, grid=100)

    @settings(max_examples=400)
    @given(rows=traces(), grid=st.integers(1, 40))
    def test_bits_of_the_per_checkpoint_loop(self, rows, grid):
        # values near the float limits overflow the sums and squares to inf
        # and nan, in both, with the same bits
        with np.errstate(all="ignore"):
            got, want = summarize(rows, grid), reference_summarize(rows, grid)
        assert [r.cum_evals for r in got] == [r.cum_evals for r in want]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert all(type(v) is float for r in got for v in r[1:])

    def test_summary_csv_format(self, tmp_path):
        path = tmp_path / "s.csv"
        write_summary_csv(path, [SummaryRow(100, 2.0, 1.5, 1.0, 3.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "cum_evals,mean,std,min,max"
        assert lines[1].startswith("100,2,")


OVERFLOW_AT_X0 = (
    "error: objective returned non-finite value inf at the start point x0 = [1e+200, 0.0]\n"
)


class TestCliRun:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "traces"
        code = main([
            "run", "--alg", "zosah", "--obj", "rosenbrock",
            "--evals", "150", "--seeds", "0,1", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 3
        assert (out / "combined.csv").exists()

    def test_explicit_x0_flag(self, tmp_path):
        out = tmp_path / "traces"
        code = main([
            "run", "--alg", "zosah", "--obj", "rosenbrock",
            "--evals", "60", "--x0", "0.5,0.5", "--out", str(out),
        ])
        assert code == 0
        trace = read_trace_csv(out / "combined.csv")[0]
        assert trace[0].f_value == pytest.approx(6.5)

    @pytest.mark.parametrize("alg", ["zosah-diag", "zosah-fd", "adamm"])
    def test_other_algorithms(self, tmp_path, alg):
        code = main([
            "run", "--alg", alg, "--obj", "rosenbrock",
            "--evals", "80", "--out", str(tmp_path / alg),
        ])
        assert code == 0

    def test_missing_required_option(self, tmp_path, capsys):
        code = main(["run", "--obj", "rosenbrock", "--evals", "50", "--out", str(tmp_path)])
        assert code == 2
        assert "required" in capsys.readouterr().err

    def test_bad_seeds(self, tmp_path):
        code = main([
            "run", "--alg", "zosah", "--obj", "rosenbrock",
            "--evals", "50", "--seeds", "a,b", "--out", str(tmp_path),
        ])
        assert code == 2

    def test_bad_x0_policy(self, tmp_path):
        code = main([
            "run", "--alg", "zosah", "--obj", "rosenbrock",
            "--evals", "50", "--x0", "origin", "--out", str(tmp_path),
        ])
        assert code == 2

    def test_missing_dataset_is_a_data_error(self, tmp_path):
        code = main([
            "run", "--alg", "zosah", "--obj", "logistic:/nonexistent/never.txt",
            "--evals", "50", "--out", str(tmp_path),
        ])
        assert code == 3

    @pytest.mark.parametrize("args,code,message", [
        (["--obj", "logistic:/nonexistent/never.txt"], 3,
         "error: [Errno 2] No such file or directory: '/nonexistent/never.txt'\n"),
        (["--obj", "rosenbrock", "--x0", "1,2,3"], 2,
         "error: explicit x0 has 3 entries but the objective has dimension 2\n"),
        (["--obj", "rosenbrock", "--x0", "1e200,0"], 3, OVERFLOW_AT_X0),
        (["--obj", "rosenbrock", "--x0", "1e200,0", "--seeds", "0,1", "--jobs", "2"], 3,
         OVERFLOW_AT_X0),
    ], ids=["missing_dataset", "x0_of_wrong_size", "failed_run", "failed_run_in_workers"])
    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys, args, code, message):
        out = tmp_path / "out"
        assert main(["run", "--alg", "zosah", "--evals", "10", "--out", str(out), *args]) == code
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_failed_run_removes_the_parents_it_made(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        out = tmp_path / "a" / "b" / "c"
        assert main(["run", "--alg", "zosah", "--obj", "rosenbrock", "--x0", "1e200,0",
                     "--evals", "10", "--out", str(out)]) == 3
        assert capsys.readouterr().err == OVERFLOW_AT_X0
        assert list(tmp_path.iterdir()) == [tmp_path / "a"]
        assert not any((tmp_path / "a").iterdir())

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_run_keeps_an_existing_directory(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        out.mkdir()
        assert main([
            "run", "--alg", "zosah", "--obj", "rosenbrock", "--x0", "1e200,0", "--evals", "10",
            "--seeds", "0,1", "--jobs", jobs, "--out", str(out),
        ]) == 3
        assert capsys.readouterr().err == OVERFLOW_AT_X0
        assert out.is_dir() and not any(out.iterdir())

    def test_unwritable_output_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr("zosah.harness.run_single", no_run)
        out = tmp_path / "out"
        out.write_text("")
        assert main(["run", "--alg", "zosah", "--obj", "rosenbrock", "--evals", "10",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
        assert out.read_text() == ""

    def test_malformed_dataset_is_a_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("+1 bogus\n")
        code = main([
            "run", "--alg", "zosah", "--obj", f"logistic:{bad}",
            "--evals", "50", "--out", str(tmp_path / "out"),
        ])
        assert code == 3

    @pytest.mark.parametrize("content", [b"+1 1:1.0\n-1 2:caf\xc3\xa9\n", b"+1 1:1.0\n-1 2:nan\n",
                                         b"+1 1:1.0\n-1 100000000000000000000:1\n"],
                             ids=["non_ascii", "nan_value", "index_above_int64"])
    def test_unreadable_dataset_values_are_data_errors(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        code = main([
            "run", "--alg", "zosah", "--obj", f"logistic:{bad}",
            "--evals", "50", "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}")


class TestCliNonFiniteSettings:
    """NaN, inf or an overflowing value where a positive setting belongs is a
    usage error (exit 2), and so is an fd eps whose square underflows to 0."""

    @pytest.mark.parametrize("args,message", [
        (["--alg", "rspg", "--eps", "nan"], "eps must be finite and positive, got nan"),
        (["--alg", "zosah", "--kappa", "nan"], "kappa must be finite and positive, got nan"),
        (["--alg", "zosah", "--eps", "nan"], "eps must be finite and positive, got nan"),
        (["--alg", "zosah", "--hess-radius", "inf"],
         "hess_radius must be finite and positive, got inf"),
        (["--alg", "zosah", "--seeds", "-1"], "seeds must be non-negative, got (-1,)"),
        (["--alg", "zosah", "--hess-radius", "1e78"],
         "hess_radius must be at most 1.2e+77, beyond which the fresh samples' Gram matrix "
         "can overflow, got 1e+78"),
        # a non-finite start point is the user's, not the objective's
        (["--alg", "zosah", "--x0", "inf,1"], "explicit x0 must be finite, got [inf, 1.0]"),
        (["--alg", "zosah", "--x0", "nan,1"], "explicit x0 must be finite, got [nan, 1.0]"),
        (["--alg", "zosah", "--x0", "1e400,1"], "explicit x0 must be finite, got [inf, 1.0]"),
        (["--alg", "zosah-fd", "--eps", "1e-200"],
         "eps must be at least about 1.6e-162 in fd mode, below which eps * eps "
         "underflows to 0, got 1e-200"),
    ])
    def test_exit_2_with_one_line_error(self, tmp_path, capsys, args, message):
        code = main(["run", "--obj", "rosenbrock", "--evals", "200",
                     "--out", str(tmp_path), *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message}\n"

    def test_fit_mode_takes_an_eps_whose_square_underflows(self, tmp_path):
        assert main(["run", "--obj", "rosenbrock", "--evals", "200", "--alg", "zosah",
                     "--eps", "1e-200", "--out", str(tmp_path)]) == 0


class TestCliSettingsBeforeData:
    """The selected algorithm's settings are checked when the experiment is
    configured: a bad one is a usage error (exit 2) before the objective
    loads. With good settings a missing dataset is still a data error
    (TestCliRun::test_missing_dataset_is_a_data_error)."""

    @pytest.mark.parametrize("args,message", [
        (["--alg", "zosah", "--T", "0"], "T must be >= 1, got 0"),
        (["--alg", "rspg", "--q", "0"], "q must be >= 1, got 0"),
        (["--alg", "zosah", "--m", "3"], "m must be an even integer >= 2, got 3"),
        (["--alg", "zosah-fd", "--hess-radius", "-1"],
         "hess_radius must be finite and positive, got -1.0"),
        (["--alg", "zosah", "--x0", "nan,1"], "explicit x0 must be finite, got [nan, 1.0]"),
        (["--alg", "zosah", "--x0", "1e400,1"], "explicit x0 must be finite, got [inf, 1.0]"),
    ])
    def test_exit_2_before_any_read(self, monkeypatch, tmp_path, capsys, args, message):
        reads = []
        real = zosah.harness.resolve_objective
        monkeypatch.setattr("zosah.harness.resolve_objective",
                            lambda obj_id: reads.append(obj_id) or real(obj_id))
        out = tmp_path / "out"
        code = main(["run", "--obj", "logistic:/nonexistent/never.txt", "--evals", "10",
                     "--out", str(out), *args])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert reads == [] and not out.exists()

    def test_only_the_selected_algorithm_is_checked(self):
        # T and hess_radius are zosah settings, q a baseline one
        ExperimentConfig(alg="rspg", obj="rosenbrock", max_evals=10, T=0, hess_radius=-1.0)
        ExperimentConfig(alg="zosah", obj="rosenbrock", max_evals=10, q=0)
        with pytest.raises(ValueError, match="^T must be >= 1, got 0$"):
            ExperimentConfig(alg="zosah-diag", obj="rosenbrock", max_evals=10, T=0)


class TestCliBadOptionText:
    """A run option's text is parsed by one parser whether it comes from a
    flag or the config file, so a bad value gives the same one-line usage
    error (exit 2) from either, and argparse prints no usage block."""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key,text,message", [
        ("evals", "abc", "option 'evals': invalid literal for int() with base 10: 'abc'"),
        ("eps", "x", "option 'eps': could not convert string to float: 'x'"),
        ("m", "2.5", "option 'm': invalid literal for int() with base 10: '2.5'"),
        ("seeds", "a,b", "seeds must be comma-separated integers, got 'a,b'"),
        ("alg", "newton", "unknown algorithm 'newton'; expected one of ('zosah', "
                          "'zosah-diag', 'zosah-fd', 'rspg', 'signsgd', 'adamm')"),
    ], ids=["evals", "eps", "m", "seeds", "alg"])
    def test_same_error_from_flag_and_config(self, tmp_path, capsys, source, key, text,
                                             message):
        options = {"alg": "zosah", "obj": "rosenbrock", "evals": "10",
                   "out": str(tmp_path / "out"), key: text}
        if source == "flag":
            argv = [arg for k, v in options.items() for arg in (f"--{k}", v)]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in options.items()))
            argv = ["--config", str(cfg)]
        assert main(["run", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not (tmp_path / "out").exists()


class TestCliRunOptions:
    """Every ExperimentConfig setting is a run option (max_evals is evals),
    so a setting added without a flag fails here."""

    @staticmethod
    def run_help() -> dict[str, str]:
        """The help text of each ``zosah run`` option, keyed by its dest."""
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        return {action.dest: action.help for action in sub.choices["run"]._actions}

    @pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig),
                             ids=lambda field: field.name)
    def test_every_setting_is_a_run_option(self, field):
        key = "evals" if field.name == "max_evals" else field.name
        assert key in _RUN_OPTIONS
        if field.default is not dataclasses.MISSING:
            assert "default" in self.run_help()[key]


class TestCliNonFiniteObjective:
    """A non-finite value is a data error (exit 3), whichever probe or start hit it."""

    @staticmethod
    def wall(x):
        return np.inf if x[0] >= 0.9 else float((x[0] - 1.0) ** 2 + x[1] ** 2)

    @pytest.mark.parametrize("alg,x0,probe", [
        ("zosah", "0.89,0", "curvature sample"),  # fresh circle crosses x[0] = 0.9
        ("zosah", "0,0", "gradient probe"),  # iterates creep up to the wall
        ("zosah-fd", "0.8985,0", "curvature probe"),  # x + 2 eps e1 crosses it
        # x + eps u crosses it for a direction u with u[0] > 0.5
        ("rspg", "0.8995,0", "random-direction probe"),
        ("signsgd", "0.8995,0", "random-direction probe"),
        ("adamm", "0.8995,0", "random-direction probe"),
    ])
    def test_exit_3_with_one_line_error(self, monkeypatch, tmp_path, capsys, alg, x0, probe):
        monkeypatch.setattr(
            "zosah.harness.resolve_objective", lambda obj_id: Objective(self.wall, 2)
        )
        code = main([
            "run", "--alg", alg, "--obj", "rosenbrock", "--x0", x0,
            "--evals", "500", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"non-finite value inf at a {probe}" in err

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_non_finite_start_value_is_fatal(self, monkeypatch, tmp_path, capsys, alg):
        monkeypatch.setattr(
            "zosah.harness.resolve_objective", lambda obj_id: Objective(lambda x: math.nan, 2)
        )
        code = main([
            "run", "--alg", alg, "--obj", "rosenbrock", "--x0", "0,1",
            "--evals", "50", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err == (
            "error: objective returned non-finite value nan at the start point x0 = [0.0, 1.0]\n"
        )
        assert not (tmp_path / "combined.csv").exists()

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_overflowing_start_value_is_fatal(self, tmp_path, capsys, alg):
        # (1e200 - 1)**2 overflows: rosenbrock gives inf instead of raising
        code = main([
            "run", "--alg", alg, "--obj", "rosenbrock", "--x0", "1e200,0",
            "--evals", "200", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err == (
            "error: objective returned non-finite value inf at the start point"
            " x0 = [1e+200, 0.0]\n"
        )

    def test_worker_error_reaches_the_cli(self, tmp_path, capsys):
        code = main([
            "run", "--alg", "zosah", "--obj", "rosenbrock", "--x0", "1e200,0",
            "--evals", "50", "--seeds", "0,1", "--jobs", "2", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err == (
            "error: objective returned non-finite value inf at the start point"
            " x0 = [1e+200, 0.0]\n"
        )


class TestCliConfigFile:
    def write_config(self, tmp_path, body):
        path = tmp_path / "exp.cfg"
        path.write_text(body)
        return path

    def test_run_from_config_only(self, tmp_path):
        out = tmp_path / "traces"
        cfg = self.write_config(
            tmp_path,
            "# benchmark settings\n"
            "alg = zosah\n"
            "obj = rosenbrock   # objective id\n"
            "evals = 120\n"
            f"out = {out}\n"
            "\n"
            "seeds = 0,1\n",
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert (out / "seed_1.csv").exists()

    def test_flag_overrides_config(self, tmp_path):
        out = tmp_path / "traces"
        cfg = self.write_config(
            tmp_path,
            f"alg = zosah\nobj = rosenbrock\nevals = 60\nout = {out}\n",
        )
        assert main(["run", "--config", str(cfg), "--evals", "600"]) == 0
        trace = read_trace_csv(out / "combined.csv")[0]
        assert trace[-1].cum_evals > 100  # the 60-eval budget would stop near 87

    def test_unknown_key(self, tmp_path):
        cfg = self.write_config(tmp_path, "alg = zosah\nlearning_rate = 0.1\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_malformed_line(self, tmp_path):
        cfg = self.write_config(tmp_path, "alg zosah\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_bad_value_type(self, tmp_path):
        cfg = self.write_config(
            tmp_path, f"alg = zosah\nobj = rosenbrock\nevals = many\nout = {tmp_path}\n"
        )
        assert main(["run", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2


class TestCliSummarize:
    def test_summarize_run_output(self, tmp_path, capsys):
        out = tmp_path / "traces"
        main([
            "run", "--alg", "zosah", "--obj", "rosenbrock",
            "--evals", "150", "--seeds", "0,1", "--out", str(out),
        ])
        summary = tmp_path / "summary.csv"
        code = main(["summarize", "--in", str(out), "--grid", "50", "--out", str(summary)])
        assert code == 0
        lines = summary.read_text().splitlines()
        assert lines[0] == "cum_evals,mean,std,min,max"
        assert len(lines) > 1

    def test_empty_directory_is_a_data_error(self, tmp_path):
        code = main([
            "summarize", "--in", str(tmp_path), "--out", str(tmp_path / "s.csv")
        ])
        assert code == 3

    @pytest.mark.parametrize("grid,message", [
        ("abc", "option 'grid': invalid literal for int() with base 10: 'abc'"),
        ("0", "grid must be >= 1, got 0"),
    ])
    def test_bad_grid_is_one_usage_line(self, tmp_path, capsys, grid, message):
        write_trace_csv(tmp_path / "seed_0.csv", {0: [TraceRow(0, 1, 3.0), TraceRow(1, 120, 1.0)]})
        summary = tmp_path / "s.csv"
        # the grid is checked before any trace is read, so a missing
        # directory does not hide it
        for in_dir in (tmp_path, tmp_path / "missing"):
            code = main(["summarize", "--in", str(in_dir), "--grid", grid, "--out", str(summary)])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n" and captured.out == ""
            assert not summary.exists()

    def test_seed_in_two_files_is_a_data_error(self, tmp_path, capsys):
        for name in ("seed_0.csv", "seed_1.csv"):
            write_trace_csv(tmp_path / name, {0: [TraceRow(0, 1, 3.0), TraceRow(1, 120, 1.0)]})
        code = main(["summarize", "--in", str(tmp_path), "--out", str(tmp_path / "s.csv")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: seed 0 is in both {tmp_path / 'seed_0.csv'} "
                       f"and {tmp_path / 'seed_1.csv'}"]

    def test_header_only_traces_are_a_data_error(self, tmp_path, capsys):
        write_trace_csv(tmp_path / "seed_0.csv", {})
        code = main(["summarize", "--in", str(tmp_path), "--out", str(tmp_path / "s.csv")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {tmp_path}: the trace CSVs hold no rows"]

    def test_falls_back_to_combined_csv(self, tmp_path):
        write_trace_csv(
            tmp_path / "combined.csv",
            {0: [TraceRow(0, 1, 3.0), TraceRow(1, 120, 1.0)]},
        )
        summary = tmp_path / "s.csv"
        assert main(["summarize", "--in", str(tmp_path), "--out", str(summary)]) == 0
        assert summary.exists()


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        out = tmp_path / "traces"
        # the child imports the package this test imported, installed or not
        src = str(Path(zosah.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "zosah", "run",
                "--alg", "zosah", "--obj", "rosenbrock",
                "--evals", "80", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "combined.csv").exists()
