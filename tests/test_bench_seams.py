"""The benchmark's seams into the package, checked without the benchmark run.

``bench/`` drives the package from outside: it builds ``ExperimentConfig``
from each workload's settings and replaces package functions with timed
wrappers by name. A checked pass of every workload, shrunk to one seed and a
few hundred queries, runs here untraced and traced, so a change that drops
or re-signs a name the benchmark uses fails in the test suite. On the build
the passes were pinned on, each pass must also write the pinned trace bytes,
so a change meant to keep the traces bit for bit is checked here.
"""

import dataclasses
import platform
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# SHA-256 of each workload's shrunk pass (every algorithm's trace CSVs, 300
# queries, seed 0; ``PassResult.sha256``), traced or not, as written with
# numpy, BLAS and machine as in PINNED_BUILD. Another build may round the
# BLAS and LAPACK calls differently, so there the digests are not checked.
PINNED_BUILD = ("2.4.6", "scipy-openblas", "0.3.31.188.0", "x86_64")
PINNED_SHA256 = {
    "rosenbrock": "c84d6c316128956d2e90de92f88a76c1f7ca90b746de181705e365efd508d6ec",
    "quad20": "c592ebc6cbe9bf5a937396d9107a1855d8a7f1d009d19043bd767675e1745728",
    "logistic123": "01caaea399948760d08719c20c4ac878ed75adae57ae2c6a477adcfc23051cc3",
}


def build():
    """(numpy version, BLAS name, BLAS version, machine) of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, blas.get("name"), blas.get("version"), platform.machine()


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    return tracer, workloads


@pytest.fixture(params=["rosenbrock", "quad20", "logistic123"])
def workload(request, bench):
    return bench[1].WORKLOADS[request.param]


def test_every_workload_config_is_accepted(bench, workload):
    _, workloads = bench
    z = workloads.zosah_modules()
    for alg in z.harness.ALGORITHMS:
        cfg = z.harness.ExperimentConfig(alg=alg, obj="rosenbrock", max_evals=workload.max_evals,
                                         seeds=workload.seeds, jobs=1, **workload.settings)
        for key, value in workload.settings.items():
            assert getattr(cfg, key) == value


@pytest.mark.parametrize("traced", [False, True])
def test_shrunk_pass_is_correct(bench, workload, tmp_path, traced):
    tracer_mod, workloads = bench
    z = workloads.zosah_modules()
    original_run_single = z.harness.run_single
    small = dataclasses.replace(workload, max_evals=300, seeds=(0,))
    inputs = workloads.setup(small, z, tmp_path)
    tracer = tracer_mod.Tracer()
    recorder = tracer_mod.RunRecorder()
    with tracer_mod.Patcher() as patcher:
        if traced:
            tracer.install(patcher, z)
        recorder.install(patcher, z)
        res = workloads.run_pass(small, inputs, z, recorder, tmp_path, z.harness.ALGORITHMS)
    assert z.harness.run_single is original_run_single
    assert res.problems == [] and not res.failed
    assert len(res.run_sha) == len(z.harness.ALGORITHMS)
    if build() == PINNED_BUILD:
        assert res.sha256 == PINNED_SHA256[small.name]
    if traced:
        metrics = tracer.layer_metrics()
        assert metrics["oracle.queries"] == res.queries
        assert metrics["optimizer.steps"] > 0
        # every query is one metered call into one Objective.__call__, so a
        # shortcut past either (a memo, a batch path) cannot zero their times
        spans = tracer.arrays()
        objective_id = tracer.names.index(tracer_mod.OBJECTIVE_SPAN)
        assert int((spans["name"] == objective_id).sum()) == metrics["oracle.queries"]
        assert metrics["oracle.objective_s"] > 0 and metrics["oracle.meter_s"] > 0
        # the block estimator issues its q queries per step inside the span
        # the tracer attributes to rge
        step_id = tracer.names.index(tracer_mod.BASELINE_STEP_SPAN)
        baseline_steps = int((spans["name"] == step_id).sum())
        q = small.settings.get("q", z.harness.ExperimentConfig.q)
        assert baseline_steps > 0
        assert metrics["oracle.queries.rge"] == q * baseline_steps
