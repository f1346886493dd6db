"""The run oracle: a whole ``run_plan`` against pair-by-pair library calls.

Hypothesis builds small corpora: families of projects whose metric sets
share a few names across families, with single-class projects, one-row
projects and constant columns among them. The run must agree with a
memo-free call of each planned pair bit for bit, carry each failing pair's
own message, and select, fuse, compare and relate by DPR what the plain
rules and ``stats`` calls give for those outcomes.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdp_ifs.config import DatasetSpec, ExperimentConfig, Method
from cpdp_ifs.corpus import FeatureSchema, Project, dpr
from cpdp_ifs.experiment import ComparisonRow, run_plan
from cpdp_ifs.predictors import run_cpdp_pure, run_ifs_min, run_ifs_our, run_mix
from cpdp_ifs.stats import compare_paired, pearson

from oracles import reference_best_sources

# Few values, so that ties, modes and zero spreads occur.
GRID = (0.0, 1.0, 2.0, 5.0)
EXAMPLES = 20
SHARED = ("loc", "cbo")
RUNNERS = {
    Method.CPDP_PURE: run_cpdp_pure,
    Method.IFS_MIN: run_ifs_min,
    Method.IFS_OUR: run_ifs_our,
}


@st.composite
def corpora(draw):
    """1-3 families of 1-4 projects, 1-6 metrics each, 0-2 of them shared names."""
    projects = []
    for f in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 6))
        shared = SHARED[: draw(st.integers(0, min(2, width)))]
        names = shared + tuple(f"f{f}_m{i}" for i in range(width - len(shared)))
        for p in range(draw(st.integers(1, 4))):
            rows = draw(st.integers(1, 30))
            # Cells from a generator that hypothesis seeds: drawing 180 of them
            # one by one would take most of the test's time.
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            matrix = rng.choice(GRID, (rows, width))
            labels = rng.integers(0, 2, rows) * draw(st.sampled_from((0, 1, 1, 1)))
            projects.append(Project(f"f{f}_p{p}", f"f{f}", FeatureSchema(names), matrix, labels))
    return projects


def bits(outcome):
    """Everything an outcome holds, in a form that compares bit for bit."""
    model = outcome.model
    return (
        outcome.method, outcome.source_name, outcome.target_name,
        outcome.predicted.tobytes(), outcome.confusion,
        None if model is None else (
            model.weights.tobytes(), model.intercept.hex(), model.feature_names,
            model.params, model.meta,
        ),
    )


def attempt(call, *args):
    """``call(*args)`` as ``(outcome, None)``, or ``(None, message)`` if it raised."""
    try:
        return call(*args), None
    except ValueError as exc:
        return None, str(exc)


def planned(projects, method):
    """The family rule, by brute force: pure within a family, IFS across."""
    return [
        (s, t) for s, t in itertools.permutations(projects, 2)
        if (s.dataset_family == t.dataset_family) == (method is Method.CPDP_PURE)
    ]


@settings(max_examples=EXAMPLES)
@given(corpora())
def test_run_matches_pair_by_pair_calls(projects):
    config = ExperimentConfig(
        datasets=tuple(DatasetSpec(name=p.name, path="unused") for p in projects),
        methods=tuple(Method),
    )
    bundle = run_plan(config, projects=projects)
    by_name = {p.name: p for p in projects}
    ratio = {p.name: sum(int(v) for v in p.labels) / p.n_instances for p in projects}

    # Every planned pair, run on its own: the run's outcome or its error.
    expected, done = {}, {}
    for method, runner in RUNNERS.items():
        pairs = planned(projects, method)
        assert bundle.planned_counts[method.value] == len(pairs)
        for source, target in pairs:
            outcome, error = attempt(runner, source, target)
            key = (method, source.name, target.name)
            expected[key] = error if outcome is None else bits(outcome)
            if outcome is not None:
                done[key] = outcome

    # Best source per method and target, by the plain rule.
    rows = [
        {"method": m.value, "target": t, "source": s, "f_measure": repr(o.f_measure)}
        for (m, s, t), o in done.items()
    ]
    best = {}
    for (method, target), source in reference_best_sources(rows).items():
        best.setdefault(Method(method), {})[target] = done[Method(method), source, target]

    # Mix fuses each target's best pure and best profile outcome.
    mixes = {}
    pures, profiles = best.get(Method.CPDP_PURE, {}), best.get(Method.IFS_OUR, {})
    for target in pures.keys() & profiles.keys():
        pure, profile = pures[target], profiles[target]
        outcome, error = attempt(run_mix, pure, profile, by_name[target].labels)
        source = f"{pure.source_name}+{profile.source_name}"
        expected[Method.MIX, source, target] = error if outcome is None else bits(outcome)
        if outcome is not None:
            mixes[target] = outcome
    best[Method.MIX] = mixes

    actual = {(o.method, o.source_name, o.target_name): bits(o) for o in bundle.outcomes}
    actual.update({(f.method, f.source, f.target): f.error for f in bundle.failures})
    assert len(actual) == len(bundle.outcomes) + len(bundle.failures)
    assert actual == expected
    assert {(o.method, o.target_name): bits(o) for o in bundle.best} == {
        (m, t): bits(o) for m, targets in best.items() for t, o in targets.items()
    }

    # The comparisons, from compare_paired over the common targets' best scores.
    comparisons = []
    for a, b in itertools.combinations(config.methods, 2):
        common = sorted(best.get(a, {}).keys() & best.get(b, {}).keys())
        row = ComparisonRow(a, b, len(common), None, None, None, "no common targets")
        if common:
            x = [best[a][t].f_measure for t in common]
            y = [best[b][t].f_measure for t in common]
            result, error = attempt(compare_paired, np.array(x), np.array(y))
            row = row._replace(note=error) if result is None else row._replace(
                statistic=result.statistic, p_value=result.p_value,
                cliffs_delta=result.cliffs_delta, note=result.method_note,
            )
        comparisons.append(row)
    assert list(bundle.comparisons) == comparisons

    # The DPR rows, one per pure target, from dpr and pearson.
    assert [row.target for row in bundle.dpr_rows] == sorted(pures)
    for row in bundle.dpr_rows:
        pure = pures[row.target]
        value, _ = attempt(dpr, ratio[pure.source_name], ratio[row.target])
        mix = mixes.get(row.target)
        assert (row.pure_source, row.dpr, row.f_pure) == (pure.source_name, value, pure.f_measure)
        assert row.f_mix == (None if mix is None else mix.f_measure)
        assert row.improvement == (None if mix is None else mix.f_measure - pure.f_measure)
        assert row.low_dpr == (None if value is None else value < 0.64)
        assert row.within_appropriate_range == (None if value is None else value <= 2.5)
        runs = sorted(
            (o for (m, _, t), o in done.items() if m is Method.IFS_OUR and t == row.target),
            key=lambda o: o.source_name,
        ) if ratio[row.target] > 0 else []
        correlation = (None, None)
        if len(runs) >= 3:
            result, _ = attempt(
                pearson,
                np.array([dpr(ratio[o.source_name], ratio[row.target]) for o in runs]),
                np.array([o.f_measure for o in runs]),
            )
            correlation = result or correlation
        assert (row.pearson_r, row.pearson_p) == correlation
