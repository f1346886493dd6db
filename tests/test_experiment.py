import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdp_ifs.experiment import (
    analyze_dpr,
    best_per_target,
    emit_boxplot_summary,
    load_projects,
    run_plan,
    write_report,
)
from cpdp_ifs import predictors
from cpdp_ifs.cli import main as cli_main
from cpdp_ifs.config import (
    ConfigError,
    DatasetSpec,
    ExperimentConfig,
    Method,
    config_hash,
    load_config,
    parse_config,
)
from cpdp_ifs.corpus import (
    DPR_APPROPRIATE_MAX,
    DPR_IMPROVEMENT_THRESHOLD,
    DataError,
    Project,
    intersect_features,
    summarize,
)
from cpdp_ifs.predictors import (
    PredictionOutcome,
    RunMemo,
    enumerate_pairs,
    run_cpdp_pure,
    run_ifs_our,
    run_mix,
)
from cpdp_ifs.profiles import characterize_project
from cpdp_ifs.stats import ConfusionMatrix

import make_demo_corpus
import paper_corpus
import report_diff
from checks import report_digest
from oracles import reference_best_sources
from run import WORKLOADS
from synth import corpus_projects, load_model, planted_project, write_corpus, write_project_csv


def minimal_payload(**overrides):
    payload = {
        "datasets": [
            {"name": "a", "path": "a.csv", "family": "f"},
            {"name": "b", "path": "b.csv", "family": "f"},
        ],
        "methods": ["cpdp_pure"],
    }
    payload.update(overrides)
    return payload


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(minimal_payload())
        assert config.workers == 1
        assert config.output_dir == "results"
        assert config.preprocessing.log_filter is False
        assert config.preprocessing.normalize is True
        assert config.learner.ridge == 1e-8
        assert config.datasets[0].label_column == "bug"
        assert config.datasets[0].resolved_format() == "csv"

    def test_format_inferred_from_extension(self):
        payload = minimal_payload()
        payload["datasets"][1]["path"] = "b.ARFF"
        config = parse_config(payload)
        assert config.datasets[1].resolved_format() == "arff"

    def test_unknown_top_level_key_rejected(self):
        for key in ("extra", "seed", "repeats"):
            with pytest.raises(ConfigError, match="config has unknown keys"):
                parse_config(minimal_payload(**{key: 1}))

    def test_unknown_dataset_key_rejected(self):
        payload = minimal_payload()
        payload["datasets"][0]["surprise"] = True
        with pytest.raises(ConfigError, match=r"datasets\[0\] has unknown keys"):
            parse_config(payload)

    def test_unknown_preprocessing_key_rejected(self):
        with pytest.raises(ConfigError, match="preprocessing accepts only"):
            parse_config(minimal_payload(preprocessing={"scale": True}))

    def test_duplicate_dataset_names_rejected(self):
        payload = minimal_payload()
        payload["datasets"][1]["name"] = "a"
        with pytest.raises(ConfigError, match="unique"):
            parse_config(payload)

    def test_missing_datasets_rejected(self):
        with pytest.raises(ConfigError, match="missing 'datasets'"):
            parse_config({"methods": ["cpdp_pure"]})
        with pytest.raises(ConfigError, match="datasets must not be empty"):
            parse_config(minimal_payload(datasets=[]))

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config([1, 2])

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config(minimal_payload(methods=["cpdp_pure", "tca"]))

    def test_mix_requires_components(self):
        with pytest.raises(ConfigError, match="mix requires both"):
            parse_config(minimal_payload(methods=["cpdp_pure", "mix"]))
        with pytest.raises(ConfigError, match="mix requires both"):
            parse_config(minimal_payload(methods=["ifs_our", "mix"]))
        config = parse_config(minimal_payload(methods=["cpdp_pure", "ifs_our", "mix"]))
        assert Method.MIX in config.methods

    @pytest.mark.parametrize("key,value", [
        ("workers", 0), ("workers", -1), ("workers", "2"), ("workers", True),
        ("preprocessing.normalize", "false"), ("preprocessing.log_filter", "no"),
        ("learner.max_iterations", 2.7), ("learner.max_iterations", True),
        ("learner.ridge", float("nan")), ("learner.tolerance", float("inf")),
        ("datasets.0.alias_map", 5), ("datasets.0.alias_map", "ab"),
        ("datasets.0.feature_names", 5), ("methods", 5), ("output_dir", ""),
    ])
    def test_invalid_scalars_rejected(self, key, value):
        # ``key`` is a dotted path into the payload; list indices are digits.
        payload = minimal_payload()
        *parents, name = key.split(".")
        node = payload
        for part in parents:
            node = node[int(part)] if part.isdigit() else node.setdefault(part, {})
        node[name] = value
        with pytest.raises(ConfigError, match=name):
            parse_config(payload)

    @pytest.mark.parametrize("settings", [
        {"feature_names": ["loc", "LOC"]},
        {"feature_names": ["loc", "bug"]},
        {"feature_names": ["loc", "cbo"], "alias_map": {"cbo": "loc"}},
    ])
    def test_invalid_feature_schema_rejected(self, settings):
        # A repeated, aliased-together or label-named feature is a config
        # fault, found before any data set is read.
        payload = minimal_payload()
        payload["datasets"][1].update(settings)
        with pytest.raises(ConfigError, match=r"invalid datasets\[1\] settings: .*feature names"):
            parse_config(payload)

    def test_invalid_learner_settings_rejected(self):
        with pytest.raises(ConfigError, match="invalid learner settings"):
            parse_config(minimal_payload(learner={"ridge": -1.0}))

    def test_bad_format_rejected(self):
        payload = minimal_payload()
        payload["datasets"][0]["format"] = "xlsx"
        with pytest.raises(ConfigError, match="unknown format"):
            parse_config(payload)

    def test_missing_name_rejected(self):
        payload = minimal_payload()
        del payload["datasets"][0]["name"]
        with pytest.raises(ConfigError, match="missing 'name'"):
            parse_config(payload)


_NAMES = st.text(st.characters(min_codepoint=0x41, max_codepoint=0x24F), min_size=1, max_size=6)
_METRICS = ("loc", "cbo", "wmc", "rfc", "lcom")


@st.composite
def config_payloads(draw):
    """Valid config payloads: non-ASCII names, alias maps, any method set."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    datasets = []
    for name in names:
        features = draw(st.lists(st.sampled_from(_METRICS), max_size=3, unique=True))
        aliases = draw(st.dictionaries(
            st.text(st.characters(min_codepoint=0xC0, max_codepoint=0x24F), min_size=1, max_size=5),
            st.sampled_from(_METRICS), max_size=2,
        ))
        datasets.append({
            "name": name, "path": f"{name}.csv", "family": draw(_NAMES),
            "feature_names": features, "alias_map": aliases,
        })
    methods = draw(st.lists(st.sampled_from([m.value for m in Method]), min_size=1, unique=True))
    if "mix" in methods:
        methods += [m for m in ("cpdp_pure", "ifs_our") if m not in methods]
    learner = {
        "ridge": draw(st.floats(0.0, 1e6)),
        "max_iterations": draw(st.integers(1, 1000)),
        "tolerance": draw(st.floats(1e-12, 1.0)),
        "decision_threshold": draw(st.floats(0.01, 0.99)),
    }
    return {
        "datasets": datasets, "methods": methods, "learner": learner,
        "preprocessing": {"log_filter": draw(st.booleans()), "normalize": draw(st.booleans())},
        "workers": draw(st.integers(1, 8)),
    }


class TestConfigHash:
    def test_stable_across_instances(self):
        a = parse_config(minimal_payload())
        b = parse_config(minimal_payload())
        assert config_hash(a) == config_hash(b)

    def test_base_dir_excluded(self, tmp_path):
        a = parse_config(minimal_payload(), base_dir=None)
        b = parse_config(minimal_payload(), base_dir=tmp_path)
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_learner_change(self):
        a = parse_config(minimal_payload())
        b = parse_config(minimal_payload(learner={"ridge": 0.5}))
        assert config_hash(a) != config_hash(b)

    # Recorded with the hand-written config parser, before the reader was
    # derived from the config dataclasses.
    PINNED_PAYLOAD = {
        "datasets": [
            {"name": "a", "path": "a.csv", "family": "f", "label_column": "defects",
             "feature_names": ["loc", "cbo"],
             "alias_map": {"lines": "loc", "coupling": "cbo"}},
            {"name": "b", "path": "b.arff", "family": "g", "format": "arff"},
        ],
        "methods": ["cpdp_pure", "ifs_our", "mix"],
        "preprocessing": {"log_filter": True, "normalize": False},
        "learner": {"ridge": 2, "max_iterations": 50, "tolerance": 1e-6,
                    "decision_threshold": 0.4},
        "output_dir": "out",
        "workers": 3,
    }
    PINNED_DIGEST = "a9014c118d294829e25b3724af92b529d9844d92370473a21ef8bab8ec7e4181"

    def test_pinned_payload_digest(self):
        assert config_hash(parse_config(self.PINNED_PAYLOAD)) == self.PINNED_DIGEST

    @given(payload=config_payloads())
    def test_is_sha256_of_canonical_json(self, payload):
        config = parse_config(payload)
        canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
        assert config_hash(config) == hashlib.sha256(canonical.encode()).hexdigest()

    def test_hashlib_fallback_gives_pinned_digest(self):
        # Without the built-in SHA-256 modules the import falls back to hashlib.
        code = (
            "import hashlib, json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from cpdp_ifs import config\n"
            "assert config.sha256 is hashlib.sha256\n"
            "print(config.config_hash(config.parse_config(json.loads(sys.argv[1]))))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(self.PINNED_PAYLOAD)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == self.PINNED_DIGEST

    def test_sensitive_to_dataset_order(self):
        payload = minimal_payload()
        swapped = minimal_payload()
        swapped["datasets"] = list(reversed(swapped["datasets"]))
        assert config_hash(parse_config(payload)) != config_hash(parse_config(swapped))


class TestLoadConfig:
    def test_reads_json_and_sets_base_dir(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_payload()), encoding="utf-8")
        config = load_config(path)
        assert config.base_dir == tmp_path

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestLoadProjects:
    def test_mixed_formats_resolved_against_base_dir(self, tmp_path):
        config_path = write_corpus(tmp_path)
        config = load_config(config_path)
        projects = load_projects(config)
        assert len(projects) == 8
        names = {p.name for p in projects}
        assert "fam_b_p0" in names  # the ARFF one
        by_name = {p.name: p for p in projects}
        assert by_name["fam_a_p0"].n_features == 8
        assert by_name["fam_b_p0"].n_features == 6

    def test_missing_file_is_data_error(self, tmp_path):
        config = parse_config(minimal_payload(), base_dir=tmp_path)
        with pytest.raises(DataError, match="dataset 'a'"):
            load_projects(config)

    def test_arff_csv_parity(self, tmp_path):
        config_path = write_corpus(tmp_path)
        config = load_config(config_path)
        by_name = {p.name: p for p in load_projects(config)}
        original = {p.name: p for p in corpus_projects()}
        loaded = by_name["fam_b_p0"]
        # Values survive the 9-decimal serialization in either format.
        assert np.allclose(loaded.matrix, original["fam_b_p0"].matrix, atol=1e-8)
        assert np.array_equal(loaded.labels, original["fam_b_p0"].labels)


def scored(method, source, target, tp, fp):
    """An outcome carrying only what best-per-target selection reads: with
    no false negatives its f-measure is 2*tp / (2*tp + fp)."""
    return PredictionOutcome(
        source_name=source,
        target_name=target,
        method=Method(method),
        predicted=np.array([0]),
        confusion=ConfusionMatrix(tp=tp, fp=fp, tn=0, fn=0),
    )


class TestSelectBestPerTarget:
    def test_highest_f_wins(self):
        outcomes = [
            scored("cpdp_pure", "a", "t", 1, 3),
            scored("cpdp_pure", "b", "t", 7, 6),
            scored("cpdp_pure", "c", "t", 1, 2),
        ]
        best = best_per_target(outcomes)
        assert best[Method.CPDP_PURE]["t"].source_name == "b"

    def test_tie_goes_to_smaller_source_name(self):
        outcomes = [
            scored("cpdp_pure", "zeta", "t", 7, 6),
            scored("cpdp_pure", "alpha", "t", 7, 6),
        ]
        best = best_per_target(outcomes)
        assert best[Method.CPDP_PURE]["t"].source_name == "alpha"

    def test_methods_and_targets_kept_separate(self):
        outcomes = [
            scored("cpdp_pure", "a", "t1", 1, 3),
            scored("ifs_our", "b", "t1", 1, 8),
            scored("cpdp_pure", "c", "t2", 9, 2),
        ]
        best = best_per_target(outcomes)
        assert sum(len(targets) for targets in best.values()) == 3

    def test_selection_does_not_depend_on_input_order(self):
        # f = 0.5 from (1, 2) and from (2, 4), so every pick below is a tie on
        # f-measure and goes to the smaller source name, except the 0.8 on t2.
        outcomes = [
            scored("cpdp_pure", "b", "t1", 1, 2),
            scored("cpdp_pure", "a", "t1", 2, 4),
            scored("ifs_our", "a", "t1", 1, 2),
            scored("ifs_our", "c", "t2", 2, 4),
            scored("ifs_our", "d", "t2", 2, 1),
            scored("cpdp_pure", "c", "t2", 1, 2),
        ]
        expected = {
            Method.CPDP_PURE: {"t1": "a", "t2": "c"},
            Method.IFS_OUR: {"t1": "a", "t2": "d"},
        }
        for order in itertools.permutations(outcomes):
            best = best_per_target(order)
            picked = {m: {t: o.source_name for t, o in by_target.items()}
                      for m, by_target in best.items()}
            assert picked == expected, [(o.method.value, o.source_name, o.target_name)
                                        for o in order]


@pytest.fixture(scope="module")
def corpus_bundle(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("corpus")
    config_path = write_corpus(tmp_path)
    config = load_config(config_path)
    bundle = run_plan(config)
    return tmp_path, config, bundle


@pytest.fixture(scope="module")
def corpus_report(corpus_bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus_report")
    write_report(corpus_bundle[2], out)
    return out


class TestRunPlan:
    def test_every_planned_pair_is_accounted_for(self, corpus_bundle):
        _, config, bundle = corpus_bundle
        planned = sum(bundle.planned_counts.values())
        assert planned == len(bundle.outcomes) + len(bundle.failures)

    def test_planned_counts_match_enumeration_rule(self, corpus_bundle):
        _, _, bundle = corpus_bundle
        # families of 3, 3, 2 projects
        assert bundle.planned_counts["cpdp_pure"] == 6 + 6 + 2
        assert bundle.planned_counts["ifs_our"] == 3 * 5 + 3 * 5 + 2 * 6
        assert bundle.planned_counts["ifs_min"] == bundle.planned_counts["ifs_our"]

    def test_best_rows_have_maximal_f(self, corpus_bundle):
        _, _, bundle = corpus_bundle
        best_f = {
            (o.method.value, o.target_name): o.f_measure for o in bundle.best
        }
        for outcome in bundle.outcomes:
            key = (outcome.method.value, outcome.target_name)
            assert outcome.f_measure <= best_f[key]

    def test_mix_present_for_each_pure_target(self, corpus_bundle):
        _, _, bundle = corpus_bundle
        pure_targets = {o.target_name for o in bundle.best if o.method is Method.CPDP_PURE}
        mix_targets = {o.target_name for o in bundle.best if o.method is Method.MIX}
        assert mix_targets == pure_targets

    def test_dpr_rows_cover_pure_targets(self, corpus_bundle):
        _, _, bundle = corpus_bundle
        pure_targets = {o.target_name for o in bundle.best if o.method is Method.CPDP_PURE}
        assert {row.target for row in bundle.dpr_rows} == pure_targets
        for row in bundle.dpr_rows:
            assert row.dpr is not None
            assert row.low_dpr is (row.dpr < DPR_IMPROVEMENT_THRESHOLD)
            assert row.within_appropriate_range is (row.dpr <= DPR_APPROPRIATE_MAX)
            # 5 or 6 cross-family sources per target, so the correlation ran
            assert row.pearson_r is not None

    def test_comparisons_cover_method_pairs(self, corpus_bundle):
        _, config, bundle = corpus_bundle
        assert len(bundle.comparisons) == 6  # C(4, 2)
        labels = {(row.method_a, row.method_b) for row in bundle.comparisons}
        assert (Method.CPDP_PURE, Method.IFS_OUR) in labels

    def test_no_failures_on_well_formed_corpus(self, corpus_bundle):
        _, _, bundle = corpus_bundle
        assert bundle.failures == ()

    def test_single_class_source_recorded_as_failure(self):
        rng = np.random.default_rng(50)
        good = planted_project(rng, "good", "f", 5, 60, feature_names=("a", "b", "c", "d", "e"))
        frozen = dataclasses.replace(
            good, name="mono", labels=np.zeros(good.n_instances, dtype=int)
        )
        config = ExperimentConfig(
            datasets=(
                DatasetSpec(name="good", path="x"),
                DatasetSpec(name="mono", path="y"),
            ),
            methods=(Method.CPDP_PURE,),
        )
        bundle = run_plan(config, projects=[good, frozen])
        assert len(bundle.failures) == 1
        failure = bundle.failures[0]
        assert failure.source == "mono"
        assert "one class" in failure.error
        # the healthy direction still completed
        assert len(bundle.outcomes) == 1

    # A DataError ends its pair in a failure row; any other ValueError is a
    # program fault, which no pair may record as a property of the data.
    # ``train`` runs through the RunMemo, ``predict_proba`` does not.
    @pytest.mark.parametrize("stage", ["predict_proba", "train"])
    def test_a_program_fault_in_a_pair_is_raised(self, tmp_path, monkeypatch, stage):
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast")

        monkeypatch.setattr(predictors, stage, broken)
        config = load_config(self.two_project_config(tmp_path))
        with pytest.raises(ValueError, match="operands could not be broadcast") as info:
            run_plan(config)
        assert not isinstance(info.value, DataError)

    def test_colliding_model_file_names_exit_1_before_any_pair_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        # "a b" and "a_b" both become "a_b" in a model file name, so the
        # pairs a b->a_b and a_b->a b would save to one cpdp_pure__a_b__a_b.json.
        rng = np.random.default_rng(51)
        names = ("x", "y", "z")
        specs = []
        for i, name in enumerate(("a b", "a_b", "c")):
            write_project_csv(tmp_path / f"{i}.csv",
                              planted_project(rng, name, "f", 3, 40, feature_names=names))
            specs.append({"name": name, "path": f"{i}.csv", "family": "f"})
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"datasets": specs, "methods": ["cpdp_pure"]}))
        monkeypatch.setattr(predictors, "train", None)  # any pair that runs fails loudly
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == (
            "config error: pairs 'a b'->'a_b' and 'a_b'->'a b' "
            "would save their models to the same file\n"
        )
        assert not (tmp_path / "r").exists()

    @staticmethod
    def two_project_config(tmp_path, **settings):
        """A cpdp_pure config over two small projects, with ``settings`` as extra keys."""
        rng = np.random.default_rng(52)
        specs = []
        for name in ("a", "b"):
            write_project_csv(tmp_path / f"{name}.csv", planted_project(rng, name, "f", 3, 40))
            specs.append({"name": name, "path": f"{name}.csv", "family": "f"})
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"datasets": specs, "methods": ["cpdp_pure"], **settings}))
        return config

    @pytest.mark.parametrize("out", ["afile", "afile/r"])
    def test_output_path_through_a_file_exits_1_before_any_pair_runs(
        self, tmp_path, capsys, monkeypatch, out
    ):
        config = self.two_project_config(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        monkeypatch.setattr(predictors, "train", None)  # any pair that runs fails loudly
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: output path {str(afile)!r} exists and is not a directory\n"
        )
        assert afile.read_text() == "keep\n"

    @pytest.mark.parametrize("output_dir,out,message", [
        ("", [], "invalid config settings: output_dir must not be empty"),
        ("report", ["--out", ""], "invalid --out: output_dir must not be empty"),
    ], ids=["output_dir", "--out"])
    def test_empty_output_path_exits_1_before_any_pair_runs(
        self, tmp_path, capsys, monkeypatch, output_dir, out, message
    ):
        # An empty path is the working directory: a run would write its report
        # there and delete every models/*.json it did not write.
        config = self.two_project_config(tmp_path, output_dir=output_dir)
        keep = tmp_path / "models" / "keep.json"
        keep.parent.mkdir()
        keep.write_text("{}\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(predictors, "train", None)  # any pair that runs fails loudly
        assert cli_main(["run", "--config", str(config), *out]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert keep.read_text() == "{}\n"
        assert not (tmp_path / "results.csv").exists()

    @staticmethod
    def run_written(projects, methods, out):
        config = ExperimentConfig(
            datasets=tuple(
                DatasetSpec(name=p.name, path=f"{p.name}.csv", family=p.dataset_family)
                for p in projects
            ),
            methods=methods,
        )
        bundle = run_plan(config, projects=projects)
        write_report(bundle, out)
        return bundle

    def test_methods_without_common_targets_compare_nothing(self, tmp_path):
        # One project per family: cpdp_pure has no pair, so no target to pair with ifs_min.
        projects = [p for p in corpus_projects() if p.name.endswith("_p0")]
        bundle = self.run_written(projects, (Method.CPDP_PURE, Method.IFS_MIN), tmp_path)
        assert bundle.planned_counts == {"cpdp_pure": 0, "ifs_min": 6}
        assert (tmp_path / "comparisons.csv").read_text().splitlines()[1:] == [
            "cpdp_pure,ifs_min,0,,,,no common targets"
        ]
        assert (tmp_path / "dpr_analysis.csv").read_text().count("\n") == 1
        assert [row.split(",")[0] for row in
                (tmp_path / "boxplot_summary.csv").read_text().splitlines()[1:]] == ["ifs_min"]

    def test_without_mix_every_dpr_row_says_so(self, tmp_path):
        bundle = self.run_written(corpus_projects(), (Method.CPDP_PURE, Method.IFS_OUR), tmp_path)
        with open(tmp_path / "dpr_analysis.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["target"] for row in rows] == sorted(p.name for p in corpus_projects())
        for row in rows:
            assert row["note"].endswith("mix not run for this target")
            assert row["f_mix"] == "" and row["improvement"] == ""
        assert Method.MIX.value not in bundle.planned_counts

    def test_workers_do_not_change_results(self, corpus_bundle):
        tmp_path, config, bundle = corpus_bundle
        serial = run_plan(dataclasses.replace(config, workers=1))

        def facts(outcome):
            return (
                outcome.method,
                outcome.source_name,
                outcome.target_name,
                outcome.confusion,
                outcome.precision,
                outcome.recall,
                outcome.f_measure,
                outcome.predicted.tobytes(),
            )

        assert [facts(o) for o in serial.outcomes] == [facts(o) for o in bundle.outcomes]


class TestStageReuse:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_profile_and_model_computed_once(self, corpus_bundle, monkeypatch, workers):
        _, config, _ = corpus_bundle
        lock = threading.Lock()
        profiled: list[str] = []
        trained: list[tuple] = []
        prepared: list[tuple] = []
        real_profile, real_train = predictors.characterize_project, predictors.train
        real_prepare = predictors.preprocess_matrix

        def counting_profile(project, *args):
            with lock:
                profiled.append(project.name)
            return real_profile(project, *args)

        def counting_train(matrix, labels, feature_names, *args):
            with lock:
                trained.append((tuple(feature_names), matrix.tobytes(), labels.tobytes()))
            return real_train(matrix, labels, feature_names, *args)

        def counting_prepare(matrix, config):
            with lock:
                prepared.append(matrix.shape)
            return real_prepare(matrix, config)

        monkeypatch.setattr(predictors, "characterize_project", counting_profile)
        monkeypatch.setattr(predictors, "train", counting_train)
        monkeypatch.setattr(predictors, "preprocess_matrix", counting_prepare)
        bundle = run_plan(dataclasses.replace(config, workers=workers))
        assert bundle.failures == ()

        projects = load_projects(config)
        by_name = {p.name: p for p in projects}
        in_profile_pairs = {
            name
            for plan in enumerate_pairs(projects, Method.IFS_OUR)
            for name in (plan.source_name, plan.target_name)
        }
        assert sorted(profiled) == sorted(in_profile_pairs)

        profiles = {p.name: characterize_project(p) for p in projects}
        expected = set()
        sides = set()  # each (method, project, canonical columns) a pair prepares
        for method in (Method.CPDP_PURE, Method.IFS_OUR, Method.IFS_MIN):
            for plan in enumerate_pairs(projects, method):
                named = profiles if method is Method.IFS_OUR else by_name
                columns, _, _ = intersect_features(named[plan.source_name], named[plan.target_name])
                expected.add((method, plan.source_name, columns))
                sides.update((method, name, columns) for name in (plan.source_name, plan.target_name))
        assert len(trained) == len(expected)
        assert len(set(trained)) == len(trained)
        assert len(prepared) == len(sides)

    def test_no_memo_key_reaches_two_memos(self, corpus_bundle, monkeypatch):
        # The memo holds no lock: each method's pairs run on one pool task over
        # a memo of their own, and no key is shared between methods.
        _, config, _ = corpus_bundle
        assert set(config.methods) == set(Method)
        lock = threading.Lock()
        seen: list[tuple[RunMemo, tuple]] = []  # holding each memo keeps its id unique
        real_get = RunMemo.get

        def recording_get(memo, key, compute):
            with lock:
                seen.append((memo, key))
            return real_get(memo, key, compute)

        monkeypatch.setattr(RunMemo, "get", recording_get)
        assert run_plan(dataclasses.replace(config, workers=3)).failures == ()
        memos_of_key: dict[tuple, set[int]] = {}
        methods_of_memo: dict[int, set[Method]] = {}
        for memo, key in seen:
            memos_of_key.setdefault(key, set()).add(id(memo))
            if key[0] in ("prepared", "model"):
                methods_of_memo.setdefault(id(memo), set()).add(key[1])
        assert [key for key, ids in memos_of_key.items() if len(ids) > 1] == []
        assert sorted(map(sorted, methods_of_memo.values())) == [
            [Method.CPDP_PURE], [Method.IFS_MIN], [Method.IFS_OUR]
        ]

    def test_projects_built_per_load_and_profile_never_per_pair(self, corpus_bundle, monkeypatch):
        _, config, _ = corpus_bundle
        projects = load_projects(config)
        built: list[str] = []
        real_post_init = Project.__post_init__

        def counting_post_init(project):
            built.append(project.name)
            real_post_init(project)

        monkeypatch.setattr(Project, "__post_init__", counting_post_init)
        assert run_plan(config).failures == ()
        profiled = {
            name
            for plan in enumerate_pairs(projects, Method.IFS_OUR)
            for name in (plan.source_name, plan.target_name)
        }
        assert sorted(built) == sorted([p.name for p in projects] + list(profiled))


def degenerate_projects():
    """Two healthy projects plus an all-constant, a single-class and a
    one-row project, over two families that share 'loc' and 'cbo'."""
    rng = np.random.default_rng(11)
    names_a = ("loc", "cbo", "a_m0", "a_m1")
    names_b = ("loc", "cbo", "b_m0")
    good_a = planted_project(rng, "good_a", "fa", 4, 40, feature_names=names_a)
    flat = dataclasses.replace(
        planted_project(rng, "flat", "fa", 4, 30, feature_names=names_a),
        matrix=np.full((30, 4), 2.5),
    )
    good_b = planted_project(rng, "good_b", "fb", 3, 40, feature_names=names_b)
    mono = dataclasses.replace(
        planted_project(rng, "mono", "fb", 3, 30, feature_names=names_b),
        labels=np.zeros(30, dtype=int),
    )
    tiny = planted_project(rng, "tiny", "fb", 3, 1, feature_names=names_b)
    return [good_a, flat, good_b, mono, tiny]


ONE_CLASS = "degenerate training set: all labels belong to one class"
TOO_FEW_ROWS = "insufficient rows for normalization (need at least 2)"

# Recorded with each pair profiling and training on its own, before stage
# results were shared across pairs. Each pair must keep the first error of
# its own stages: cpdp_pure mono->tiny fails on the one-row target before
# training on the one-class source.
DEGENERATE_FAILURES = [
    ("cpdp_pure", "mono", "good_b", ONE_CLASS),
    ("cpdp_pure", "tiny", "good_b", TOO_FEW_ROWS),
    ("cpdp_pure", "tiny", "mono", TOO_FEW_ROWS),
    ("cpdp_pure", "good_b", "tiny", TOO_FEW_ROWS),
    ("cpdp_pure", "mono", "tiny", TOO_FEW_ROWS),
    ("ifs_min", "mono", "flat", ONE_CLASS),
    ("ifs_min", "tiny", "flat", TOO_FEW_ROWS),
    ("ifs_min", "mono", "good_a", ONE_CLASS),
    ("ifs_min", "tiny", "good_a", TOO_FEW_ROWS),
    ("ifs_min", "flat", "tiny", TOO_FEW_ROWS),
    ("ifs_min", "good_a", "tiny", TOO_FEW_ROWS),
    ("ifs_our", "mono", "flat", ONE_CLASS),
    ("ifs_our", "tiny", "flat", TOO_FEW_ROWS),
    ("ifs_our", "mono", "good_a", ONE_CLASS),
    ("ifs_our", "tiny", "good_a", TOO_FEW_ROWS),
    ("ifs_our", "flat", "tiny", TOO_FEW_ROWS),
    ("ifs_our", "good_a", "tiny", TOO_FEW_ROWS),
]


@pytest.mark.parametrize("workers", [1, 2])
def test_degenerate_failures_replay_per_pair(workers):
    projects = degenerate_projects()
    config = ExperimentConfig(
        datasets=tuple(DatasetSpec(name=p.name, path="unused") for p in projects),
        methods=tuple(Method),
        workers=workers,
    )
    bundle = run_plan(config, projects=projects)
    failures = [(f.method.value, f.source, f.target, f.error) for f in bundle.failures]
    assert failures == DEGENERATE_FAILURES
    assert len(bundle.outcomes) == 18


# SHA-256 of the corpus_bundle report, recorded before the report path was
# refactored. Report bytes are part of the determinism contract: change this
# only together with a deliberate change to the report format or the data.
GOLDEN_REPORT_DIGEST = "7634928dc51da385cf538e00351565a66a1f6fadbf9fe076648cad57e53d1fc5"


# The degenerate corpus's report with all four methods, recorded before the
# report tables became row dataclasses. It pins what neither golden corpus
# reaches: failure rows, empty cells, true/false cells and quoted notes.
DEGENERATE_REPORT_DIGEST = "ea780bc52ee53948f3b779bee713c732c70a98d1c489fe8cbce162a75ee87984"


class TestWriteReport:
    def test_report_matches_golden_digest(self, corpus_bundle, tmp_path):
        _, _, bundle = corpus_bundle
        write_report(bundle, tmp_path / "report")
        assert report_digest(tmp_path / "report") == GOLDEN_REPORT_DIGEST

    @pytest.mark.filterwarnings("error")
    def test_demo_report_matches_bench_golden_digest(self, tmp_path, monkeypatch):
        # The README's demo corpus at the benchmark's seed: one ARFF file
        # and workers 2. bench/golden.json records its input and report digests.
        repo = Path(__file__).resolve().parents[1]
        golden = json.loads((repo / "bench" / "golden.json").read_text(encoding="utf-8"))
        corpus = tmp_path / "demo"
        monkeypatch.setattr(sys, "argv", [str(repo / "scripts" / "make_demo_corpus.py"),
                                          "--out", str(corpus), "--seed", str(golden["seed"])])
        assert make_demo_corpus.main() == 0
        for name, digest in golden["inputs"]["demo"].items():
            if name != "config.json":  # it names the output directory
                assert hashlib.sha256((corpus / name).read_bytes()).hexdigest() == digest, name
        write_report(run_plan(load_config(corpus / "config.json")), tmp_path / "report")
        assert report_digest(tmp_path / "report") == golden["reports"]["demo"]

    def test_paper_report_matches_bench_golden_digest(self, tmp_path):
        # The benchmark's paper-shaped corpus at its seed: rows 20, 61 and 26
        # wide, and 13 targets on the asymptotic signed-rank branch.
        repo = Path(__file__).resolve().parents[1]
        golden = json.loads((repo / "bench" / "golden.json").read_text(encoding="utf-8"))
        methods = list(WORKLOADS["paper"].methods)
        config = paper_corpus.write_corpus(tmp_path / "paper", golden["seed"], methods, "report")
        for name, digest in golden["inputs"]["paper"].items():
            if name != "config.json":  # it names the output directory
                assert hashlib.sha256((config.parent / name).read_bytes()).hexdigest() == digest, name
        write_report(run_plan(load_config(config)), tmp_path / "report")
        assert report_digest(tmp_path / "report") == golden["reports"]["paper"]

    def test_degenerate_report_matches_digest(self, tmp_path):
        projects = degenerate_projects()
        config = ExperimentConfig(
            datasets=tuple(DatasetSpec(name=p.name, path="unused") for p in projects),
            methods=tuple(Method),
        )
        write_report(run_plan(config, projects=projects), tmp_path / "report")
        assert report_digest(tmp_path / "report") == DEGENERATE_REPORT_DIGEST

    def test_double_run_byte_identical(self, corpus_bundle, tmp_path):
        _, config, bundle = corpus_bundle
        first = tmp_path / "r1"
        second = tmp_path / "r2"
        write_report(bundle, first)
        write_report(run_plan(config), second)
        names = [
            "results.csv", "best_per_target.csv", "comparisons.csv",
            "dpr_analysis.csv", "boxplot_summary.csv", "failures.csv", "manifest.json",
        ]
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_results_csv_matches_bundle(self, corpus_bundle, tmp_path):
        _, _, bundle = corpus_bundle
        out = tmp_path / "report"
        write_report(bundle, out)
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "method,source,target,tp,fp,tn,fn,precision,recall,f_measure"
        assert len(lines) - 1 == len(bundle.outcomes)

    # Each table's header is its row type's field names; a renamed field
    # shows here as a diff of one line.
    @pytest.mark.parametrize("name, header", [
        ("results.csv", "method,source,target,tp,fp,tn,fn,precision,recall,f_measure"),
        ("best_per_target.csv", "method,target,source,precision,recall,f_measure"),
        ("failures.csv", "method,source,target,error"),
        ("comparisons.csv", "method_a,method_b,n_targets,statistic,p_value,cliffs_delta,note"),
        ("dpr_analysis.csv", "target,pure_source,dpr,f_pure,f_mix,improvement,low_dpr,"
                             "within_appropriate_range,pearson_r,pearson_p,note"),
        ("boxplot_summary.csv", "group,n,minimum,first_quartile,median,third_quartile,"
                                "maximum,lower_whisker,upper_whisker,outliers"),
    ])
    def test_table_header(self, corpus_report, name, header):
        with open(corpus_report / name, encoding="utf-8") as handle:
            assert handle.readline() == header + "\n"

    def test_best_rows_reproducible_from_results_csv(self, corpus_bundle, tmp_path):
        import csv as csv_mod

        _, _, bundle = corpus_bundle
        out = tmp_path / "report"
        write_report(bundle, out)
        with open(out / "results.csv", newline="") as handle:
            rows = list(csv_mod.DictReader(handle))
        reselected = reference_best_sources(rows)
        with open(out / "best_per_target.csv", newline="") as handle:
            best_rows = list(csv_mod.DictReader(handle))
        assert len(best_rows) == len(reselected)
        for row in best_rows:
            assert reselected[(row["method"], row["target"])] == row["source"]

    def test_models_saved_for_best_only(self, corpus_bundle, tmp_path):
        _, _, bundle = corpus_bundle
        out = tmp_path / "report"
        write_report(bundle, out)
        model_files = sorted(p.name for p in (out / "models").glob("*.json"))
        with_models = [o for o in bundle.best if o.model is not None]
        assert len(model_files) == len(with_models)
        # mix rows carry no model
        assert not any(name.startswith("mix") for name in model_files)

    def test_every_saved_model_is_its_best_outcomes_model(self, corpus_bundle, tmp_path):
        _, _, bundle = corpus_bundle
        out = tmp_path / "report"
        write_report(bundle, out)
        with_models = [o for o in bundle.best if o.model is not None]
        names = {f"{o.method.value}__{o.source_name}__{o.target_name}.json" for o in with_models}
        assert {p.name for p in (out / "models").iterdir()} == names
        for outcome in with_models:
            name = f"{outcome.method.value}__{outcome.source_name}__{outcome.target_name}.json"
            saved = load_model(out / "models" / name)
            assert saved.weights.tobytes() == outcome.model.weights.tobytes(), name
            assert saved.intercept == outcome.model.intercept, name
            assert saved.feature_names == outcome.model.feature_names, name
            assert saved.params == outcome.model.params, name
            assert saved.meta == outcome.model.meta, name

    def test_rerun_into_same_directory_drops_stale_models(self, corpus_bundle, tmp_path):
        _, _, bundle = corpus_bundle
        out = tmp_path / "report"
        write_report(bundle, out)
        (out / "models" / "notes.txt").write_text("kept", encoding="utf-8")
        pure = bundle._replace(
            best=tuple(o for o in bundle.best if o.method is Method.CPDP_PURE)
        )
        write_report(pure, out)
        write_report(pure, tmp_path / "fresh")
        assert sorted(p.name for p in (out / "models").iterdir()) == sorted(
            [p.name for p in (tmp_path / "fresh" / "models").iterdir()] + ["notes.txt"]
        )
        assert len(list((out / "models").glob("*.json"))) == 8

    def test_manifest_has_hash_and_no_timestamps(self, corpus_bundle, tmp_path):
        _, config, bundle = corpus_bundle
        out = tmp_path / "report"
        write_report(bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(config)
        assert manifest["completed"] == len(bundle.outcomes)
        assert manifest["projects"]["fam_a_p0"]["metrics"] == 8
        text = (out / "manifest.json").read_text()
        assert "time" not in text
        assert "date" not in text


class TestReportDiff:
    def test_report_against_itself_gives_nothing(self, corpus_report, capsys):
        assert report_diff.diff_reports(corpus_report, corpus_report) == []
        assert report_diff.main([str(corpus_report), str(corpus_report)]) == 0
        assert capsys.readouterr().out == ""

    def test_weight_moved_by_one_ulp_names_the_file_and_the_move(
        self, corpus_report, tmp_path, capsys
    ):
        moved = tmp_path / "moved"
        shutil.copytree(corpus_report, moved)
        path = sorted((moved / "models").glob("*.json"))[0]
        payload = json.loads(path.read_text(encoding="utf-8"))
        name, weight = next(
            (n, w) for n, w in zip(payload["feature_names"], payload["weights"]) if w != 0.0
        )
        scale = max(abs(w) for w in [*payload["weights"], payload["intercept"]])
        move = (math.nextafter(weight, math.inf) - weight) / scale
        payload["weights"][payload["feature_names"].index(name)] = math.nextafter(weight, math.inf)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        line = f"models/{path.name}: largest relative weight move {move:.3g} ({name!r})"
        assert report_diff.diff_reports(corpus_report, moved) == [line]
        assert report_diff.main([str(corpus_report), str(moved)]) == 1
        assert capsys.readouterr().out == line + "\n"

    def test_rewritten_best_source_names_the_target(self, corpus_report, tmp_path):
        rewritten = tmp_path / "rewritten"
        shutil.copytree(corpus_report, rewritten)
        path = rewritten / "best_per_target.csv"
        header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        method, target, source, *scores = first.split(",")
        path.write_text(
            header + ",".join([method, target, "elsewhere", *scores]) + "".join(rest),
            encoding="utf-8",
        )
        assert report_diff.diff_reports(corpus_report, rewritten) == [
            "best_per_target.csv: bytes differ",
            f"best_per_target.csv: {method} target {target!r}: "
            f"best source {source!r} -> 'elsewhere'",
        ]


def dpr_rows(outcomes, *projects):
    summaries = {p.name: summarize(p.labels, p.n_features) for p in projects}
    return analyze_dpr(outcomes, best_per_target(outcomes), summaries)


class TestAnalyzeDpr:
    @staticmethod
    def _project(rng, name, family, defect_rate, n_features=6, n=80, names=None):
        return planted_project(
            rng, name, family, n_features, n, defect_rate=defect_rate, feature_names=names
        )

    def test_exact_threshold_not_flagged(self):
        # ratios chosen so the quotient is exactly 0.64 in floating point
        rng = np.random.default_rng(51)
        names = ("a", "b", "c", "d")
        source = planted_project(rng, "s", "f", 4, 100, feature_names=names)
        target = planted_project(rng, "t", "f", 4, 100, feature_names=names)
        source = dataclasses.replace(
            source, labels=np.array([1] * 16 + [0] * 84)
        )
        target = dataclasses.replace(
            target, labels=np.array([1] * 25 + [0] * 75)
        )
        assert 0.16 / 0.25 == 0.64
        outcome = run_cpdp_pure(source, target)
        rows = dpr_rows([outcome], source, target)
        assert rows[0].dpr == pytest.approx(0.64)
        assert rows[0].low_dpr is False

    def test_undefined_dpr_noted(self):
        rng = np.random.default_rng(52)
        names = ("a", "b", "c")
        source = self._project(rng, "s", "f", 0.3, n_features=3, names=names)
        target = self._project(rng, "t", "f", 0.3, n_features=3, names=names)
        clean_target = dataclasses.replace(
            target, labels=np.zeros(target.n_instances, dtype=int)
        )
        outcome = run_cpdp_pure(source, clean_target)
        rows = dpr_rows([outcome], source, clean_target)
        assert rows[0].dpr is None
        assert "no defective instances" in rows[0].note

    def test_correlation_requires_three_sources(self):
        rng = np.random.default_rng(53)
        names = ("a", "b", "c", "d")
        source = planted_project(rng, "s", "f1", 4, 90, feature_names=names)
        target = planted_project(rng, "t", "f1", 4, 90, feature_names=names)
        pure = run_cpdp_pure(source, target)
        other = planted_project(rng, "o", "f2", 5, 90)
        profile = run_ifs_our(other, target)
        rows = dpr_rows([pure, profile], source, target, other)
        assert rows[0].pearson_r is None
        assert "fewer than 3 profile sources" in rows[0].note

    def test_zero_defect_target_with_three_profile_sources(self):
        # The correlation is missing because no source has a DPR on the
        # target, not for want of profile sources.
        rng = np.random.default_rng(55)
        names = ("a", "b", "c", "d")
        source = planted_project(rng, "b0", "b", 4, 90, feature_names=names)
        target = planted_project(rng, "b1", "b", 4, 90, feature_names=names)
        target = dataclasses.replace(target, labels=np.zeros(target.n_instances, dtype=int))
        others = [planted_project(rng, f"a{i}", "a", 5, 90) for i in range(3)]
        outcomes = [run_cpdp_pure(source, target)] + [run_ifs_our(o, target) for o in others]
        (row,) = dpr_rows(outcomes, source, target, *others)
        assert (row.dpr, row.pearson_r, row.pearson_p) == (None, None, None)
        assert row.note == (
            "DPR undefined: target project has no defective instances; "
            "mix not run for this target; no DPR for any profile source; no correlation"
        )

    def test_mix_improvement_recorded(self):
        rng = np.random.default_rng(54)
        names = ("a", "b", "c", "d", "e")
        source = planted_project(rng, "s", "f1", 5, 120, feature_names=names)
        target = planted_project(rng, "t", "f1", 5, 100, feature_names=names)
        other = planted_project(rng, "o", "f2", 7, 110)
        pure = run_cpdp_pure(source, target)
        profile = run_ifs_our(other, target)
        fused = run_mix(pure, profile, target.labels)
        rows = dpr_rows([pure, profile, fused], source, target, other)
        assert rows[0].f_mix == fused.f_measure
        assert rows[0].improvement == pytest.approx(fused.f_measure - pure.f_measure)


class TestEmitBoxplotSummary:
    def test_hand_worked_group_with_outlier(self):
        (summary,) = emit_boxplot_summary({"g": [1.0, 2.0, 3.0, 4.0, 100.0]})
        assert summary.first_quartile == 2.0
        assert summary.median == 3.0
        assert summary.third_quartile == 4.0
        assert summary.outliers == (100.0,)
        assert summary.lower_whisker == 1.0
        assert summary.upper_whisker == 4.0
        assert summary.minimum == 1.0
        assert summary.maximum == 100.0

    def test_constant_group_has_degenerate_box(self):
        (summary,) = emit_boxplot_summary({"g": [5.0] * 7})
        assert summary.first_quartile == 5.0
        assert summary.median == 5.0
        assert summary.third_quartile == 5.0
        assert summary.outliers == ()
        assert summary.lower_whisker == 5.0 == summary.upper_whisker

    def test_single_element_group(self):
        (summary,) = emit_boxplot_summary({"g": [2.5]})
        assert summary.n == 1
        assert summary.median == 2.5
        assert summary.outliers == ()

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty group"):
            emit_boxplot_summary({"g": []})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            emit_boxplot_summary({"g": [1.0, float("nan")]})

    def test_no_outliers_whiskers_at_extremes(self):
        (summary,) = emit_boxplot_summary({"g": [1.0, 2.0, 3.0, 4.0, 5.0]})
        assert summary.lower_whisker == 1.0
        assert summary.upper_whisker == 5.0
        assert summary.outliers == ()

    def test_group_order_preserved(self):
        summaries = emit_boxplot_summary({"b": [1.0], "a": [2.0]})
        assert [s.group for s in summaries] == ["b", "a"]


class TestCliChild:
    """A ``cpdp-ifs`` child process, which ends through ``entrypoint``, writes
    and prints what an in-process ``main`` does."""

    @staticmethod
    def child(*args):
        return subprocess.run(
            [sys.executable, "-m", "cpdp_ifs.cli", *args], capture_output=True, text=True
        )

    def test_run_child_writes_golden_report(self, corpus_bundle, tmp_path):
        corpus, _, bundle = corpus_bundle
        result = self.child("run", "--config", str(corpus / "config.json"),
                            "--out", str(tmp_path / "report"))
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            f"report written to {tmp_path / 'report'}\n"
            f"pairs completed: {len(bundle.outcomes)}, failed: 0\n"
        )
        assert report_digest(tmp_path / "report") == GOLDEN_REPORT_DIGEST

    def test_ingest_child_prints_what_main_prints(self, corpus_bundle, capsys):
        corpus, _, _ = corpus_bundle
        argv = ["ingest", "--config", str(corpus / "config.json")]
        assert cli_main(argv) == 0
        result = self.child(*argv)
        assert result.returncode == 0, result.stderr
        assert result.stdout == capsys.readouterr().out

    def test_degenerate_run_child_exits_3_with_one_line_per_failure(self, tmp_path):
        specs = []
        for project in degenerate_projects():
            write_project_csv(tmp_path / f"{project.name}.csv", project)
            specs.append({"name": project.name, "path": f"{project.name}.csv",
                          "family": project.dataset_family})
        (tmp_path / "config.json").write_text(json.dumps({"datasets": specs}), encoding="utf-8")
        result = self.child("run", "--config", str(tmp_path / "config.json"),
                            "--out", str(tmp_path / "report"))
        assert result.returncode == 3
        assert result.stderr.splitlines() == [
            f"failed: {method} {source}->{target}: {error}"
            for method, source, target, error in DEGENERATE_FAILURES
        ]

    @pytest.mark.parametrize("fault", ["ill-typed config key", "malformed data set"])
    def test_child_exits_with_main_status_and_stderr(self, tmp_path, capsys, fault):
        data = tmp_path / "p.csv"
        data.write_text("a,b,bug\n1,2,0\n3,inf,1\n", encoding="utf-8")
        spec = {"name": "p", "path": "p.csv"}
        if fault == "ill-typed config key":
            spec["alias_map"] = 5
            status, stderr = 1, "config error: datasets[0].alias_map must be an object, not 5\n"
        else:
            status, stderr = 2, (
                f"data error: dataset 'p': {data}: data row 2: non-finite value 'inf' in column 'b'\n"
            )
        (tmp_path / "config.json").write_text(json.dumps({"datasets": [spec]}), encoding="utf-8")
        argv = ["ingest", "--config", str(tmp_path / "config.json")]
        result = self.child(*argv)
        assert (result.returncode, result.stderr) == (status, stderr)
        assert cli_main(argv) == status
        assert capsys.readouterr().err == stderr


class TestBenchLayers:
    """The benchmark times each layer by wrapping names in ``cpdp_ifs``
    modules; a name renamed away would drop its metric without an error."""

    # Wrapped by the benchmark but never bound in predictors (ROADMAP item 1).
    KNOWN_MISSING = {"cpdp_ifs.predictors.classify"}

    def test_every_boundary_is_found(self):
        repo = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(repo / "src"), str(repo / "bench")])
        # install patches module globals, so it runs in a child of its own.
        result = subprocess.run(
            [sys.executable, "-c",
             "import json, layers, tracing; print(json.dumps(layers.install(tracing.Tracer())))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert set(json.loads(result.stdout)) <= self.KNOWN_MISSING

    def test_a_traced_run_calls_every_boundary(self, tmp_path):
        # A boundary can exist and still be bypassed, for example by a caller
        # that bound the name before the benchmark wrapped it.
        repo = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(repo / "src"), str(repo / "bench")])
        env = {**os.environ, "PYTHONPATH": path}
        spans = tmp_path / "spans.json"
        config = write_corpus(tmp_path)
        traced = subprocess.run(
            [sys.executable, str(repo / "bench" / "layers.py"), str(spans),
             "run", "--config", str(config), "--out", str(tmp_path / "report")],
            capture_output=True, text=True, env=env,
        )
        assert traced.returncode == 0, traced.stderr
        result = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, layers, tracing\n"
             "payload = json.load(open(sys.argv[1], encoding='utf-8'))\n"
             "print(json.dumps(layers.metrics([tracing.Span(**s) for s in payload['spans']])[1]))",
             str(spans)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        details = json.loads(result.stdout)
        assert [line for line in details if line.startswith("unmeasured")] == []
        assert set(json.loads(spans.read_text(encoding="utf-8"))["missing"]) <= self.KNOWN_MISSING
