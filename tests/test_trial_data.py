from __future__ import annotations

import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

from multiendpoint import (
    ColumnMapping,
    CsvParseError,
    DerivationConfig,
    Direction,
    EmptyGroupError,
    EndpointKind,
    EndpointSpec,
    InvalidContrastError,
    InvalidDataError,
    MissingColumnError,
    SchemaMismatchError,
    TrialDataset,
    baseline_summary,
    derive_endpoints,
    load_trial_csv,
    parse_contrast,
    validate_hierarchy,
)
from support import (
    FLAG,
    SCORE,
    SURV,
    Subject,
    Tte,
    Value,
    dataset,
    random_integer_cohort,
    subject,
    subjects_of,
    tte,
)

FIXTURE_MAPPING = ColumnMapping(
    subject_id="pid",
    arm="arm",
    days="day",
    event="evt",
    cd4_baseline="cd4b",
    cd4_week20="cd4w20",
    cd4_week96="cd4w96",
    covariates={},
)

FIXTURE_CSV = """pid,arm,day,evt,cd4b,cd4w20,cd4w96
p1,0,100,1,400,350,
p2,1,200,0,300,310,280
p3,2,150,1,250,260,300
p4,3,400,0,500,480,450
"""


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fixture.csv"
    path.write_text(FIXTURE_CSV)
    return path


class TestSpecs:
    def test_time_to_event_rejects_lower_is_better(self):
        with pytest.raises(ValueError):
            EndpointSpec("e", EndpointKind.TIME_TO_EVENT, priority=1,
                         direction=Direction.LOWER_IS_BETTER)

    def test_priority_must_be_positive(self):
        with pytest.raises(ValueError):
            EndpointSpec("e", EndpointKind.CONTINUOUS, priority=0)

    def test_hierarchy_priorities_contiguous(self):
        a = EndpointSpec("a", EndpointKind.CONTINUOUS, priority=1)
        b = EndpointSpec("b", EndpointKind.CONTINUOUS, priority=3)
        with pytest.raises(ValueError):
            validate_hierarchy([a, b])
        c = EndpointSpec("c", EndpointKind.CONTINUOUS, priority=2)
        assert [s.name for s in validate_hierarchy([b, c, a])] == ["a", "c", "b"]


def _valid_args():
    """Constructor arguments of a valid 4-subject cohort; subject 'b' has
    every value present."""
    return dict(
        specs=[SURV, SCORE, FLAG],
        ids=["a", "b", "c", "d"],
        group=[1, 1, 0, 0],
        columns={
            "surv": ([1.0, 2.0, 3.0, 4.0], [True, False, True, True]),
            "score": ([0.5, 1.5, math.nan, 2.0], [True, True, False, True]),
            "flag": ([1.0, 0.0, 1.0, math.nan], [True, True, True, False]),
        },
        covariates={"age": [30.0, 35.0, math.nan, 52.0]},
    )


DROP = object()  # delete subject 'b' from the list instead of setting it


class TestDatasetConstruction:
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("columns", "surv", 0), math.inf, "endpoint 'surv' time of subject 'b' is inf"),
            (("columns", "surv", 0), math.nan, "endpoint 'surv' time of subject 'b' is nan"),
            (("columns", "surv", 0), -1.0, "endpoint 'surv' time of subject 'b' is -1.0"),
            (("columns", "surv", 1), 1, "endpoint 'surv' event flag: wrong dtype int64"),
            (("columns", "score", 0), math.inf, "endpoint 'score' value of subject 'b' is inf"),
            (("columns", "score", 0), -math.inf, "endpoint 'score' value of subject 'b' is -inf"),
            (("columns", "score", 0), math.nan, "endpoint 'score' value of subject 'b' is nan"),
            (("columns", "flag", 0), 2.0, "endpoint 'flag' value of subject 'b' is 2.0"),
            (("ids",), "a", "duplicate subject id 'a'"),
            (("columns", "score", 1), DROP, "endpoint 'score' presence flag: shape (3,) for 4"),
            (("covariates", "age"), math.inf, "covariate 'age' of subject 'b' is inf"),
            (("group",), 2, "group code of subject 'b' is 2"),
        ],
        ids=[
            "time-inf", "time-nan", "time-negative", "event-flag-int", "continuous-inf",
            "continuous-minus-inf", "continuous-nan", "binary-2", "duplicate-id",
            "wrong-length", "covariate-inf", "group-2",
        ],
    )
    def test_rejects_invalid_value(self, path, value, message):
        args = _valid_args()
        target = args
        for key in path:
            target = target[key]
        if value is DROP:
            del target[1]
        else:
            target[1] = value
        with pytest.raises(InvalidDataError, match=re.escape(message)):
            TrialDataset(**args)

    def test_missing_outcome_rejected(self):
        args = _valid_args()
        del args["columns"]["flag"]
        with pytest.raises(InvalidDataError, match="do not match endpoints"):
            TrialDataset(**args)

    def test_empty_group_rejected(self):
        subs = [subject("a", 1, surv=tte(1)), subject("b", 1, surv=tte(2))]
        with pytest.raises(EmptyGroupError):
            dataset(subs, [SURV])

    def test_columns_are_read_only(self):
        ds = TrialDataset(**_valid_args())
        assert not np.isnan(ds.values("score")[ds.present("score")]).any()
        with pytest.raises(ValueError):
            ds.times("surv")[0] = 5.0
        times = np.array([1.0, 2.0])
        dataset_of_arrays = TrialDataset(
            [SURV], ["a", "b"], np.array([1, 0]), {"surv": (times, np.array([True, True]))}
        )
        assert dataset_of_arrays.times("surv") is times and not times.flags.writeable


class TestLoadCsv:
    def test_fixture_loads_field_by_field(self, fixture_csv):
        ds = load_trial_csv(fixture_csv, FIXTURE_MAPPING)
        assert ds.n == 4
        assert ds.n_control == 1  # arm 0 under the default contrast
        assert ds.n_treatment == 3
        rows = subjects_of(ds)
        p1 = rows[ds.ids.index("p1")]
        assert p1.group == 0
        assert p1.outcomes["composite_event"] == Tte(100.0, True)
        assert p1.outcomes["cd4_week20"] == Value(350.0)
        assert not p1.outcomes["cd4_week96"].present
        assert p1.covariates["cd4_baseline"] == 400.0
        assert p1.covariates["arm"] == 0.0
        p4 = rows[ds.ids.index("p4")]
        assert p4.outcomes["composite_event"] == Tte(400.0, False)
        assert p4.outcomes["cd4_week96"] == Value(450.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trial_csv(tmp_path / "nope.csv", FIXTURE_MAPPING)

    def test_empty_file_with_header_is_empty_group(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("pid,arm,day,evt,cd4b,cd4w20,cd4w96\n")
        with pytest.raises(EmptyGroupError):
            load_trial_csv(path, FIXTURE_MAPPING)

    def test_absent_column_is_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pid,arm,day,cd4b,cd4w20,cd4w96\np1,0,1,2,3,4\n")
        with pytest.raises(SchemaMismatchError):
            load_trial_csv(path, FIXTURE_MAPPING)

    def test_malformed_required_field_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(FIXTURE_CSV.replace("p3,2,150", "p3,2,oops"))
        with pytest.raises(CsvParseError) as err:
            load_trial_csv(path, FIXTURE_MAPPING)
        assert err.value.row == 3
        assert err.value.column == "day"

    @pytest.mark.parametrize("arm", ["2.5", "inf", "NAN"])
    def test_arm_code_must_be_a_finite_integer(self, tmp_path, arm):
        path = tmp_path / "bad.csv"
        path.write_text(FIXTURE_CSV.replace("p3,2,150", f"p3,{arm},150"))
        with pytest.raises(CsvParseError) as err:
            load_trial_csv(path, FIXTURE_MAPPING)
        assert (err.value.row, err.value.column) == (3, "arm")

    @pytest.mark.parametrize(
        "row",
        ["p3,2,inf,1,250,260,300", "p3,2,150,1,250,-inf,300", "p3,2,150,1,1e400,260,300"],
        ids=["days-inf", "cd4w20-minus-inf", "cd4b-1e400"],
    )
    def test_non_finite_value_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(FIXTURE_CSV.replace("p3,2,150,1,250,260,300", row))
        with pytest.raises(InvalidDataError, match="subject 'p3'"):
            load_trial_csv(path, FIXTURE_MAPPING)

    def test_directory_is_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trial_csv(tmp_path, FIXTURE_MAPPING)

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(FIXTURE_CSV.replace("p3", "p\xe9").encode("latin-1"))
        with pytest.raises(InvalidDataError, match="not UTF-8"):
            load_trial_csv(path, FIXTURE_MAPPING)

    def test_single_arm_contrast_drops_other_arms(self, fixture_csv):
        ds = load_trial_csv(fixture_csv, FIXTURE_MAPPING, contrast="1_vs_0")
        assert ds.n == 2
        assert set(ds.ids) == {"p1", "p2"}

    def test_unknown_arm_in_contrast(self, fixture_csv):
        with pytest.raises(InvalidContrastError):
            load_trial_csv(fixture_csv, FIXTURE_MAPPING, contrast="9_vs_0")


class TestDeriveEndpoints:
    def test_cd4_change_arithmetic(self, fixture_csv):
        ds = derive_endpoints(load_trial_csv(fixture_csv, FIXTURE_MAPPING))
        p1 = subjects_of(ds)[ds.ids.index("p1")]
        assert p1.outcomes["cd4_change_20wk"] == Value(-50.0)

    def test_missing_week96_passthrough(self, fixture_csv):
        ds = derive_endpoints(load_trial_csv(fixture_csv, FIXTURE_MAPPING))
        assert not subjects_of(ds)[ds.ids.index("p1")].outcomes["cd4_week96"].present
        present = ds.present("cd4_week96")
        assert present.sum() + (~present).sum() == ds.n

    def test_priorities_and_kinds(self, fixture_csv):
        ds = derive_endpoints(load_trial_csv(fixture_csv, FIXTURE_MAPPING))
        specs = {s.name: s for s in ds.endpoint_specs}
        assert specs["composite_event"].priority == 1
        assert specs["composite_event"].kind is EndpointKind.TIME_TO_EVENT
        assert specs["cd4_change_20wk"].priority == 2
        assert specs["cd4_week96"].priority == 3

    def test_idempotent_and_deterministic(self, fixture_csv):
        raw = load_trial_csv(fixture_csv, FIXTURE_MAPPING)
        cfg = DerivationConfig()
        once = derive_endpoints(raw, cfg)
        want = (once.endpoint_specs, subjects_of(once))
        for again in (derive_endpoints(raw, cfg), derive_endpoints(once, cfg)):
            assert (again.endpoint_specs, subjects_of(again)) == want

    def test_invalid_contrast(self, fixture_csv):
        raw = load_trial_csv(fixture_csv, FIXTURE_MAPPING)
        with pytest.raises(InvalidContrastError):
            derive_endpoints(raw, DerivationConfig(contrast="7_vs_0"))

    def test_missing_ingredient_column(self, fixture_csv):
        mapping = ColumnMapping(
            subject_id="pid", arm="arm", days="day", event="evt",
            cd4_baseline="cd4b", cd4_week20=None, cd4_week96=None, covariates={},
        )
        raw = load_trial_csv(fixture_csv, mapping)
        with pytest.raises(MissingColumnError):
            derive_endpoints(raw)


class TestContrastParsing:
    def test_rest_vs_named(self):
        c = parse_contrast("rest_vs_0")
        assert c.treatment_arms is None and c.control_arms == frozenset({0})

    def test_pooled(self):
        c = parse_contrast("1+2+3_vs_0")
        assert c.treatment_arms == frozenset({1, 2, 3})

    @pytest.mark.parametrize("bad", ["nonsense", "rest_vs_rest", "1+2_vs_2", "a_vs_0"])
    def test_malformed(self, bad):
        with pytest.raises(InvalidContrastError):
            parse_contrast(bad)


class TestBaselineSummary:
    def _toy(self):
        subs = [
            Subject("a", 1, {"surv": tte(10)},
                    {"age": 30, "male": 1, "karnofsky": 100, "prior_art": 0,
                     "cd4_baseline": 400, "race": 0}),
            Subject("b", 0, {"surv": tte(20)},
                    {"age": 40, "male": 0, "karnofsky": 90, "prior_art": 1,
                     "cd4_baseline": 300, "race": 1}),
        ]
        return dataset(subs, [SURV])

    def test_minimal_cohort_counts(self):
        table = baseline_summary(self._toy())
        assert table.value("n", "all") == 2
        assert table.value("male", "all") == 1
        assert table.value("n", "no_prior_exposure") == 1
        assert table.value("karnofsky score of 100", "all") == 1
        for row in table.rows:
            for v in row.values:
                assert v is None or v >= 0

    def test_absent_covariates_reported_unavailable(self):
        subs = [subject("a", 1, surv=tte(1)), subject("b", 0, surv=tte(2))]
        table = baseline_summary(dataset(subs, [SURV]))
        assert table.value("male", "all") is None
        assert table.columns == ("all",)

    def test_reorder_invariance(self):
        rng = np.random.default_rng(5)
        subs, specs = random_integer_cohort(rng, 9)
        for s in subs:
            s.covariates["age"] = float(rng.integers(20, 60))  # type: ignore[index]
        ds = dataset(subs, specs)
        perm = rng.permutation(len(subs))
        ds2 = dataset([subs[i] for i in perm], specs)
        t1, t2 = baseline_summary(ds), baseline_summary(ds2)
        assert t1 == t2

    def test_text_and_csv_render(self):
        table = baseline_summary(self._toy())
        assert "unavailable" in table.to_text() or "n" in table.to_text()
        assert table.to_csv().startswith("characteristic,")


class TestReplicaShape:
    def test_replica_loads_with_default_mapping(self, actg_raw):
        assert actg_raw.n == 2467
        assert actg_raw.n_treatment > 0 and actg_raw.n_control > 0

    def test_default_contrast_pools_three_arms(self, actg_derived):
        assert actg_derived.n_treatment + actg_derived.n_control == 2467
        arm = actg_derived.covariate("arm")
        assert set(np.unique(arm[actg_derived.treatment_mask])) == {1.0, 2.0, 3.0}
        assert set(np.unique(arm[~actg_derived.treatment_mask])) == {0.0}

    def test_week96_presence_partition(self, actg_derived):
        present = actg_derived.present("cd4_week96")
        assert present.sum() + (~present).sum() == actg_derived.n
        assert 0 < present.sum() < actg_derived.n

    def test_builder_reproduces_bundled_file(self):
        # The seeded builder script regenerates data/actg175_replica.csv
        # byte for byte.
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "build_actg175_replica", root / "scripts" / "build_actg175_replica.py"
        )
        builder = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(builder)
        bundled = (root / "data" / "actg175_replica.csv").read_bytes()
        assert builder.to_csv(builder.build()).encode() == bundled
