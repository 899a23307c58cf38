"""Trial data model, CSV ingestion, endpoint derivation and baseline summaries.

The central object is :class:`TrialDataset`, an immutable two-group cohort
stored column-wise (numpy arrays per endpoint); its constructor is the one
place that checks the values of a dataset. Ingestion targets ACTG 175-shaped
CSV files; the column mapping is configurable, so any file with an arm
column, a follow-up time/event pair and CD4 columns can be loaded.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CsvParseError,
    EmptyGroupError,
    InvalidContrastError,
    InvalidDataError,
    MissingColumnError,
    SchemaMismatchError,
)


class EndpointKind(Enum):
    TIME_TO_EVENT = "time_to_event"
    CONTINUOUS = "continuous"
    BINARY = "binary"


class Direction(Enum):
    HIGHER_IS_BETTER = "higher_is_better"
    LOWER_IS_BETTER = "lower_is_better"


@dataclass(frozen=True)
class EndpointSpec:
    """Declaration of one analysis endpoint.

    ``priority`` orders the comparison hierarchy (1 = compared first).
    Time-to-event endpoints have fixed semantics (earlier event = worse),
    so a LOWER_IS_BETTER flag on them is rejected rather than interpreted.
    """

    name: str
    kind: EndpointKind
    priority: int
    direction: Direction = Direction.HIGHER_IS_BETTER

    def __post_init__(self):
        if not self.name:
            raise ValueError("endpoint name must be non-empty")
        if self.priority < 1:
            raise ValueError(f"priority must be >= 1, got {self.priority}")
        if (
            self.kind is EndpointKind.TIME_TO_EVENT
            and self.direction is Direction.LOWER_IS_BETTER
        ):
            raise ValueError(
                "time-to-event endpoints may not carry LOWER_IS_BETTER; "
                "event semantics are fixed by the kind"
            )


# Per endpoint kind: the name of the flag column, the name of the value
# column, and the rule each value obeys given its flag.
_VALUE_RULES = {
    EndpointKind.TIME_TO_EVENT: (
        "event flag", "time", lambda t, _: (t >= 0) & (t < np.inf), "finite and >= 0"
    ),
    EndpointKind.CONTINUOUS: (
        "presence flag", "value", lambda v, present: np.isfinite(v) | ~present,
        "finite where present",
    ),
    EndpointKind.BINARY: (
        "presence flag", "value", lambda v, present: (v == 0) | (v == 1) | ~present,
        "0 or 1 where present",
    ),
}


def _column(ids, what: str, values: np.ndarray, dtype, valid=None, rule="") -> np.ndarray:
    """``values`` as a read-only array of ``dtype``, one entry per subject,
    each obeying ``valid``; a flag column must already hold booleans."""
    arr = np.asarray(values)
    if arr.shape != (len(ids),):
        raise InvalidDataError(f"{what}: shape {arr.shape} for {len(ids)} subjects")
    if arr.dtype.kind not in ("b" if dtype is bool else "biuf"):
        raise InvalidDataError(f"{what}: wrong dtype {arr.dtype}")
    if valid is not None:
        ok = valid(arr)
        if not ok.all():
            i = int(np.argmin(ok))
            raise InvalidDataError(
                f"{what} of subject {ids[i]!r} is {arr[i].item()!r}; must be {rule}"
            )
    arr = arr.astype(dtype, copy=False)
    arr.setflags(write=False)
    return arr


class TrialDataset:
    """Immutable two-group cohort, stored column-wise.

    ``specs`` is the comparison hierarchy: the dataset keeps it sorted by
    priority, which must run 1, 2, ..., K, and every test reads its
    endpoints in that order from ``endpoint_specs``.
    ``columns`` maps each endpoint of ``specs`` to a pair of arrays: times
    and event flags for a time-to-event endpoint, values (NaN where absent)
    and presence flags otherwise. ``group`` holds 1 for treatment and 0 for
    control, and ``covariates`` maps names to float columns, NaN where
    missing. The constructor checks every value, raising
    ``InvalidDataError`` (``EmptyGroupError`` for an empty group). It copies
    the group codes (N bytes), so a dataset's codes never change and the
    label stream kept for it stays valid for as long as it lives; the other
    columns it freezes rather than copies. ``subset`` returns a new
    dataset.
    """

    def __init__(
        self,
        specs: Sequence[EndpointSpec],
        ids: Sequence[str],
        group: np.ndarray,
        columns: Mapping[str, tuple[np.ndarray, np.ndarray]],
        covariates: Mapping[str, np.ndarray] | None = None,
    ):
        self._specs = tuple(sorted(specs, key=lambda s: s.priority))
        self._spec_by_name = {s.name: s for s in self._specs}
        self._ids: tuple[str, ...] = tuple(ids)
        priorities = [s.priority for s in self._specs]
        if not priorities or priorities != list(range(1, len(priorities) + 1)):
            raise InvalidDataError(
                f"endpoint priorities must be distinct and contiguous from 1, got {priorities}"
            )
        if len(self._spec_by_name) != len(self._specs):
            raise InvalidDataError("endpoint spec names must be unique")
        if len(set(self._ids)) != len(self._ids):
            dup = next(i for i, count in Counter(self._ids).items() if count > 1)
            raise InvalidDataError(f"duplicate subject id {dup!r}")
        if set(columns) != set(self._spec_by_name):
            raise InvalidDataError(
                f"columns {sorted(columns)} do not match endpoints {sorted(self._spec_by_name)}"
            )

        self._group = _column(self._ids, "group code", np.array(group), np.int8,
                              lambda g: (g == 0) | (g == 1), "0 or 1")
        self._n_treatment = int(self._group.sum())
        self._n_control = len(self._group) - self._n_treatment
        if self._n_treatment < 1 or self._n_control < 1:
            raise EmptyGroupError(
                f"both groups must be non-empty "
                f"(treatment={self._n_treatment}, control={self._n_control})"
            )
        self._columns: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for spec in self._specs:
            a, b = columns[spec.name]
            flag, value, valid, rule = _VALUE_RULES[spec.kind]
            what = f"endpoint {spec.name!r}"
            b = _column(self._ids, f"{what} {flag}", b, bool)
            a = _column(self._ids, f"{what} {value}", a, np.float64, lambda v: valid(v, b), rule)
            self._columns[spec.name] = (a, b)
        self._covariates: dict[str, np.ndarray] = {
            name: _column(self._ids, f"covariate {name!r}", v, np.float64,
                          lambda c: ~np.isinf(c), "finite or NaN (missing)")
            for name, v in (covariates or {}).items()
        }

    # -- basic shape -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._ids)

    @property
    def n_treatment(self) -> int:
        return self._n_treatment

    @property
    def n_control(self) -> int:
        return self._n_control

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def endpoint_specs(self) -> tuple[EndpointSpec, ...]:
        """The endpoints in priority order, the one comparison hierarchy."""
        return self._specs

    def spec(self, name: str) -> EndpointSpec:
        try:
            return self._spec_by_name[name]
        except KeyError:
            raise KeyError(f"no endpoint named {name!r}") from None

    def has_endpoint(self, name: str) -> bool:
        return name in self._spec_by_name

    # -- column accessors ----------------------------------------------------

    @property
    def group_codes(self) -> np.ndarray:
        """int8 array, 1 = treatment, 0 = control."""
        return self._group

    @property
    def treatment_mask(self) -> np.ndarray:
        return self._group == 1

    def times(self, name: str) -> np.ndarray:
        self._require_kind(name, EndpointKind.TIME_TO_EVENT)
        return self._columns[name][0]

    def events_observed(self, name: str) -> np.ndarray:
        self._require_kind(name, EndpointKind.TIME_TO_EVENT)
        return self._columns[name][1]

    def values(self, name: str) -> np.ndarray:
        """Continuous/binary values; NaN where absent."""
        spec = self.spec(name)
        if spec.kind is EndpointKind.TIME_TO_EVENT:
            raise ValueError(f"{name!r} is time-to-event; use times()/events_observed()")
        return self._columns[name][0]

    def present(self, name: str) -> np.ndarray:
        spec = self.spec(name)
        if spec.kind is EndpointKind.TIME_TO_EVENT:
            return np.ones(self.n, dtype=bool)
        return self._columns[name][1]

    def _require_kind(self, name: str, kind: EndpointKind):
        if self.spec(name).kind is not kind:
            raise ValueError(f"endpoint {name!r} is not {kind.value}")

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(self._covariates)

    def has_covariate(self, name: str) -> bool:
        return name in self._covariates

    def covariate(self, name: str) -> np.ndarray:
        try:
            return self._covariates[name]
        except KeyError:
            raise KeyError(f"no covariate named {name!r}") from None

    # -- derived datasets ------------------------------------------------------

    def subset(self, indices: np.ndarray) -> "TrialDataset":
        idx = np.asarray(indices)
        return TrialDataset(
            self._specs,
            [self._ids[i] for i in idx],
            self._group[idx],
            {k: (a[idx], b[idx]) for k, (a, b) in self._columns.items()},
            {k: v[idx] for k, v in self._covariates.items()},
        )

    def __repr__(self):
        return (
            f"TrialDataset(n={self.n}, treatment={self.n_treatment}, "
            f"control={self.n_control}, endpoints={[s.name for s in self._specs]})"
        )


# ---------------------------------------------------------------------------
# Contrasts
# ---------------------------------------------------------------------------

DEFAULT_CONTRAST = "rest_vs_0"


@dataclass(frozen=True)
class Contrast:
    """Arm codes on each side; ``None`` means "every other arm" (rest)."""

    treatment_arms: frozenset[int] | None
    control_arms: frozenset[int] | None

    def __post_init__(self):
        if self.treatment_arms is None and self.control_arms is None:
            raise InvalidContrastError("at most one side of a contrast may be 'rest'")
        if self.treatment_arms is not None and self.control_arms is not None:
            if self.treatment_arms & self.control_arms:
                raise InvalidContrastError("contrast sides overlap")
            if not self.treatment_arms or not self.control_arms:
                raise InvalidContrastError("contrast sides must be non-empty")


def parse_contrast(text: str) -> Contrast:
    """Parse ``"<treatment>_vs_<control>"`` where a side is ``rest`` or
    ``+``-joined arm codes, e.g. ``"rest_vs_0"``, ``"1+2+3_vs_0"``, ``"3_vs_0"``."""
    parts = text.split("_vs_")
    if len(parts) != 2:
        raise InvalidContrastError(f"contrast {text!r} is not of the form A_vs_B")

    def side(tok: str) -> frozenset[int] | None:
        tok = tok.strip()
        if tok == "rest":
            return None
        try:
            return frozenset(int(p) for p in tok.split("+"))
        except ValueError:
            raise InvalidContrastError(f"bad arm list {tok!r} in contrast {text!r}") from None

    return Contrast(side(parts[0]), side(parts[1]))


def _apply_contrast(arms: np.ndarray, contrast: Contrast) -> tuple[np.ndarray, np.ndarray]:
    """Return (kept_indices, group_codes) for the contrast over an arm column."""
    if arms.size == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int8)
    observed = set(int(a) for a in np.unique(arms[~np.isnan(arms)]))
    named = set()
    for s in (contrast.treatment_arms, contrast.control_arms):
        if s is not None:
            named |= s
    missing = named - observed
    if missing:
        raise InvalidContrastError(f"contrast names absent arm(s) {sorted(missing)}")
    # A 'rest' side is every arm the other side does not name.
    treat, control = contrast.treatment_arms, contrast.control_arms
    is_treat = ~np.isin(arms, list(control)) if treat is None else np.isin(arms, list(treat))
    is_control = ~is_treat if control is None else np.isin(arms, list(control))
    idx = np.flatnonzero((is_treat | is_control) & ~np.isnan(arms))
    return idx, is_treat[idx].astype(np.int8)


def _empty_group(contrast: str, group: np.ndarray) -> EmptyGroupError:
    """The empty-group error of a contrast, naming it."""
    n1 = int(group.sum())
    return EmptyGroupError(
        f"contrast {contrast!r} left an empty group (treatment={n1}, control={group.size - n1})"
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

MISSING_TOKENS = frozenset({"", "NA", "N/A", "NaN", "nan", "."})

RAW_EVENT_ENDPOINT = "composite_event"
RAW_CD4_WEEK20 = "cd4_week20"
RAW_CD4_WEEK96 = "cd4_week96"
DERIVED_CD4_CHANGE = "cd4_change_20wk"
# The covariates that ingestion fills from ``arm`` and ``cd4_baseline``.
RESERVED_COVARIATES = frozenset({"arm", "cd4_baseline"})


@dataclass(frozen=True)
class ColumnMapping:
    """Names of the CSV columns carrying each ingested field.

    Optional fields may be set to ``None`` to skip them. ``covariates`` maps
    standardized covariate names to CSV column names; ``arm`` and
    ``cd4_baseline`` are taken by the arm and baseline CD4 columns.
    """

    subject_id: str = "pidnum"
    arm: str = "arms"
    days: str = "days"
    event: str = "cens"
    cd4_baseline: str | None = "cd40"
    cd4_week20: str | None = "cd420"
    cd4_week96: str | None = "cd496"
    covariates: Mapping[str, str] = field(
        default_factory=lambda: {
            "age": "age",
            "male": "gender",
            "race": "race",
            "homosexual": "homo",
            "ivdrug": "drugs",
            "hemophilia": "hemo",
            "karnofsky": "karnof",
            "symptomatic": "symptom",
            "prior_art": "str2",
        }
    )

    def __post_init__(self):
        taken = sorted(RESERVED_COVARIATES & set(self.covariates))
        if taken:
            raise ValueError(
                f"covariate name(s) {taken} are taken by the arm and baseline CD4 columns"
            )

    def named_columns(self) -> list[str]:
        cols = [self.subject_id, self.arm, self.days, self.event]
        for c in (self.cd4_baseline, self.cd4_week20, self.cd4_week96):
            if c is not None:
                cols.append(c)
        cols.extend(self.covariates.values())
        return cols


DEFAULT_ACTG_MAPPING = ColumnMapping()


def _raw_specs(mapping: ColumnMapping) -> tuple[EndpointSpec, ...]:
    specs = [EndpointSpec(RAW_EVENT_ENDPOINT, EndpointKind.TIME_TO_EVENT, priority=1)]
    prio = 2
    if mapping.cd4_week20 is not None:
        specs.append(EndpointSpec(RAW_CD4_WEEK20, EndpointKind.CONTINUOUS, priority=prio))
        prio += 1
    if mapping.cd4_week96 is not None:
        specs.append(EndpointSpec(RAW_CD4_WEEK96, EndpointKind.CONTINUOUS, priority=prio))
    return tuple(specs)


def load_trial_csv(
    path: str | Path,
    mapping: ColumnMapping = DEFAULT_ACTG_MAPPING,
    contrast: str = DEFAULT_CONTRAST,
) -> TrialDataset:
    """Load an ACTG 175-shaped CSV into a raw :class:`TrialDataset`.

    The raw dataset carries the composite event (follow-up days + event
    indicator) plus the week-20 and week-96 CD4 measurements as endpoints,
    and the mapped covariates (arm and baseline CD4 included). Group labels
    come from ``contrast`` applied to the arm column; subjects in arms
    outside a two-arm contrast are dropped.

    Raises FileNotFoundError (also for a path that is not a file),
    SchemaMismatchError, CsvParseError, InvalidDataError or EmptyGroupError.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(str(path))
    con = parse_contrast(contrast)
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports
        # prepend, which would otherwise stick to the first column's name.
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidDataError(f"{path}: not UTF-8 text ({exc.reason})") from None

    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None:
        raise SchemaMismatchError(f"{path}: no header row")
    repeated = [c for c, k in Counter(reader.fieldnames).items() if k > 1]
    if repeated:
        raise SchemaMismatchError(f"{path}: column(s) named more than once {repeated}")
    header = set(reader.fieldnames)
    absent = [c for c in mapping.named_columns() if c not in header]
    if absent:
        raise SchemaMismatchError(f"{path}: missing column(s) {absent}")

    ids: list[str] = []
    arms: list[float] = []
    days: list[float] = []
    events: list[bool] = []
    optionals: dict[str, list[float]] = {
        c: [] for c in (mapping.cd4_baseline, mapping.cd4_week20, mapping.cd4_week96)
        if c is not None
    }
    cov_rows: dict[str, list[float]] = {name: [] for name in mapping.covariates}

    for rownum, row in enumerate(reader, start=1):
        # DictReader files the fields past the header under None, and fills
        # the columns past a short row's end with None.
        if None in row or None in row.values():
            more = "more" if None in row else "fewer"
            raise CsvParseError(rownum, None, f"{more} fields than the header")
        ids.append(row[mapping.subject_id].strip())
        arm = _req_float(row, mapping.arm, rownum)
        if not arm.is_integer():
            raise CsvParseError(rownum, mapping.arm, "arm code must be a finite integer")
        arms.append(arm)
        days.append(_req_float(row, mapping.days, rownum))
        ev = _req_float(row, mapping.event, rownum)
        if ev not in (0.0, 1.0):
            raise CsvParseError(rownum, mapping.event, "event indicator must be 0/1")
        events.append(bool(ev))
        for col, store in optionals.items():
            store.append(_opt_float(row, col, rownum))
        for name, col in mapping.covariates.items():
            cov_rows[name].append(_opt_float(row, col, rownum))

    arms_arr = np.asarray(arms)
    kept, group = _apply_contrast(arms_arr, con)
    columns = {RAW_EVENT_ENDPOINT: (np.asarray(days), np.asarray(events, dtype=bool))}
    for spec_name, col in ((RAW_CD4_WEEK20, mapping.cd4_week20), (RAW_CD4_WEEK96, mapping.cd4_week96)):
        if col is not None:
            vals = np.asarray(optionals[col])
            columns[spec_name] = (vals, ~np.isnan(vals))

    covariates = {"arm": arms_arr}
    if mapping.cd4_baseline is not None:
        covariates["cd4_baseline"] = np.asarray(optionals[mapping.cd4_baseline])
    for name in mapping.covariates:
        covariates[name] = np.asarray(cov_rows[name])

    # Every parsed row goes through the constructor's checks, also the rows
    # of arms the contrast drops (they carry code 0 until the subset).
    all_rows = np.zeros(arms_arr.size, dtype=np.int8)
    all_rows[kept] = group
    try:
        ds = TrialDataset(_raw_specs(mapping), ids, all_rows, columns, covariates)
        return ds if kept.size == ds.n else ds.subset(kept)
    except EmptyGroupError:
        raise _empty_group(contrast, group) from None


def _req_float(row: Mapping[str, str], col: str, rownum: int) -> float:
    tok = (row[col] or "").strip()
    if tok in MISSING_TOKENS:
        raise CsvParseError(rownum, col, "required field is missing")
    try:
        return float(tok)
    except ValueError:
        raise CsvParseError(rownum, col, f"not a number: {tok!r}") from None


def _opt_float(row: Mapping[str, str], col: str, rownum: int) -> float:
    tok = (row[col] or "").strip()
    if tok in MISSING_TOKENS:
        return math.nan
    try:
        return float(tok)
    except ValueError:
        raise CsvParseError(rownum, col, f"not a number: {tok!r}") from None


# ---------------------------------------------------------------------------
# Endpoint derivation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivationConfig:
    """Options for turning a raw ingest into the analysis endpoint set.

    ``contrast`` regroups subjects from the ``arm`` covariate; the default
    pools the three combination arms against zidovudine monotherapy.
    """

    contrast: str = DEFAULT_CONTRAST
    include_week96: bool = True


def derive_endpoints(raw: TrialDataset, config: DerivationConfig = DerivationConfig()) -> TrialDataset:
    """Produce the analysis endpoints from a raw ingest.

    E1 = composite event (time-to-event, priority 1), E2 = CD4 change at
    ~20 weeks from baseline (priority 2), E3 = CD4 at ~96 weeks (priority 3,
    frequently missing). ``raw`` is a raw ingest, as ``load_trial_csv``
    returns it.
    """
    if not raw.has_endpoint(RAW_EVENT_ENDPOINT):
        raise MissingColumnError(f"dataset lacks endpoint {RAW_EVENT_ENDPOINT!r}")
    if not raw.has_covariate("arm"):
        raise MissingColumnError("dataset lacks the 'arm' covariate needed for contrasts")

    if not raw.has_endpoint(RAW_CD4_WEEK20):
        raise MissingColumnError(f"dataset lacks endpoint {RAW_CD4_WEEK20!r}")
    if not raw.has_covariate("cd4_baseline"):
        raise MissingColumnError("dataset lacks the 'cd4_baseline' covariate")
    if config.include_week96 and not raw.has_endpoint(RAW_CD4_WEEK96):
        raise MissingColumnError(f"dataset lacks endpoint {RAW_CD4_WEEK96!r}")

    con = parse_contrast(config.contrast)
    kept, group = _apply_contrast(raw.covariate("arm"), con)

    specs = [
        EndpointSpec(RAW_EVENT_ENDPOINT, EndpointKind.TIME_TO_EVENT, priority=1),
        EndpointSpec(DERIVED_CD4_CHANGE, EndpointKind.CONTINUOUS, priority=2),
    ]
    if config.include_week96:
        specs.append(EndpointSpec(RAW_CD4_WEEK96, EndpointKind.CONTINUOUS, priority=3))

    columns = {
        RAW_EVENT_ENDPOINT: (
            raw.times(RAW_EVENT_ENDPOINT)[kept],
            raw.events_observed(RAW_EVENT_ENDPOINT)[kept],
        )
    }
    change = raw.values(RAW_CD4_WEEK20)[kept] - raw.covariate("cd4_baseline")[kept]
    columns[DERIVED_CD4_CHANGE] = (change, ~np.isnan(change))
    if config.include_week96:
        vals = raw.values(RAW_CD4_WEEK96)[kept]
        columns[RAW_CD4_WEEK96] = (vals, ~np.isnan(vals))

    covariates = {k: raw.covariate(k)[kept] for k in raw.covariate_names}
    try:
        return TrialDataset(specs, [raw.ids[i] for i in kept], group, columns, covariates)
    except EmptyGroupError:
        raise _empty_group(config.contrast, group) from None


# ---------------------------------------------------------------------------
# Baseline summary
# ---------------------------------------------------------------------------

RACE_LABELS = {
    0: "race: white non-hispanic",
    1: "race: black non-hispanic",
    2: "race: hispanic",
    3: "race: other",
}


@dataclass(frozen=True)
class SummaryRow:
    label: str
    kind: str  # "count" | "mean"
    values: tuple[float | None, ...]


@dataclass(frozen=True)
class SummaryTable:
    columns: tuple[str, ...]
    rows: tuple[SummaryRow, ...]

    def value(self, label: str, column: str) -> float | None:
        j = self.columns.index(column)
        for row in self.rows:
            if row.label == label:
                return row.values[j]
        raise KeyError(label)

    def to_text(self) -> str:
        width = max(len(r.label) for r in self.rows) + 2
        colw = max(12, max(len(c) for c in self.columns) + 2)
        lines = ["".ljust(width) + "".join(c.rjust(colw) for c in self.columns)]
        for row in self.rows:
            cells = []
            for v in row.values:
                if v is None:
                    cells.append("unavailable".rjust(colw))
                elif row.kind == "count":
                    cells.append(f"{int(v)}".rjust(colw))
                else:
                    cells.append(f"{v:.1f}".rjust(colw))
            lines.append(row.label.ljust(width) + "".join(cells))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        out = ["characteristic," + ",".join(self.columns)]
        for row in self.rows:
            cells = []
            for v in row.values:
                if v is None:
                    cells.append("")
                elif row.kind == "count":
                    cells.append(str(int(v)))
                else:
                    cells.append(repr(float(v)))
            out.append(row.label.replace(",", ";") + "," + ",".join(cells))
        return "\n".join(out) + "\n"


def baseline_summary(ds: TrialDataset) -> SummaryTable:
    """Counts and means of the baseline covariates, stratified by prior
    antiretroviral exposure when that flag is available."""
    masks: list[tuple[str, np.ndarray]] = [("all", np.ones(ds.n, dtype=bool))]
    if ds.has_covariate("prior_art"):
        prior = ds.covariate("prior_art")
        masks.append(("no_prior_exposure", prior == 0))
        masks.append(("prior_exposure", prior == 1))

    def count_of(name: str, predicate) -> list[float | None]:
        if not ds.has_covariate(name):
            return [None] * len(masks)
        col = ds.covariate(name)
        ok = ~np.isnan(col)
        return [float(np.sum(predicate(col) & ok & m)) for _, m in masks]

    def mean_of(name: str) -> list[float | None]:
        if not ds.has_covariate(name):
            return [None] * len(masks)
        col = ds.covariate(name)
        out: list[float | None] = []
        for _, m in masks:
            vals = col[m & ~np.isnan(col)]
            out.append(float(vals.mean()) if vals.size else None)
        return out

    rows = [SummaryRow("n", "count", tuple(float(m.sum()) for _, m in masks))]
    rows.append(SummaryRow("male", "count", tuple(count_of("male", lambda c: c == 1))))
    rows.append(SummaryRow("age (mean)", "mean", tuple(mean_of("age"))))
    if ds.has_covariate("race"):
        race = ds.covariate("race")
        codes = sorted(int(c) for c in np.unique(race[~np.isnan(race)]))
        for code in codes:
            label = RACE_LABELS.get(code, f"race: code {code}")
            rows.append(SummaryRow(label, "count", tuple(count_of("race", lambda c, k=code: c == k))))
    else:
        rows.append(SummaryRow("race: white non-hispanic", "count", (None,) * len(masks)))
    rows.append(SummaryRow("risk: homosexual activity", "count",
                           tuple(count_of("homosexual", lambda c: c == 1))))
    rows.append(SummaryRow("risk: injection-drug use", "count",
                           tuple(count_of("ivdrug", lambda c: c == 1))))
    rows.append(SummaryRow("risk: hemophilia", "count",
                           tuple(count_of("hemophilia", lambda c: c == 1))))
    rows.append(SummaryRow("karnofsky score of 100", "count",
                           tuple(count_of("karnofsky", lambda c: c == 100))))
    rows.append(SummaryRow("symptomatic hiv infection", "count",
                           tuple(count_of("symptomatic", lambda c: c == 1))))
    rows.append(SummaryRow("baseline cd4 (mean)", "mean", tuple(mean_of("cd4_baseline"))))

    return SummaryTable(tuple(name for name, _ in masks), tuple(rows))
