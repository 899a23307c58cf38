"""Command-line driver: ``analyze``, ``summarize`` and ``simulate``.

Configuration is a YAML file. ``KEYS`` lists every key: the subcommands that
read it, its type, its default and its check. A flag overrides the key named
by its argparse ``dest`` (``--trials`` sets ``sim.n_trials``), and a key the
table does not know is a config error. The default config path can be set
through the ``MULTIENDPOINT_CONFIG`` environment variable.

Exit codes:
    0  success
    2  configuration / usage error (ConfigError, bad flags)
    3  input file not found (or not a file)
    4  data error (schema mismatch, parse error, a value the dataset rejects,
       empty group, bad contrast, empty after exclusion)
    5  any other analysis error
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Mapping, Sequence, get_args, get_origin

import yaml

from .errors import (
    ConfigError,
    CsvParseError,
    EmptyAfterExclusionError,
    EmptyGroupError,
    InvalidContrastError,
    InvalidCorrelationError,
    InvalidDataError,
    MissingColumnError,
    MultiEndpointError,
    SchemaMismatchError,
)
from .global_u import endpoint_weights
from .methods import METHOD_NAMES, run_method
from .rank_tests import VARIANCE_ADJUSTED, VARIANCE_NAIVE
from .report import results_text_table, write_results_csv
from .resampling import SEED_BOUND, PermutationPlan, n_assignments
from .results import InferenceMode
from .simgen import (
    NULL_CORRELATION,
    BinaryModel,
    ContinuousModel,
    SimConfig,
    SurvivalModel,
    binomial_band,
    error_rate_study,
)
from .trial_data import (
    DEFAULT_CONTRAST,
    ColumnMapping,
    DerivationConfig,
    baseline_summary,
    derive_endpoints,
    load_trial_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_FOUND = 3
EXIT_DATA = 4
EXIT_ANALYSIS = 5

ENV_CONFIG = "MULTIENDPOINT_CONFIG"

RUN_MODES = tuple(m.value for m in InferenceMode)

DEFAULT_METHODS = ("rank_sum", "fs", "win_ratio", "multirank")

ANALYZE = ("analyze",)
DATA = ("analyze", "summarize")
SIMULATE = ("simulate",)


@dataclass(frozen=True)
class Key:
    """One config key: the subcommands that read it, its YAML type, its
    default, and at most one check with the rule it states."""

    commands: tuple[str, ...]
    kind: Any
    default: Any
    check: Callable[[Any], bool] | None = None
    rule: str = ""

    def read(self, path: str, value: Any) -> Any:
        if not _conforms(value, self.kind):
            raise ConfigError(f"{path}: must be of type {_type_name(self.kind)}, got {value!r}")
        if self.check is not None and not self.check(value):
            raise ConfigError(f"{path}: must be {self.rule}, got {value!r}")
        return float(value) if self.kind is float else value


def _known_methods(names: list[str]) -> bool:
    return bool(names) and set(names) <= set(METHOD_NAMES)


_METHODS_RULE = "a non-empty list of " + ", ".join(METHOD_NAMES)
_SEED = (lambda s: 0 <= s < SEED_BOUND, "in [0, 2**64)")
_COLUMNS = ColumnMapping()

# Range checks that a library type makes on the value it is given
# (ColumnMapping, PermutationPlan, SimConfig and its models, the global-U
# weights) are not repeated here.
KEYS: dict[str, Key] = {
    "input": Key(DATA, str, "", bool, "a CSV path"),
    "contrast": Key(DATA, str, DEFAULT_CONTRAST),
    "columns.subject_id": Key(DATA, str, _COLUMNS.subject_id),
    "columns.arm": Key(DATA, str, _COLUMNS.arm),
    "columns.days": Key(DATA, str, _COLUMNS.days),
    "columns.event": Key(DATA, str, _COLUMNS.event),
    "columns.cd4_baseline": Key(DATA, str | None, _COLUMNS.cd4_baseline),
    "columns.cd4_week20": Key(DATA, str | None, _COLUMNS.cd4_week20),
    "columns.cd4_week96": Key(DATA, str | None, _COLUMNS.cd4_week96),
    "columns.covariates": Key(DATA, dict[str, str], {}),
    "methods": Key(ANALYZE, list[str], list(DEFAULT_METHODS), _known_methods, _METHODS_RULE),
    "inference.mode": Key(ANALYZE, str, InferenceMode.PERMUTATION.value, lambda m: m in RUN_MODES,
                          f"one of {list(RUN_MODES)}"),
    "inference.replicates": Key(ANALYZE, int, 10_000),
    "inference.seed": Key(ANALYZE, int, 0, *_SEED),
    "rank_sum.variance": Key(ANALYZE, str, VARIANCE_NAIVE,
                             lambda v: v in (VARIANCE_NAIVE, VARIANCE_ADJUSTED),
                             f"{VARIANCE_NAIVE!r} or {VARIANCE_ADJUSTED!r}"),
    "global_u.weights": Key(ANALYZE, dict[str, float] | None, None),
    "include_week96": Key(ANALYZE, bool, True),
    "sim.n_per_group": Key(SIMULATE, int, 20),
    "sim.n_trials": Key(SIMULATE, int, 2000, lambda n: n >= 1, ">= 1"),
    "sim.alpha": Key(SIMULATE, float, 0.05, lambda a: 0.0 < a < 1.0, "in (0, 1)"),
    "sim.methods": Key(SIMULATE, list[str], list(DEFAULT_METHODS), _known_methods,
                       _METHODS_RULE),
    "sim.replicates": Key(SIMULATE, int, 199),
    "sim.seed": Key(SIMULATE, int, 0, *_SEED),
    "sim.hazard_treatment": Key(SIMULATE, float, 0.002),
    "sim.hazard_control": Key(SIMULATE, float, 0.002),
    "sim.censor_horizon": Key(SIMULATE, float, 1000.0),
    "sim.marker_mean_treatment": Key(SIMULATE, float, 0.0),
    "sim.marker_mean_control": Key(SIMULATE, float, 0.0),
    "sim.marker_sd_treatment": Key(SIMULATE, float, 1.0),
    "sim.marker_sd_control": Key(SIMULATE, float, 1.0),
    "sim.response_p_treatment": Key(SIMULATE, float, 0.5),
    "sim.response_p_control": Key(SIMULATE, float, 0.5),
    "sim.correlation": Key(SIMULATE, list[list[float]], [list(r) for r in NULL_CORRELATION]),
    "out": Key(DATA + SIMULATE, str | None, None),
}

_SECTIONS = {path.split(".")[0] for path in KEYS if "." in path}


def _conforms(value: Any, kind: Any) -> bool:
    """Whether a YAML value has type ``kind``. A bool is never a number, an
    int is a float, and a float must be finite."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType:
        return any(_conforms(value, k) for k in args)
    if origin is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _conforms(k, args[0]) and _conforms(v, args[1]) for k, v in value.items()
        )
    if isinstance(value, bool) is not (kind is bool):
        return False
    if kind is float:  # exact comparison: rejects NaN, inf and ints past float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _type_name(kind: Any) -> str:
    return str(kind) if get_origin(kind) else kind.__name__


def _load_yaml(path: str | None) -> dict[str, Any]:
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(str(p))
    try:  # from bytes, so YAML's reader decodes and bad UTF-8 is bad YAML in any locale
        data = yaml.safe_load(p.read_bytes())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {' '.join(str(exc).split())}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return data


def _flatten(cfg: Mapping[str, Any], prefix: str = "") -> dict[str, Any]:
    """The file's values by dotted key. A section (absent or null is empty)
    must be a mapping; a key not in ``KEYS``, or written with a dot, is unknown."""
    flat: dict[str, Any] = {}
    for name, value in cfg.items():
        path = f"{prefix}{name}"
        if path in _SECTIONS:
            if value is not None and not isinstance(value, Mapping):
                raise ConfigError(f"{path}: must be a mapping, got {value!r}")
            flat.update(_flatten(value or {}, f"{path}."))
        elif path in KEYS and "." not in str(name):
            flat[path] = value
        else:
            raise ConfigError(f"{path}: unknown key")
    return flat


def resolve(args: argparse.Namespace) -> dict[str, Any]:
    """Every key that ``args.command`` reads, by dotted key: the flag whose
    ``dest`` is that key if one was given, else the config file's value, else
    the default. Every file value is typed and checked, read or not."""
    given = _flatten(_load_yaml(args.config))
    given = {path: KEYS[path].read(path, value) for path, value in given.items()}
    given.update((path, v) for path, v in vars(args).items() if path in KEYS and v is not None)
    return {
        path: key.read(path, given.get(path, key.default))
        for path, key in KEYS.items()
        if args.command in key.commands
    }


def _out_dir(path: str) -> Path:
    """The ``out`` directory, made if absent; a ConfigError if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot make directory {path!r}: {exc.strerror}") from exc
    return out


@contextmanager
def _config_errors(path: str):
    """A library type's own range check on a config value is a ConfigError."""
    try:
        yield
    except (ValueError, InvalidCorrelationError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_trial(cfg: Mapping[str, Any]):
    columns = {p.removeprefix("columns."): v for p, v in cfg.items() if p.startswith("columns.")}
    columns["covariates"] = {**_COLUMNS.covariates, **columns["covariates"]}
    with _config_errors("columns.covariates"):
        mapping = ColumnMapping(**columns)
    return load_trial_csv(cfg["input"], mapping, cfg["contrast"])


def _plan(cfg: Mapping[str, Any]) -> PermutationPlan | None:
    mode = InferenceMode(cfg["inference.mode"])
    if mode is InferenceMode.ASYMPTOTIC:
        return None
    with _config_errors("inference.replicates"):
        return PermutationPlan(mode, cfg["inference.replicates"], cfg["inference.seed"])


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = resolve(args)
    plan = _plan(cfg)
    raw = _load_trial(cfg)
    ds = derive_endpoints(
        raw, DerivationConfig(contrast=cfg["contrast"], include_week96=cfg["include_week96"])
    )
    if plan is not None:
        n_assignments(plan, ds.n, ds.n_treatment)  # an exact plan's cap, before any test
    summary = baseline_summary(ds)
    weights = cfg["global_u.weights"]
    with _config_errors("global_u.weights"):
        endpoint_weights(ds, weights)
    variance = cfg["rank_sum.variance"]
    out = _out_dir(cfg["out"]) if cfg["out"] else None  # an unusable out fails before any test
    results = [run_method(m, ds, plan, variance=variance, weights=weights) for m in cfg["methods"]]

    baseline_text = summary.to_text()
    results_text = results_text_table(results)
    print(baseline_text)
    print(results_text, end="")
    if out is not None:
        (out / "baseline.txt").write_text(baseline_text)
        (out / "baseline.csv").write_text(summary.to_csv())
        (out / "results.txt").write_text(results_text)
        write_results_csv(results, out / "results.csv")
    return EXIT_OK


def cmd_summarize(args: argparse.Namespace) -> int:
    cfg = resolve(args)
    summary = baseline_summary(_load_trial(cfg))
    text = summary.to_text()
    print(text, end="")
    if cfg["out"]:
        out = _out_dir(cfg["out"])
        (out / "baseline.txt").write_text(text)
        (out / "baseline.csv").write_text(summary.to_csv())
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    sim = {p.removeprefix("sim."): v for p, v in resolve(args).items()}
    with _config_errors("sim"):
        cfg = SimConfig(
            n_per_group=sim["n_per_group"],
            survival=SurvivalModel(
                sim["hazard_treatment"], sim["hazard_control"], sim["censor_horizon"]
            ),
            continuous=ContinuousModel(
                sim["marker_mean_treatment"], sim["marker_mean_control"],
                sim["marker_sd_treatment"], sim["marker_sd_control"],
            ),
            binary=BinaryModel(sim["response_p_treatment"], sim["response_p_control"]),
            correlation=tuple(tuple(map(float, row)) for row in sim["correlation"]),
            seed=sim["seed"],
        )
        plan = PermutationPlan.monte_carlo(sim["replicates"], seed=cfg.seed)
    alpha, n_trials = sim["alpha"], sim["n_trials"]

    out = _out_dir(sim["out"] or "simulation_out")

    band_low, band_high = binomial_band(alpha, n_trials)
    lines = [
        f"null-calibration study: alpha={alpha}, n_trials={n_trials}, "
        f"n_per_group={cfg.n_per_group}, replicates_per_test={plan.replicates}",
        f"95% binomial band around alpha: [{band_low:.4f}, {band_high:.4f}]",
    ]
    for m in sim["methods"]:
        try:
            report = error_rate_study(cfg, m, alpha, n_trials, plan)
        except InvalidDataError as exc:
            # Simulated times and responses are valid for any accepted
            # setting; only the marker, mean + SD x z, can leave float range.
            raise ConfigError(
                f"sim.marker_mean_* / sim.marker_sd_*: the simulated marker overflows ({exc})"
            ) from exc
        flag = "within-band" if band_low <= report.rate <= band_high else "OUT-OF-BAND"
        lines.append(
            f"{m}: rejection rate {report.rate:.4f} "
            f"(95% CI {report.ci_low:.4f}-{report.ci_high:.4f}) {flag}"
        )
        with open(out / f"rejection_{m}.csv", "w") as fh:
            fh.write("method,alpha,n_trials,n_rejected,rate,ci_low,ci_high,seed\n")
            fh.write(
                f"{report.method},{report.alpha!r},{report.n_trials},{report.n_rejected},"
                f"{report.rate!r},{report.ci_low!r},{report.ci_high!r},{report.seed}\n"
            )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    (out / "simulation_summary.txt").write_text(text)
    return EXIT_OK


def _comma_list(text: str) -> list[str]:
    return [m.strip() for m in text.split(",") if m.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiendpoint",
        description="Two-group multiple-endpoint tests with permutation inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help=f"YAML config path (default from ${ENV_CONFIG})")
        p.add_argument("--out", help="output directory")

    pa = sub.add_parser("analyze", help="run the selected tests and emit tables")
    common(pa)
    pa.add_argument("--input", help="input CSV path")
    pa.add_argument("--contrast", help="arm contrast, e.g. rest_vs_0 or 1_vs_0")
    pa.add_argument("--methods", type=_comma_list,
                    help="comma-separated subset of " + ",".join(METHOD_NAMES))
    pa.add_argument("--mode", dest="inference.mode", choices=RUN_MODES, help="inference mode")
    pa.add_argument("--replicates", dest="inference.replicates", type=int,
                    help="Monte Carlo replicates")
    pa.add_argument("--seed", dest="inference.seed", type=int, help="master seed")
    pa.add_argument("--variance", dest="rank_sum.variance",
                    choices=(VARIANCE_NAIVE, VARIANCE_ADJUSTED),
                    help="rank-sum variance estimator")

    ps = sub.add_parser("summarize", help="emit the baseline characteristics table")
    common(ps)
    ps.add_argument("--input", help="input CSV path")
    ps.add_argument("--contrast", help="arm contrast")

    pm = sub.add_parser("simulate", help="run a rejection-rate simulation study")
    common(pm)
    pm.add_argument("--seed", dest="sim.seed", type=int, help="master seed")
    pm.add_argument("--trials", dest="sim.n_trials", type=int, help="number of simulated trials")
    pm.add_argument("--replicates", dest="sim.replicates", type=int,
                    help="permutation replicates per test")
    pm.add_argument("--methods", dest="sim.methods", type=_comma_list,
                    help="comma-separated method list")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"analyze": cmd_analyze, "summarize": cmd_summarize, "simulate": cmd_simulate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (
        SchemaMismatchError,
        CsvParseError,
        InvalidDataError,
        EmptyGroupError,
        MissingColumnError,
        InvalidContrastError,
        EmptyAfterExclusionError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MultiEndpointError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
