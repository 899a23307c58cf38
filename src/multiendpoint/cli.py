"""Command-line driver: ``analyze``, ``summarize`` and ``simulate``.

Configuration is a YAML file (see README for the key reference); every key
a subcommand uses can also be supplied as a command-line flag, and flags win
over the file. The default config path can be set through the
``MULTIENDPOINT_CONFIG`` environment variable.

Exit codes:
    0  success
    2  configuration / usage error (ConfigError, bad flags)
    3  input file not found
    4  data error (schema mismatch, parse error, empty group, bad contrast,
       empty after exclusion)
    5  any other analysis error
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from .errors import (
    ConfigError,
    CsvParseError,
    EmptyAfterExclusionError,
    EmptyGroupError,
    InvalidContrastError,
    InvalidCorrelationError,
    MissingColumnError,
    MultiEndpointError,
    SchemaMismatchError,
)
from .global_u import KernelSpec, default_kernels
from .methods import METHOD_NAMES, run_method
from .rank_tests import VARIANCE_ADJUSTED, VARIANCE_NAIVE
from .report import results_text_table, write_results_csv
from .resampling import MODE_EXACT, MODE_MONTE_CARLO, PermutationPlan
from .simgen import BinaryModel, ContinuousModel, SimConfig, SurvivalModel, binomial_band, error_rate_study
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

MODE_ASYMPTOTIC = "asymptotic"
MODE_PERMUTATION = "permutation"
RUN_MODES = (MODE_PERMUTATION, MODE_ASYMPTOTIC, "exact")

DEFAULT_METHODS = ("rank_sum", "fs", "win_ratio", "multirank")


@dataclass
class RunConfig:
    """Validated settings for the ``analyze`` subcommand."""

    input: str
    contrast: str = DEFAULT_CONTRAST
    methods: tuple[str, ...] = DEFAULT_METHODS
    mode: str = MODE_PERMUTATION
    replicates: int = 10_000
    seed: int = 0
    variance: str = VARIANCE_NAIVE
    weights: dict[str, float] | None = None
    include_week96: bool = True
    columns: dict[str, Any] = field(default_factory=dict)
    out: str | None = None

    def validate(self) -> None:
        if not self.input:
            raise ConfigError("input: a CSV path is required")
        if not self.methods:
            raise ConfigError("methods: must be non-empty")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigError(f"methods: unknown method {m!r}; known: {list(METHOD_NAMES)}")
        if self.mode not in RUN_MODES:
            raise ConfigError(f"inference.mode: must be one of {list(RUN_MODES)}")
        if self.replicates < 1:
            raise ConfigError("inference.replicates: must be >= 1")
        if self.seed < 0:
            raise ConfigError("inference.seed: must be >= 0")
        if self.variance not in (VARIANCE_NAIVE, VARIANCE_ADJUSTED):
            raise ConfigError("rank_sum.variance: must be 'naive' or 'adjusted'")
        if self.weights is not None:
            if not isinstance(self.weights, Mapping):
                raise ConfigError(f"global_u.weights: must be a mapping, got {self.weights!r}")
            for k, v in self.weights.items():
                if not (isinstance(v, (int, float)) and v >= 0 and math.isfinite(float(v))):
                    raise ConfigError(f"global_u.weights.{k}: must be a finite number >= 0")

    def plan(self) -> PermutationPlan | None:
        if self.mode == MODE_ASYMPTOTIC:
            return None
        if self.mode == "exact":
            return PermutationPlan(MODE_EXACT, master_seed=self.seed)
        return PermutationPlan(MODE_MONTE_CARLO, self.replicates, self.seed)

    def column_mapping(self) -> ColumnMapping:
        return mapping_from_config(self.columns)


def mapping_from_config(cfg: Mapping[str, Any]) -> ColumnMapping:
    base = ColumnMapping()
    if not cfg:
        return base
    kwargs: dict[str, Any] = {}
    simple = ("subject_id", "arm", "days", "event", "cd4_baseline", "cd4_week20", "cd4_week96")
    for key in simple:
        if key in cfg:
            kwargs[key] = cfg[key]
    unknown = set(cfg) - set(simple) - {"covariates"}
    if unknown:
        raise ConfigError(f"columns: unknown key(s) {sorted(unknown)}")
    if "covariates" in cfg:
        cov = dict(base.covariates)
        cov.update(_section(cfg, "columns.covariates"))
        kwargs["covariates"] = cov
    return ColumnMapping(
        **{**{k: getattr(base, k) for k in simple}, "covariates": base.covariates, **kwargs}
    )


def _read(section: Mapping[str, Any], name: str, kind: type, default: Any) -> Any:
    """The value of the dotted key ``name`` (its last part, looked up in
    ``section``) as ``kind``. Another YAML type is a ConfigError, never a
    coercion; an integer is accepted as a float."""
    value = section.get(name.rsplit(".", 1)[-1], default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{name}: must be of type {kind.__name__}, got {value!r}")
    return kind(value)


def _section(cfg: Mapping[str, Any], name: str) -> Mapping[str, Any]:
    """The mapping under the dotted key ``name`` (its last part, looked up in
    ``cfg``); absent or null is empty, any other non-mapping a ConfigError."""
    value = cfg.get(name.rsplit(".", 1)[-1])
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name}: must be a mapping, got {value!r}")
    return value


def _method_names(value: Any, name: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(m, str) for m in value):
        raise ConfigError(f"{name}: must be a list of method names, got {value!r}")
    return value


def _load_yaml(path: str | None) -> dict[str, Any]:
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(str(p))
    with open(p) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return data


def run_config_from_sources(file_cfg: Mapping[str, Any], args: argparse.Namespace) -> RunConfig:
    inference = _section(file_cfg, "inference")
    rank_sum = _section(file_cfg, "rank_sum")
    glob = _section(file_cfg, "global_u")

    methods = _method_names(file_cfg.get("methods", list(DEFAULT_METHODS)), "methods")
    if args.methods is not None:
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]

    cfg = RunConfig(
        input=args.input or file_cfg.get("input", ""),
        contrast=args.contrast or file_cfg.get("contrast", DEFAULT_CONTRAST),
        methods=tuple(methods),
        mode=args.mode or inference.get("mode", MODE_PERMUTATION),
        replicates=(
            args.replicates if args.replicates is not None
            else _read(inference, "inference.replicates", int, 10_000)
        ),
        seed=args.seed if args.seed is not None else _read(inference, "inference.seed", int, 0),
        variance=args.variance or rank_sum.get("variance", VARIANCE_NAIVE),
        weights=glob.get("weights"),
        include_week96=_read(file_cfg, "include_week96", bool, True),
        columns=_section(file_cfg, "columns"),
        out=args.out or file_cfg.get("out"),
    )
    cfg.validate()
    return cfg


def _kernels_for(ds, weights: dict[str, float] | None) -> list[KernelSpec] | None:
    if weights is None:
        return None
    kernels = []
    for spec in default_kernels(ds):
        if spec.endpoint in weights:
            kernels.append(KernelSpec(spec.endpoint, spec.kernel, float(weights[spec.endpoint])))
        else:
            kernels.append(spec)
    unknown = set(weights) - {k.endpoint for k in kernels}
    if unknown:
        raise ConfigError(f"global_u.weights: unknown endpoint(s) {sorted(unknown)}")
    return kernels


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = run_config_from_sources(_load_yaml(args.config), args)
    raw = load_trial_csv(cfg.input, cfg.column_mapping(), cfg.contrast)
    ds = derive_endpoints(
        raw, DerivationConfig(contrast=cfg.contrast, include_week96=cfg.include_week96)
    )
    summary = baseline_summary(ds)
    plan = cfg.plan()
    kernels = _kernels_for(ds, cfg.weights)
    results = [run_method(m, ds, plan, variance=cfg.variance, kernels=kernels) for m in cfg.methods]

    baseline_text = summary.to_text()
    results_text = results_text_table(results)
    print(baseline_text)
    print(results_text, end="")
    if cfg.out:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "baseline.txt").write_text(baseline_text)
        (out / "baseline.csv").write_text(summary.to_csv())
        (out / "results.txt").write_text(results_text)
        write_results_csv(results, out / "results.csv")
    return EXIT_OK


def cmd_summarize(args: argparse.Namespace) -> int:
    file_cfg = _load_yaml(args.config)
    input_path = args.input or file_cfg.get("input", "")
    if not input_path:
        raise ConfigError("input: a CSV path is required")
    contrast = args.contrast or file_cfg.get("contrast", DEFAULT_CONTRAST)
    mapping = mapping_from_config(_section(file_cfg, "columns"))
    raw = load_trial_csv(input_path, mapping, contrast)
    summary = baseline_summary(raw)
    text = summary.to_text()
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "baseline.txt").write_text(text)
        (out / "baseline.csv").write_text(summary.to_csv())
    return EXIT_OK


def sim_config_from_mapping(sim: Mapping[str, Any]) -> SimConfig:
    n_per_group = _read(sim, "sim.n_per_group", int, 20)
    if n_per_group < 1:
        raise ConfigError("sim.n_per_group: must be a positive integer")
    corr = sim.get("correlation")
    if corr is None:
        corr = SimConfig.null(n_per_group).correlation
    elif not (
        isinstance(corr, list)
        and all(isinstance(row, list) for row in corr)
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for row in corr for v in row)
    ):
        raise ConfigError(f"sim.correlation: must be a list of rows of numbers, got {corr!r}")
    try:
        return SimConfig(
            n_per_group=n_per_group,
            survival=SurvivalModel(
                _read(sim, "sim.hazard_treatment", float, 0.002),
                _read(sim, "sim.hazard_control", float, 0.002),
                _read(sim, "sim.censor_horizon", float, 1000.0),
            ),
            continuous=ContinuousModel(
                _read(sim, "sim.marker_mean_treatment", float, 0.0),
                _read(sim, "sim.marker_mean_control", float, 0.0),
                _read(sim, "sim.marker_sd_treatment", float, 1.0),
                _read(sim, "sim.marker_sd_control", float, 1.0),
            ),
            binary=BinaryModel(
                _read(sim, "sim.response_p_treatment", float, 0.5),
                _read(sim, "sim.response_p_control", float, 0.5),
            ),
            correlation=tuple(tuple(float(v) for v in row) for row in corr),
            seed=_read(sim, "sim.seed", int, 0),
        )
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc


def cmd_simulate(args: argparse.Namespace) -> int:
    file_cfg = _load_yaml(args.config)
    sim = dict(_section(file_cfg, "sim"))
    if args.seed is not None:
        sim["seed"] = args.seed
    if args.trials is not None:
        sim["n_trials"] = args.trials
    if args.replicates is not None:
        sim["replicates"] = args.replicates

    methods = _method_names(sim.get("methods", list(DEFAULT_METHODS)), "sim.methods")
    if args.methods is not None:
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("sim.methods: must be non-empty")
    for m in methods:
        if m not in METHOD_NAMES:
            raise ConfigError(f"sim.methods: unknown method {m!r}")

    alpha = _read(sim, "sim.alpha", float, 0.05)
    n_trials = _read(sim, "sim.n_trials", int, 2000)
    replicates = _read(sim, "sim.replicates", int, 199)
    if not 0.0 < alpha < 1.0:
        raise ConfigError("sim.alpha: must lie in (0, 1)")
    if n_trials < 1:
        raise ConfigError("sim.n_trials: must be >= 1")
    if replicates < 1:
        raise ConfigError("sim.replicates: must be >= 1")
    cfg = sim_config_from_mapping(sim)
    plan = PermutationPlan.monte_carlo(replicates, seed=cfg.seed)

    out = Path(args.out or file_cfg.get("out", "simulation_out"))
    out.mkdir(parents=True, exist_ok=True)

    band_low, band_high = binomial_band(alpha, n_trials)
    lines = [
        f"null-calibration study: alpha={alpha}, n_trials={n_trials}, "
        f"n_per_group={cfg.n_per_group}, replicates_per_test={replicates}",
        f"95% binomial band around alpha: [{band_low:.4f}, {band_high:.4f}]",
    ]
    for m in methods:
        report = error_rate_study(cfg, m, alpha, n_trials, plan)
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
    pa.add_argument("--methods", help="comma-separated subset of " + ",".join(METHOD_NAMES))
    pa.add_argument("--mode", choices=RUN_MODES, help="inference mode")
    pa.add_argument("--replicates", type=int, help="Monte Carlo replicates")
    pa.add_argument("--seed", type=int, help="master seed")
    pa.add_argument("--variance", choices=(VARIANCE_NAIVE, VARIANCE_ADJUSTED),
                    help="rank-sum variance estimator")

    ps = sub.add_parser("summarize", help="emit the baseline characteristics table")
    common(ps)
    ps.add_argument("--input", help="input CSV path")
    ps.add_argument("--contrast", help="arm contrast")

    pm = sub.add_parser("simulate", help="run a rejection-rate simulation study")
    common(pm)
    pm.add_argument("--seed", type=int, help="master seed")
    pm.add_argument("--trials", type=int, help="number of simulated trials")
    pm.add_argument("--replicates", type=int, help="permutation replicates per test")
    pm.add_argument("--methods", help="comma-separated method list")

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
        EmptyGroupError,
        MissingColumnError,
        InvalidContrastError,
        EmptyAfterExclusionError,
        InvalidCorrelationError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MultiEndpointError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
