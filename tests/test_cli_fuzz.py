"""Malformed input never ends in a traceback: random edits to the cells of a
small ACTG-shaped CSV and to the values of a config each end in one of the
documented exit codes (0, 2, 3, 4 or 5)."""

from __future__ import annotations

import csv
import io
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import yaml
from hypothesis import example, given
from hypothesis import strategies as st

from multiendpoint.cli import KEYS, main
from multiendpoint.methods import METHOD_NAMES

REPLICA = Path(__file__).resolve().parents[1] / "data" / "actg175_replica.csv"
with open(REPLICA, newline="") as _fh:
    _reader = csv.DictReader(_fh)
    FIELDS = list(_reader.fieldnames)
    ROWS = [row for _, row in zip(range(12), _reader)]  # every arm, 0 to 3

ENDPOINTS = ("composite_event", "cd4_change_20wk", "cd4_week96")
BASE_CONFIG = {
    "methods": list(METHOD_NAMES),
    "inference": {"replicates": 19},
    "sim": {"n_per_group": 4, "n_trials": 2, "replicates": 9, "methods": list(METHOD_NAMES)},
}
EXIT_CODES = {0, 2, 3, 4, 5}

tokens = st.sampled_from(
    ["inf", "-inf", "NAN", "nan", "1e400", "-1", "2.5", "", "x", "0", "1", "2", "3", "NA"]
) | st.text(max_size=4)
cell_edits = st.lists(
    st.tuples(st.integers(0, len(ROWS) - 1), st.sampled_from(FIELDS), tokens), max_size=3
)
config_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.sampled_from([*METHOD_NAMES, "bogus"]), max_size=3),
    st.dictionaries(st.sampled_from(ENDPOINTS), st.just(0.0) | st.floats(0, 2), max_size=3),
)
config_edits = st.lists(st.tuples(st.sampled_from(sorted(KEYS)), config_values), max_size=2)


def write_input(directory: Path, source: str, edits) -> str:
    if source == "directory":
        return str(directory)
    rows = [dict(row) for row in ROWS]
    for i, column, token in edits:
        rows[i][column] = token
    fields = FIELDS + FIELDS[-1:] if source == "repeated-column" else FIELDS
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(fields)
    writer.writerows([row[f] for f in fields] for row in rows)
    data = text.getvalue().encode("utf-8", "surrogatepass")
    if source == "latin-1":
        data = data.replace(b",", b"\xe9,", 1)
    path = directory / "trial.csv"
    path.write_bytes(data)
    return str(path)


def write_config(directory: Path, edits) -> str:
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    for key, value in edits:
        *sections, name = key.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
    path = directory / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


@given(
    st.sampled_from(["analyze", "summarize", "simulate"]),
    st.sampled_from(["csv", "directory", "latin-1", "repeated-column"]),
    cell_edits,
    config_edits,
)
@example("analyze", "csv", [(0, "days", "inf")], [])
@example("analyze", "csv", [(0, "days", "NAN")], [])
@example("analyze", "csv", [(0, "cd420", "-inf")], [])
@example("analyze", "csv", [(0, "cd420", "1e400")], [])
@example("analyze", "csv", [(0, "cd40", "inf")], [])
@example("analyze", "csv", [(0, "arms", "2.5")], [])
@example("analyze", "csv", [(0, "arms", "inf")], [])
@example("analyze", "csv", [(1, "pidnum", ROWS[0]["pidnum"])], [])
@example("analyze", "directory", [], [])
@example("analyze", "latin-1", [], [])
@example("analyze", "repeated-column", [], [])
@example("analyze", "csv", [], [("global_u.weights", dict.fromkeys(ENDPOINTS, 0.0))])
@example("analyze", "csv", [], [("inference.mode", "asymptotic")])
@example("analyze", "csv", [], [("inference.seed", 2**64)])
@example("simulate", "csv", [], [("sim.marker_mean_control", 1.7e308),
                                 ("sim.marker_sd_control", 1.7e308)])
def test_cli_exits_with_a_documented_code(command, source, cells, config):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(err):
        tmp = Path(tmp)
        argv = [command, "--config", write_config(tmp, config), "--out", str(tmp / "out")]
        if command != "simulate":
            argv += ["--input", write_input(tmp, source, cells)]
        code = main(argv)
    assert code in EXIT_CODES, err.getvalue()
    assert "Traceback" not in err.getvalue()
