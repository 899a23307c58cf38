"""SHA-256 digests of the permutation draws, of a null study's files and of
the replica's per-subject counts.

The label-stream contract is "replicate b is exactly
``default_rng(derive_replicate_seed(seed, b)).permutation(codes)``". The
other tests of the stream compare it with numpy itself, and numpy's RNG
policy (NEP 19) does not promise that ``Generator`` methods keep their
streams across releases. If a release moved them, every permutation p-value
would move while those tests, and most likely the acceptance bands, stayed
green. These digests were recorded from the tree before any change to the
stream: a mismatch means the draws moved, not that the test is wrong.

The replica's counts digest pins what the hierarchy sweep and the rank
matrix give at N=2,467, where the sweep runs in tiles of its full size
(the property tests stop at N=60). It was recorded before the sweep learnt
to count only the fields a test reads. The counts come from the CSV's
values by comparisons and sorts alone, so no numpy or scipy release can
move them without a fault.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from multiendpoint import PermutationPlan, derive_endpoints, load_trial_csv
from multiendpoint.cli import main
from multiendpoint.pairwise import BETWEEN, NET, pair_counts
from multiendpoint.rank_tests import rank_matrix
from multiendpoint.resampling import iter_label_blocks

ROOT = Path(__file__).resolve().parents[1]


def stream_digest(plan: PermutationPlan, codes: np.ndarray) -> str:
    """Digest of the stream's rows, one bit per label."""
    h = hashlib.sha256()
    for block in iter_label_blocks(plan, codes):
        h.update(np.packbits(block, axis=1).tobytes())
    return h.hexdigest()


def check(name: str, digest: str, recorded: str) -> None:
    assert digest == recorded, (
        f"{name}: the draws moved under numpy {np.__version__}, not the test; "
        f"every permutation p-value moved with them (digest {digest})"
    )


def halves(n: int) -> np.ndarray:
    return np.repeat(np.array([1, 0], dtype=np.int8), n // 2)


@pytest.mark.parametrize(
    "n, recorded",
    [
        (40, "0e7e3ffe696d1c7456d90d4e044d4e29b2c55b6a0f6f51d108f26dd177981dc7"),
        (200, "75db3370d86178056460d7986c4ecea50274dab368211b467e7c37a0d33ad6d5"),
    ],
)
def test_monte_carlo_stream(n, recorded):
    digest = stream_digest(PermutationPlan.monte_carlo(199, seed=7), halves(n))
    check(f"N={n}, B=199, seed 7", digest, recorded)


def test_replica_stream():
    # The stream of configs/actg175.yaml, on the bundled replica's codes.
    ds = derive_endpoints(load_trial_csv(ROOT / "data" / "actg175_replica.csv"))
    digest = stream_digest(PermutationPlan.monte_carlo(10_000, seed=20240201), ds.group_codes)
    check(
        "replica, B=10,000, seed 20240201", digest,
        "c243f59de34beb4e618a02c64644bd186ea2c323634d3959d947023f6be0982d",
    )


def test_replica_counts():
    ds = derive_endpoints(load_trial_csv(ROOT / "data" / "actg175_replica.csv"))
    counts = pair_counts(ds, collect_ties=True)
    h = hashlib.sha256()
    for a in (counts.net, counts.determinate, counts.wins, counts.losses, counts.ties,
              rank_matrix(ds).ranks):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == "f2be9626fa93df8bfb46722b50474bad14ab48e5224be5a94ad72bd0af0a0eee", (
        f"the replica's pair counts, tie list or midranks moved (digest {h.hexdigest()})"
    )
    # The sweeps of one field set count the same.
    np.testing.assert_array_equal(pair_counts(ds, fields=NET).net, counts.net)
    between = pair_counts(ds, fields=BETWEEN)
    np.testing.assert_array_equal(between.wins, counts.wins)
    np.testing.assert_array_equal(between.losses, counts.losses)


def test_exact_enumeration():
    codes = np.repeat(np.array([1, 0], dtype=np.int8), [5, 7])
    check(
        "exact, C(12, 5)", stream_digest(PermutationPlan.exact(), codes),
        "9c1d844dc47f3930b112f8bbc0c2c32055329d06fdedcf7bc7332b5cd59cbc6c",
    )


SIMULATE_FILES = {
    "rejection_fs.csv": "4ed0e53e83ea851cbea2f1f8bb8c3e0b597b25354310ac760529b6d0db688d83",
    "rejection_global_u.csv": "84852c52cc610a28981f691402155ed0363cb9cf88ac200711d37f7ea82cd3e2",
    "rejection_multirank.csv": "b289be68fccae8fb549129dd29fe32aa00d6a60579c69e4a18e8ddb1794c77b2",
    "rejection_rank_sum.csv": "eb9916ffb6fc3cb8c1c042049e56307cb74dc89636de57d6112f8bed6571f006",
    "rejection_win_ratio.csv": "da941b2283cd989e1171d4eda76484749f446d9cfdd8fc37deecf313826ce456",
    "simulation_summary.txt": "73ec3f7687bb3618765510c4a6455ccb61d75a24498c61e1f4906aec9c816ef2",
}


def test_simulate_files(tmp_path, capsys):
    config = ROOT / "configs" / "null_study.yaml"
    assert main(["simulate", "--config", str(config), "--trials", "40",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SIMULATE_FILES)
    for name, recorded in SIMULATE_FILES.items():
        check(f"simulate null_study.yaml --trials 40: {name}",
              hashlib.sha256((tmp_path / name).read_bytes()).hexdigest(), recorded)
