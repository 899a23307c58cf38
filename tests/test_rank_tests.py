from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiendpoint import (
    Direction,
    EmptyAfterExclusionError,
    EmptyGroupError,
    EndpointKind,
    EndpointSpec,
    PermutationPlan,
    SimConfig,
    TrialDataset,
    multirank_test,
    obrien_test,
    rank_matrix,
    simulate_trial,
)
from multiendpoint.results import MIN_P
import oracles
from support import (
    FLAG,
    SCORE,
    SURV,
    binary,
    cont,
    dataset,
    random_integer_cohort,
    subject,
    subjects_of,
    tte,
)

C1 = EndpointSpec("c1", EndpointKind.CONTINUOUS, priority=1)
C2 = EndpointSpec("c2", EndpointKind.CONTINUOUS, priority=2)
LOW_SCORE = replace(SCORE, direction=Direction.LOWER_IS_BETTER)


def two_endpoint_fixture() -> TrialDataset:
    # E1 = (4,3,2,1), E2 = (10,9,8,7); treatment = first two subjects.
    vals = [(4, 10, 1), (3, 9, 1), (2, 8, 0), (1, 7, 0)]
    subs = [
        subject(f"s{i}", g, c1=cont(a), c2=cont(b))
        for i, (a, b, g) in enumerate(vals)
    ]
    return dataset(subs, [C1, C2])


def one_endpoint_dataset(values, groups) -> TrialDataset:
    subs = [
        subject(f"s{i}", g, c1=cont(v)) for i, (v, g) in enumerate(zip(values, groups))
    ]
    return dataset(subs, [C1])


class TestRankMatrix:
    def test_distinct_column_is_identity_ranking(self):
        ds = one_endpoint_dataset([4, 3, 2, 1], [1, 1, 0, 0])
        rm = rank_matrix(ds)
        assert rm.ranks[:, 0].tolist() == [4.0, 3.0, 2.0, 1.0]

    def test_midranks_on_ties(self):
        ds = one_endpoint_dataset([5, 5, 1], [1, 0, 0])
        rm = rank_matrix(ds)
        assert rm.ranks[:, 0].tolist() == [2.5, 2.5, 1.0]

    def test_two_endpoint_row_sums(self):
        rm = rank_matrix(two_endpoint_fixture())
        assert rm.ranks.sum(axis=1).tolist() == [8.0, 6.0, 4.0, 2.0]

    def test_column_rank_sums_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            subs, specs = random_integer_cohort(rng, int(rng.integers(5, 12)))
            ds = dataset(subs, specs)
            rm = rank_matrix(ds)
            n = rm.n
            assert np.allclose(rm.ranks.sum(axis=0), n * (n + 1) / 2.0)
            assert rm.ranks.min() >= 1.0 and rm.ranks.max() <= n

    def test_complete_case_exclusion_counted(self):
        subs = [
            subject("a", 1, c1=cont(1), c2=cont(2)),
            subject("b", 1, c1=cont(2), c2=cont(None)),
            subject("c", 0, c1=cont(3), c2=cont(4)),
            subject("d", 0, c1=cont(4), c2=cont(1)),
        ]
        rm = rank_matrix(dataset(subs, [C1, C2]))
        assert rm.n_excluded == 1
        assert rm.n == 3

    def test_all_excluded_raises(self):
        subs = [
            subject("a", 1, c1=cont(1), c2=cont(None)),
            subject("b", 0, c1=cont(2), c2=cont(None)),
        ]
        with pytest.raises(EmptyAfterExclusionError):
            rank_matrix(dataset(subs, [C1, C2]))

    def test_survival_endpoint_uses_gehan_scores(self):
        rng = np.random.default_rng(17)
        subs, specs = random_integer_cohort(rng, 9, missing_prob=0.0)
        ds = dataset(subs, specs)
        rm = rank_matrix(ds)
        rows, kept = oracles.rank_rows(subjects_of(ds), specs)
        assert np.allclose(rm.ranks, np.asarray(rows))
        assert len(kept) == rm.n

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.tuples(st.integers(0, 4), st.booleans()),
                st.one_of(st.none(), st.integers(-3, 3)),
                st.one_of(st.none(), st.integers(0, 1)),
            ),
            min_size=0,
            max_size=14,
        ),
        censor_all=st.booleans(),
    )
    def test_ranks_match_oracle_to_the_bit(self, rows, censor_all):
        """Tied and all-censored survival times, a lower-is-better score and
        missing values: the kept subjects and every midrank agree with the
        brute-force ranking by ``float.hex``."""
        specs = [SURV, LOW_SCORE, FLAG]
        rows = [((1, True), 0, 0), ((1, True), 0, 0), *rows]
        subs = [
            subject(
                f"s{i}",
                int(i == 0 or (i > 1 and i % 2 == 0)),
                surv=tte(t, e and not censor_all),
                score=cont(score),
                flag=binary(flag),
            )
            for i, ((t, e), score, flag) in enumerate(rows)
        ]
        ds = dataset(subs, specs)
        want, kept = oracles.rank_rows(subjects_of(ds), specs)
        rm = rank_matrix(ds)
        assert [ds.ids[i] for i in rm.kept_indices] == [s.id for s in kept]
        assert [[float.hex(x) for x in row] for row in rm.ranks.tolist()] == [
            [float.hex(x) for x in row] for row in want
        ]

    def test_direction_alignment(self):
        low = EndpointSpec("c1", EndpointKind.CONTINUOUS, priority=1,
                           direction=Direction.LOWER_IS_BETTER)
        subs = [subject("a", 1, c1=cont(1)), subject("b", 0, c1=cont(9))]
        rm = rank_matrix(dataset(subs, [low]))
        # Lower value is better, so subject a gets the higher rank.
        assert rm.ranks[:, 0].tolist() == [2.0, 1.0]


@pytest.mark.parametrize("plan", [None, PermutationPlan.monte_carlo(9)], ids=["asymptotic", "mc"])
@pytest.mark.parametrize("test", [obrien_test, multirank_test])
def test_an_empty_group_after_exclusion_is_rejected(test, plan):
    # Every treated subject lacks ``score``: complete-case exclusion keeps
    # only the four controls.
    subs = [subject(f"t{i}", 1, surv=tte(i + 1), score=cont()) for i in range(4)]
    subs += [subject(f"c{i}", 0, surv=tte(i + 5), score=cont(i)) for i in range(4)]
    with pytest.raises(EmptyGroupError, match=r"a group is empty .*\(kept=4, treatment=0\)"):
        test(dataset(subs, [SURV, SCORE]), plan=plan)


class TestObrien:
    def test_unknown_variance_rejected(self):
        with pytest.raises(ValueError, match="unknown variance option 'x'"):
            obrien_test(two_endpoint_fixture(), variance="x")

    def test_duplicated_groups_give_zero(self):
        subs = []
        for g in (1, 0):
            for i, (a, b) in enumerate([(5, 1), (7, 2), (9, 0)]):
                subs.append(subject(f"g{g}i{i}", g, c1=cont(a), c2=cont(b)))
        ds = dataset(subs, [C1, C2])
        r = obrien_test(ds)
        assert r.statistic == 0.0
        assert r.p_two_sided == 1.0

    def test_fixture_statistic_and_exact_p(self):
        ds = two_endpoint_fixture()
        r = obrien_test(ds, plan=PermutationPlan.exact())
        assert r.statistic == 4.0  # mean(8,6) - mean(4,2)
        assert r.p_two_sided == pytest.approx(2.0 / 6.0)

    def test_statistics_match_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            subs, specs = random_integer_cohort(rng, int(rng.integers(6, 11)))
            ds = dataset(subs, specs)
            stat, naive, adjusted = oracles.obrien_statistic(subjects_of(ds), specs)
            r_n = obrien_test(ds, variance="naive")
            r_a = obrien_test(ds, variance="adjusted")
            assert r_n.statistic == stat == r_a.statistic
            assert r_n.variance == pytest.approx(naive, rel=1e-12)
            assert r_a.variance == pytest.approx(adjusted, rel=1e-12)

    def test_naive_and_adjusted_agree_under_symmetry(self):
        # Control values are a constant shift of treatment values, so the
        # group variances of the rank sums are equal by construction.
        treatment = [1, 3, 5, 7, 9, 11]
        control = [v + 1 for v in treatment]
        subs = [subject(f"t{i}", 1, c1=cont(v)) for i, v in enumerate(treatment)]
        subs += [subject(f"c{i}", 0, c1=cont(v)) for i, v in enumerate(control)]
        ds = dataset(subs, [C1])
        r_n = obrien_test(ds, variance="naive")
        r_a = obrien_test(ds, variance="adjusted")
        assert r_n.variance == pytest.approx(r_a.variance, rel=0.02)

    @pytest.mark.parametrize("variance", ["naive", "adjusted"])
    def test_zero_variance_z_rule(self, variance):
        # Rank sums constant within each group: the variance is 0 under both
        # estimators, and the Welch df is undefined (NaN).
        for values, z, p in [([1, 1, 1, 1], 0.0, 1.0), ([2, 2, 1, 1], math.inf, MIN_P)]:
            r = obrien_test(one_endpoint_dataset(values, [1, 1, 0, 0]), variance=variance)
            assert (r.variance, r.z, r.p_two_sided) == (0.0, z, p)
            assert r.metadata["degenerate_variance"]

    def test_label_swap_negates_statistic(self):
        ds = simulate_trial(SimConfig.null(12, seed=44))
        swapped = oracles.with_groups(ds, 1 - ds.group_codes)
        r1, r2 = obrien_test(ds), obrien_test(swapped)
        assert r1.statistic == -r2.statistic
        assert r1.p_two_sided == pytest.approx(r2.p_two_sided, rel=1e-12)

    def test_subject_order_invariance(self):
        rng = np.random.default_rng(3)
        subs, specs = random_integer_cohort(rng, 10)
        ds1 = dataset(subs, specs)
        order = rng.permutation(len(subs))
        ds2 = dataset([subs[i] for i in order], specs)
        r1, r2 = obrien_test(ds1), obrien_test(ds2)
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-14)
        assert r1.p_two_sided == pytest.approx(r2.p_two_sided, rel=1e-14)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(51)
        subs, specs = random_integer_cohort(rng, 10, missing_prob=0.0)
        ds = dataset(subs, specs)
        r = obrien_test(ds)
        transformed = [
            subject(
                s.id,
                int(s.group),
                surv=s.outcomes["surv"],
                score=cont(math.atan(s.outcomes["score"].value) * 10.0),
                flag=s.outcomes["flag"],
            )
            for s in subjects_of(ds)
        ]
        r2 = obrien_test(dataset(transformed, specs))
        assert r2.statistic == r.statistic
        assert r2.p_two_sided == r.p_two_sided


class TestMultirank:
    def test_duplicated_groups_give_zero(self):
        subs = []
        for g in (1, 0):
            for i, (a, b) in enumerate([(5, 1), (7, 2), (9, 0)]):
                subs.append(subject(f"g{g}i{i}", g, c1=cont(a), c2=cont(b)))
        ds = dataset(subs, [C1, C2])
        r = multirank_test(ds)
        assert r.statistic == 0.0
        assert r.p_two_sided == 1.0

    def test_k1_reduces_to_squared_standardized_rank_difference(self):
        values = [12, 5, 9, 1, 14, 7, 3, 11, 8, 2]
        groups = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        ds = one_endpoint_dataset(values, groups)
        mr = multirank_test(ds)
        ob = obrien_test(ds, variance="naive")
        assert mr.statistic == pytest.approx(ob.z**2, rel=1e-12)
        plan = PermutationPlan.exact()
        assert (
            multirank_test(ds, plan=plan).p_two_sided
            == obrien_test(ds, plan=plan).p_two_sided
        )

    def test_statistic_matches_brute_force(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            subs, specs = random_integer_cohort(rng, int(rng.integers(6, 11)))
            ds = dataset(subs, specs)
            want = oracles.multirank_statistic(subjects_of(ds), specs)
            got = multirank_test(ds)
            assert got.statistic == pytest.approx(want, rel=1e-12)

    def test_label_swap_leaves_statistic(self):
        ds = simulate_trial(SimConfig.null(12, seed=60))
        swapped = oracles.with_groups(ds, 1 - ds.group_codes)
        r1, r2 = multirank_test(ds), multirank_test(swapped)
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-12)
        assert r1.p_two_sided == pytest.approx(r2.p_two_sided, rel=1e-12)

    def test_singular_covariance_uses_pseudo_inverse(self):
        # Second endpoint duplicates the first: covariance has rank 1.
        subs = [
            subject(f"s{i}", g, c1=cont(v), c2=cont(v))
            for i, (v, g) in enumerate(zip([5, 3, 8, 1, 9, 2], [1, 1, 1, 0, 0, 0]))
        ]
        ds = dataset(subs, [C1, C2])
        with pytest.warns(RuntimeWarning, match="singular"):
            r = multirank_test(ds)
        assert r.metadata["df"] == 1
        assert r.metadata["singular_covariance"]
        assert 0 < r.p_two_sided <= 1

    def test_p_is_one_when_rounding_leaves_the_form_negative(self):
        """Rounding leaves this cohort's pseudo-inverse form about -1.6e-17;
        the chi-square tail is 1 at and below 0, not NaN."""
        rows = [(0, 0, 1), (0, 1, 0), (1, 1, 1)]
        subs = [subject(f"s{i}", g, c1=cont(a), c2=cont(b)) for i, (a, b, g) in enumerate(rows)]
        with pytest.warns(RuntimeWarning, match="singular"):
            r = multirank_test(dataset(subs, [C1, C2]))
        from scipy.stats import chi2

        assert r.p_two_sided == float(chi2.sf(r.statistic, r.metadata["df"])) == 1.0

    @pytest.mark.parametrize("exact", [False, True])
    def test_exactly_singular_covariance_is_found_at_the_scale_of_xtx(self, exact):
        """The control group's two rank columns are collinear and the
        treatment group's are constant, so sigma is exactly singular. Its
        scatter is X'X minus the group-mean products, and rounding there
        leaves an eigenvalue of about -1.1e-15 beside 2.07; a rank tolerance
        taken from sigma itself counted it, and the statistic read -5.4e15
        with df 2 and no flag, an exact p of 1/21."""
        c1, c2 = [0, 0, 0, 1, 0, 0, 0], [1, 1, 1, 0, 2, 2, 1]
        groups = [0, 0, 0, 0, 1, 1, 0]
        subs = [
            subject(f"s{i}", g, c1=cont(a), c2=cont(b))
            for i, (a, b, g) in enumerate(zip(c1, c2, groups))
        ]
        plan = PermutationPlan.exact() if exact else None
        with pytest.warns(RuntimeWarning, match=r"singular \(rank 1 < 2\)"):
            r = multirank_test(dataset(subs, [C1, C2]), plan=plan)
        assert r.metadata["df"] == 1
        assert r.metadata["singular_covariance"]
        # The scatter is w w' with w = (sqrt 9.8, -sqrt 5), sigma = 0.14 w w'
        # and d = (-0.7, 3.5), so the form is (d . w)^2 / |w|^4 / 0.14.
        d_dot_w_sq = 0.49 * 9.8 + 12.25 * 5 + 2 * 0.7 * 3.5 * 7
        assert r.statistic == pytest.approx(d_dot_w_sq / 14.8**2 / 0.14, rel=1e-12)
        assert r.statistic == pytest.approx(oracles.multirank_statistic(subs, [C1, C2]), rel=1e-12)
        if exact:
            want = oracles.exact_pvalue(lambda ss: oracles.multirank_statistic(ss, [C1, C2]), subs)
            assert r.p_two_sided == want == 7 / 21
        else:
            from scipy.stats import chi2

            assert r.p_two_sided == pytest.approx(float(chi2.sf(r.statistic, 1)), rel=1e-12)

    def test_pseudo_inverse_cuts_where_the_rank_does(self):
        """Four subjects leave at most two scatter dimensions for three
        endpoints. Rounding gives sigma a third singular value of 4.6e-15:
        under the rank tolerance (3.5e-14), but above the pseudo-inverse's
        default cutoff (1e-15 of the largest, 3.6e-15), and inverting it
        read -1.1e15 at df 2."""
        specs = [C1, C2, EndpointSpec("c3", EndpointKind.CONTINUOUS, priority=3)]
        rows = [(2, 2, 0, 0), (0, 0, 0, 1), (2, 0, 2, 0), (0, 2, 1, 0)]
        subs = [
            subject(f"s{i}", g, c1=cont(a), c2=cont(b), c3=cont(c))
            for i, (a, b, c, g) in enumerate(rows)
        ]
        ds = dataset(subs, specs)
        with pytest.warns(RuntimeWarning, match=r"singular \(rank 2 < 3\)"):
            r = multirank_test(ds)
        assert r.metadata["df"] == 2
        assert 0 < r.statistic < 1
        assert r.statistic == pytest.approx(oracles.multirank_statistic(subs, specs), rel=1e-12)
        with pytest.warns(RuntimeWarning, match="singular"):
            exact = multirank_test(ds, plan=PermutationPlan.exact())
        want = oracles.exact_pvalue(lambda ss: oracles.multirank_statistic(ss, specs), subs)
        assert exact.p_two_sided == want == 0.5

    def test_too_few_complete_cases_rejected(self):
        ds = one_endpoint_dataset([1, 2], [1, 0])
        with pytest.raises(EmptyAfterExclusionError, match="at least 3"):
            multirank_test(ds)

    def test_chi2_reference_df_equals_rank(self):
        rng = np.random.default_rng(31)
        subs, specs = random_integer_cohort(rng, 12, missing_prob=0.0)
        ds = dataset(subs, specs)
        r = multirank_test(ds)
        from scipy.stats import chi2

        assert r.p_two_sided == pytest.approx(
            float(chi2.sf(r.statistic, r.metadata["df"])), rel=1e-12
        )
