import functools
import operator
import re

import pytest
from hypothesis import given, settings, strategies as st

import khr.laurent
import khr.sweep
from khr.dyck import (
    DyckPath,
    KnotParams,
    coprime_pairs,
    corners,
    distance,
    enumerate_paths,
    interior_points,
    k_of,
    k_values,
    most_distant,
    pass_through_points,
    rational_catalan,
)
from khr.laurent import A, Invariant, LaurentPoly, ONE, T, poly_sum, q_power
from khr.sweep import (
    HHH_PROFILE,
    Rule,
    TORIC_PROFILE,
    WeightProfile,
    apply_rule,
    branches,
    classify,
    evaluate,
    event_list,
    expected_steps,
    initial_coloring,
    ordered_leaves,
    reconstruct_path,
)

from .branch_walk import branches_by_path
from .oracles import brute_k

mono = LaurentPoly.monomial
small_coprime = st.sampled_from(coprime_pairs(10))


class TestStateTypes:
    def test_initial_coloring(self):
        assert initial_coloring(KnotParams(3, 2)) == ((0, 2),)
        assert initial_coloring(KnotParams(1, 1)) == ((0, 1),)
        assert initial_coloring(KnotParams(4, 3)) == ((0, 3),)


class TestEvents:
    def test_32_events(self):
        params = KnotParams(3, 2)
        assert [(p, distance(params, p)) for p in event_list(params)] == [
            ((1, 1), 1),
            ((2, 2), 2),
            ((0, 1), 3),
            ((1, 2), 4),
            ((0, 2), 6),
        ]

    def test_11_events(self):
        params = KnotParams(1, 1)
        assert [(p, distance(params, p)) for p in event_list(params)] == [((0, 1), 1)]

    @given(small_coprime)
    def test_last_event_is_top_corner(self, params):
        last = event_list(params)[-1]
        assert last == (0, params.n)
        assert distance(params, last) == params.m * params.n

    @given(small_coprime)
    def test_heights_strictly_increase(self, params):
        ds = [distance(params, p) for p in event_list(params)]
        assert all(a < b for a, b in zip(ds, ds[1:]))


class TestClassifyApply:
    def test_branch_inside(self):
        state = ((0, 2),)
        assert classify(state, (1, 1)) == (Rule.BRANCH, 0)

    def test_contract_at_both_endpoints(self):
        state = ((0, 1), (1, 2))
        assert classify(state, (0, 1)) == (Rule.CONTRACT, 0)

    def test_start_pass(self):
        state = ((0, 2),)
        assert classify(state, (0, 1)) == (Rule.START_PASS, 0)

    def test_end_pass_and_noop(self):
        state = ((0, 1), (1, 2))
        assert classify(state, (2, 2)) == (Rule.END_PASS, 1)
        assert classify(((0, 1),), (4, 2)) == (Rule.NOOP, None)

    def test_apply_branch_splits_interval(self):
        state = ((0, 2),)
        (cut, cut_tag, cut_k), (keep, keep_tag, keep_k) = apply_rule(state, (1, 1))
        assert cut == ((0, 1), (1, 2))
        assert cut_tag is Rule.SPLIT and cut_k == 1
        assert keep is state and keep_tag is Rule.KEEP and keep_k == 1
        assert HHH_PROFILE.weight(Rule.SPLIT, 1) == q_power(-1)
        assert HHH_PROFILE.weight(Rule.KEEP, 1) == T * q_power(-1)

    def test_apply_contract_drops_interval(self):
        state = ((0, 1), (1, 2))
        ((rest, tag, k),) = apply_rule(state, (0, 1))
        assert rest == ((1, 2),)
        assert tag is Rule.CONTRACT and k == 1
        assert HHH_PROFILE.weight(Rule.CONTRACT, 1) == q_power(1) - A

    def test_apply_final_contract_is_terminal(self):
        state = ((1, 2),)
        ((rest, tag, _),) = apply_rule(state, (1, 2))
        assert tag is Rule.TERMINAL and rest == ()
        assert HHH_PROFILE.base == Invariant(ONE, 1)

    def test_apply_pass_and_noop_keep_state(self):
        state = ((0, 1), (1, 2))
        assert apply_rule(state, (2, 2)) == ((state, Rule.END_PASS, 2),)
        wide = ((0, 2),)
        assert apply_rule(wide, (0, 1)) == ((wide, Rule.START_PASS, 1),)
        narrow = ((0, 1),)
        assert apply_rule(narrow, (4, 2)) == ((narrow, Rule.NOOP, None),)


class TestProfiles:
    def test_hhh_weights(self):
        assert HHH_PROFILE.weight(Rule.CONTRACT, 2) == q_power(2) - A
        assert HHH_PROFILE.weight(Rule.START_PASS, 3) == ONE
        assert HHH_PROFILE.weight(Rule.END_PASS, 3) == ONE
        assert HHH_PROFILE.weight(Rule.SPLIT, 2) == q_power(-2)
        assert HHH_PROFILE.weight(Rule.KEEP, 2) == T * q_power(-2)

    def test_toric_weights(self):
        assert TORIC_PROFILE.weight(Rule.CONTRACT, 2) == A - q_power(2)
        assert TORIC_PROFILE.weight(Rule.START_PASS, 2) == -q_power(1)
        assert TORIC_PROFILE.weight(Rule.END_PASS, 2) == q_power(1)
        assert TORIC_PROFILE.weight(Rule.SPLIT, 5) == mono(1, q2=-1)
        assert TORIC_PROFILE.weight(Rule.KEEP, 5) == T
        assert TORIC_PROFILE.base == Invariant(A - ONE, 0)

    def test_untagged_rules_have_no_weight(self):
        for rule in (Rule.BRANCH, Rule.NOOP, Rule.TERMINAL):
            with pytest.raises(ValueError, match="no weight"):
                HHH_PROFILE.weight(rule, 1)


class TestEvaluateHHH:
    def test_trefoil_total(self):
        result = evaluate(KnotParams(3, 2), HHH_PROFILE)
        expected = Invariant(q_power(-1) * (T + mono(1, q2=2) - A), 1)
        assert result.total == expected
        assert len(result.leaves) == 2

    def test_trefoil_leaves(self):
        result = evaluate(KnotParams(3, 2), HHH_PROFILE)
        by_path = {str(leaf.path): Invariant(leaf.num, result.dpow) for leaf in result.leaves}
        assert by_path["NNEEE"] == Invariant(T * q_power(-1), 1)
        assert by_path["NENEE"] == Invariant(q_power(-1) * (mono(1, q2=2) - A), 1)

    def test_unknot(self):
        result = evaluate(KnotParams(1, 1), HHH_PROFILE)
        assert result.total == Invariant(ONE, 1)
        assert len(result.leaves) == 1

    def test_23_equals_32(self):
        r23 = evaluate(KnotParams(2, 3), HHH_PROFILE)
        r32 = evaluate(KnotParams(3, 2), HHH_PROFILE)
        assert r23.total == r32.total

    @given(small_coprime)
    @settings(max_examples=30, deadline=None)
    def test_leaf_count_and_bijection(self, params):
        from khr.dyck import enumerate_paths

        result = evaluate(params, HHH_PROFILE)
        assert len(result.leaves) == rational_catalan(params)
        assert [str(leaf.path) for leaf in result.leaves] == [
            str(p) for p in enumerate_paths(params)
        ]

    @given(small_coprime)
    @settings(max_examples=30, deadline=None)
    def test_totals_are_even_series(self, params):
        assert evaluate(params, HHH_PROFILE).total.num.is_even_series()

    @given(small_coprime)
    @settings(max_examples=20, deadline=None)
    def test_branch_k_matches_path_k(self, params):
        # interval count at each fork equals the path statistic k at that
        # point; contract factors match k at the trimmed outer corners
        result = evaluate(params, HHH_PROFILE)
        branches = branches_by_path(params, (HHH_PROFILE,))
        assert len(branches) == len(result.leaves)
        for leaf in result.leaves:
            steps, _, (num,) = branches[str(leaf.path)]
            assert num == leaf.num
            for p, (tag, k) in steps.items():
                if tag in (Rule.SPLIT, Rule.KEEP, Rule.CONTRACT):
                    assert k == k_of(leaf.path, p)


class TestOrderedLeaves:
    def test_paths_are_the_enumeration(self):
        # sorted columns are enumeration order: weighed by its path, each
        # leaf is the enumeration's path at its place
        for params in coprime_pairs(16):
            assert ordered_leaves(params, lambda path, steps: path) == list(enumerate_paths(params)), params

    def test_each_weight_is_from_its_own_branch(self):
        # the steps a leaf is weighed from are those its own path fixes at
        # every event, so no weight is taken from another branch's steps
        for params in coprime_pairs(12):
            for path, steps in ordered_leaves(params, lambda path, steps: (path, sorted(steps))):
                assert steps == sorted(expected_steps(path)[0].values()), (params, path)


class TestTotal:
    @given(small_coprime, st.sampled_from([HHH_PROFILE, TORIC_PROFILE]))
    @settings(max_examples=30, deadline=None)
    def test_total_equals_pairwise_fold(self, params, profile):
        # reference: the fold of leaf values through Invariant.__add__
        result = evaluate(params, profile)
        fold = functools.reduce(
            operator.add,
            (Invariant(leaf.num, result.dpow) for leaf in result.leaves),
            Invariant(LaurentPoly(), 0),
        )
        assert result.total == fold

    def test_wrong_leaf_count_raises(self, monkeypatch):
        # the walk of (5,3) with one branch dropped, then with its first
        # branch repeated, then its last: a rank never marked raises when
        # the walk ends, a rank marked twice at once, with the branches
        # after it unread, even once every rank is marked
        params = KnotParams(5, 3)
        walk = list(branches(params))
        for edited, leaves, read in (
            (walk[:3] + walk[4:], 6, 6),
            (walk[:1] + walk, 2, 2),
            (walk + walk[-1:] + walk[:1], 8, 8),
        ):
            seen = []

            def edited_branches(params, edited=edited, seen=seen):
                for branch in edited:
                    seen.append(branch)
                    yield branch

            monkeypatch.setattr(khr.sweep, "branches", edited_branches)
            with pytest.raises(RuntimeError, match=f"^{leaves} leaves, not one on each of the 7 paths$"):
                evaluate(params, HHH_PROFILE)
            assert len(seen) == read

    def test_one_division_per_total(self, monkeypatch):
        # a leaf keeps its numerator, so only the HHH total tries to divide
        # by (1 - t); the scalar profile's base has no (1 - t) to divide
        calls = []
        divide = khr.laurent.divide_exact_by_one_minus_t

        def counting_divide(p):
            calls.append(p)
            return divide(p)

        monkeypatch.setattr(khr.laurent, "divide_exact_by_one_minus_t", counting_divide)
        hhh = evaluate(KnotParams(9, 7), HHH_PROFILE)
        assert len(calls) == 1
        toric = evaluate(KnotParams(9, 7), TORIC_PROFILE)
        assert len(calls) == 1
        assert (hhh.dpow, toric.dpow) == (1, 0)
        assert len(hhh.leaves) == len(toric.leaves) == rational_catalan(KnotParams(9, 7))


class TestDeadIntervals:
    def test_no_interval_outlives_its_contraction(self):
        # walk every branch with the public rule functions: at each event,
        # every live interval still contracts at or above the event height,
        # lies in range (0 <= start < m, 0 < end <= n), and starts and ends
        # both strictly increase along the state
        for params in coprime_pairs(11):
            m, n = params.m, params.n
            events = event_list(params)
            leaves = 0
            stack = [(0, initial_coloring(params))]
            while stack:
                start, state = stack.pop()
                for i in range(start, len(events)):
                    p = events[i]
                    d = distance(params, p)
                    for a, b in state:
                        assert 0 <= a < m and 0 < b <= n, (params, p, state)
                        assert m * b - n * a >= d, (params, p, state)
                    for (a, b), (c, e) in zip(state, state[1:]):
                        assert a < c and b < e, (params, p, state)
                    successors = apply_rule(state, p)
                    state, tag, _ = successors[0]
                    if tag is Rule.TERMINAL:
                        leaves += 1
                        break
                    if len(successors) == 2:
                        stack.append((i + 1, successors[1][0]))
                else:
                    pytest.fail(f"{params}: events exhausted with intervals alive")
            assert leaves == rational_catalan(params)


class TestSharedTraversal:
    def test_matches_separate_sweeps(self):
        # each profile's held sweep against its branches recomputed one by
        # one: each leaf's value is its base numerator times the product of
        # its profile's weights over its own branch's steps
        profiles = (HHH_PROFILE, TORIC_PROFILE)
        for params in coprime_pairs(12):
            branches = branches_by_path(params, profiles)
            words = [str(path) for path in enumerate_paths(params)]
            for j, profile in enumerate(profiles):
                result = evaluate(params, profile)
                assert result.params == params and result.profile == profile.name
                assert result.dpow == profile.base.dpow
                assert [str(leaf.path) for leaf in result.leaves] == words
                assert len(branches) == len(result.leaves)
                for leaf in result.leaves:
                    assert branches[str(leaf.path)][2][j] == leaf.num
                nums = [branch[2][j] for branch in branches.values()]
                assert result.total == Invariant(poly_sum(nums), profile.base.dpow)

    def test_pluggable_profile(self):
        # a profile the factored weights were not written for: Keep's weight
        # has two terms and Contract's is a monomial, and the one-term
        # weights carry coefficients other than 1
        for params in coprime_pairs(12):
            branches = branches_by_path(params, (TWO_TERM_KEEP,))
            result = evaluate(params, TWO_TERM_KEEP)
            assert len(branches) == len(result.leaves)
            for leaf in result.leaves:
                assert branches[str(leaf.path)][2][0] == leaf.num
            fold = functools.reduce(
                operator.add,
                (Invariant(leaf.num, result.dpow) for leaf in result.leaves),
                Invariant(LaurentPoly(), 0),
            )
            assert result.total == fold


# Keep weighs two terms, Contract one; Split's coefficient is 2 and
# StartPass's -3, so a leaf's coefficient is a product of several
TWO_TERM_KEEP = WeightProfile(
    name="two-term Keep",
    weights={
        Rule.CONTRACT: lambda k: mono(-1, ea=1, q2=2 * k),
        Rule.START_PASS: lambda k: mono(-3, t2=k),
        Rule.END_PASS: lambda k: mono(1, q2=k, t2=-1),
        Rule.SPLIT: lambda k: mono(2, q2=-k),
        Rule.KEEP: lambda k: T + q_power(k),
    },
    base=Invariant(ONE - A, 1),
)


class TestEvaluateToric:
    def test_trefoil_total(self):
        result = evaluate(KnotParams(3, 2), TORIC_PROFILE)
        expected = Invariant(
            (ONE - A) * (T + mono(1, q2=3) - A * mono(1, q2=1)), 0
        )
        assert result.total == expected

    def test_trefoil_leaves(self):
        result = evaluate(KnotParams(3, 2), TORIC_PROFILE)
        by_path = {str(leaf.path): Invariant(leaf.num, result.dpow) for leaf in result.leaves}
        assert by_path["NNEEE"] == Invariant(T * (ONE - A), 0)
        assert by_path["NENEE"] == Invariant(
            mono(1, q2=1) * (mono(1, q2=2) - A) * (A - ONE) * (-1), 0
        )

    def test_unknot_value(self):
        result = evaluate(KnotParams(1, 1), TORIC_PROFILE)
        assert result.total == Invariant(A - ONE, 0)


def walked_record(params, word):
    """The sweep's (steps, terminal) for the branch that lands on path word."""
    steps, terminal, _ = branches_by_path(params, (HHH_PROFILE,))[word]
    return steps, terminal


class TestReconstruction:
    def test_trefoil_records(self):
        steps, terminal = walked_record(KnotParams(3, 2), "NNEEE")
        assert steps[(1, 1)] == (Rule.KEEP, 1)
        assert terminal == (0, 2)
        steps, terminal = walked_record(KnotParams(3, 2), "NENEE")
        assert steps == {
            (1, 1): (Rule.SPLIT, 1),
            (2, 2): (Rule.END_PASS, 2),
            (0, 1): (Rule.CONTRACT, 1),
        }
        assert terminal == (1, 2)

    def test_reconstruct_round_trip(self):
        params = KnotParams(5, 3)
        paths = sorted(
            (
                reconstruct_path(steps, terminal, params)
                for steps, terminal in branches(params)
            ),
            key=lambda path: path.columns,
        )
        assert [str(path) for path in paths] == [
            str(leaf.path) for leaf in evaluate(params, HHH_PROFILE).leaves
        ]

    @pytest.mark.parametrize(
        "word, changes, terminal, message",
        [
            ("NENEE", {}, (0, 1), r"terminal \(0, 1\)"),
            ("NENEE", {(1, 1): (Rule.SPLIT, 7)}, None, r"at \(1, 1\)"),
            ("NENEE", {(0, 2): (Rule.NOOP, None)}, None, r"at \(0, 2\)"),
            ("NENEE", {(0, 2): (Rule.TERMINAL, None)}, None, r"at \(0, 2\)"),
            ("NENEE", {(0, 2): (Rule.BRANCH, 1)}, None, r"at \(0, 2\)"),
            ("NENEE", {(2, 2): (Rule.START_PASS, 2)}, None, r"at \(2, 2\)"),
            ("NENEE", {(0, 1): None}, None, r"at \(0, 1\)"),
            ("NENEE", {(1, 0): (Rule.KEEP, 1)}, None, r"Keep steps give no path"),
            # the Keep of row 1 moved from the interior point (1, 1) to the
            # pass-through vertex (0, 1): the Keep counts still give the path
            (
                "NNEEENEE",
                {(0, 1): (Rule.KEEP, 2), (1, 1): None},
                None,
                r"step \(<Rule.KEEP: 'Keep'>, 2\) at \(0, 1\) does not match the path NNEEENEE",
            ),
            # a StartPass at the interior point (1, 1): row 1 has no Keep
            # left, and the path the counts give differs first at (0, 1)
            (
                "NNEEENEE",
                {(1, 1): (Rule.START_PASS, 2)},
                None,
                r"at \(0, 1\) does not match the path NENEENEE",
            ),
            (
                "NNEEENEE",
                {(3, 3): (Rule.CONTRACT, 2)},
                None,
                r"at \(3, 3\) .* expected \(<Rule.CONTRACT: 'Contract'>, 1\)",
            ),
            (
                "NNEEENEE",
                {(0, 1): (Rule.END_PASS, 2), (1, 2): (Rule.START_PASS, 1)},
                None,
                r"at \(0, 1\) .* expected \(<Rule.START_PASS: 'StartPass'>, 2\)",
            ),
            # the EndPass at (2, 2), in row n, becomes a Keep, which no row holds
            (
                "NENEE",
                {(2, 2): (Rule.KEEP, 2)},
                None,
                r"the Keep steps give no path: a Keep at \(2, 2\)",
            ),
        ],
        ids=[
            "terminal-moved",
            "split-k",
            "extra-noop",
            "extra-terminal",
            "extra-branch",
            "end-pass-retagged",
            "contract-dropped",
            "keep-added",
            "keep-at-pass",
            "start-pass-inside",
            "contract-k",
            "passes-swapped",
            "keep-in-row-n",
        ],
    )
    def test_tampered_record_rejected(self, word, changes, terminal, message):
        # one edit of a walked branch: steps replaced, added or (None)
        # dropped, or the terminal moved
        params = KnotParams(word.count("E"), word.count("N"))
        steps, walked_terminal = walked_record(params, word)
        assert str(reconstruct_path(steps, walked_terminal, params)) == word
        assert all(steps.get(p) != step for p, step in changes.items())
        tampered = {p: step for p, step in {**steps, **changes}.items() if step is not None}
        with pytest.raises(RuntimeError, match=message):
            reconstruct_path(tampered, terminal or walked_terminal, params)

    def test_pass_step_k_is_checked(self):
        # the path fixes the interval count at a pass as well: a StartPass
        # carries the horizontal crossing count there, an EndPass the
        # vertical one, and any other k is rejected
        params = KnotParams(5, 3)
        steps, terminal = walked_record(params, "NNEEENEE")
        assert steps[0, 1] == (Rule.START_PASS, 2) and steps[2, 2] == (Rule.END_PASS, 2)
        for p, step in (((0, 1), (Rule.START_PASS, 7)), ((2, 2), (Rule.END_PASS, 0))):
            message = f"step {step} at {p} does not match the path NNEEENEE: expected {steps[p]}"
            with pytest.raises(RuntimeError, match=re.escape(message)):
                reconstruct_path({**steps, p: step}, terminal, params)

    def test_expected_steps_checks_k_agreement(self):
        # on a link, where lattice points share offsets, the two crossing
        # counts of an interior point can differ
        params = object.__new__(KnotParams)
        object.__setattr__(params, "m", 4)
        object.__setattr__(params, "n", 2)
        path = DyckPath.from_string(params, "NNEEEE")
        with pytest.raises(ValueError, match=r"crossing counts at \(1, 1\) disagree"):
            expected_steps(path)

    def test_expected_steps_match_the_path_statistics(self):
        # the one-walk step map against dyck's corners, interior points,
        # pass-through vertices, most distant corner and k_values; a pass
        # takes its k from the Fraction oracle: the horizontal count at a
        # StartPass, the vertical one at an EndPass
        for params in coprime_pairs(14):
            m, n = params.m, params.n
            for path in enumerate_paths(params):
                word = str(path)
                outer, inner = corners(path)
                top = most_distant(params, outer)
                vertical, horizontal = pass_through_points(path)
                tagged = [(p, Rule.KEEP) for p in interior_points(path)]
                tagged += [(p, Rule.SPLIT) for p in inner]
                tagged += [(p, Rule.CONTRACT) for p in outer if p != top]
                ks = k_values(path, tuple(p for p, _ in tagged))
                want = {p: (tag, k) for (p, tag), k in zip(tagged, ks)}
                want.update({p: (Rule.START_PASS, brute_k(m, n, word, p)[1]) for p in vertical})
                want.update({p: (Rule.END_PASS, brute_k(m, n, word, p)[0]) for p in horizontal})
                assert expected_steps(path) == (want, top), path
