import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import khr.dyck
from khr.dyck import (
    DyckPath,
    KnotParams,
    LinksUnsupported,
    area,
    coprime_pairs,
    corners,
    distance,
    enumerate_paths,
    hplus,
    interior_points,
    k_of,
    k_values,
    most_distant,
    opairs,
    pass_through_points,
    rational_catalan,
    stats_json,
    vstar,
)

from .oracles import (
    brute_area,
    brute_corners,
    brute_hplus,
    brute_interior,
    brute_k,
    brute_opairs,
    brute_paths,
    brute_vstar,
)

small_coprime = st.sampled_from(coprime_pairs(10))


def path(m, n, word):
    return DyckPath.from_string(KnotParams(m, n), word)


def link_path(m, n, word):
    """A path for gcd(m, n) > 1, which KnotParams refuses: the only inputs
    on which the tie checks can fire."""
    params = object.__new__(KnotParams)
    object.__setattr__(params, "m", m)
    object.__setattr__(params, "n", n)
    return DyckPath.from_string(params, word)


class TestParams:
    def test_links_rejected(self):
        with pytest.raises(LinksUnsupported):
            KnotParams(4, 2)
        with pytest.raises(LinksUnsupported):
            KnotParams(6, 9)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            KnotParams(0, 3)

    def test_distance_examples(self):
        p = KnotParams(3, 2)
        assert distance(p, (1, 1)) == 1
        assert distance(p, (0, 2)) == 6
        assert distance(p, (3, 2)) == 0


class TestEnumeration:
    def test_32(self):
        assert [str(p) for p in enumerate_paths(KnotParams(3, 2))] == ["NNEEE", "NENEE"]

    def test_11(self):
        assert [str(p) for p in enumerate_paths(KnotParams(1, 1))] == ["NE"]

    def test_23(self):
        assert [str(p) for p in enumerate_paths(KnotParams(2, 3))] == ["NNNEE", "NNENE"]

    def test_invalid_path_rejected(self):
        with pytest.raises(ValueError):
            path(3, 2, "ENNEE")
        with pytest.raises(ValueError):
            path(3, 2, "NNEE")
        assert path(5, 3, "NENNEEEE").columns == (0, 1, 1)
        with pytest.raises(ValueError, match="invalid step"):
            path(5, 3, "NENNEEEX")
        with pytest.raises(ValueError, match="invalid step"):
            path(5, 3, "nennEEEE")
        with pytest.raises(ValueError, match="E steps"):
            path(5, 3, "NENNEEE")
        with pytest.raises(ValueError, match="E steps"):
            path(5, 3, "NENNEEEEE")
        with pytest.raises(ValueError, match="rows"):
            path(5, 3, "NENNNEEEE")

    def test_invalid_columns_rejected(self):
        params = KnotParams(5, 3)
        assert DyckPath(params, (0, 1, 3)).columns == (0, 1, 3)
        with pytest.raises(ValueError, match="rows"):
            DyckPath(params, (0, 1))
        with pytest.raises(ValueError, match="rows"):
            DyckPath(params, (0, 1, 3, 5))
        with pytest.raises(ValueError, match="decrease"):
            DyckPath(params, (0, 1, 0))
        with pytest.raises(ValueError, match="decrease"):
            DyckPath(params, (-1, 0, 0))
        with pytest.raises(ValueError, match="below"):
            DyckPath(params, (0, 1, 6))  # x > m
        with pytest.raises(ValueError, match="below"):
            DyckPath(params, (0, 2, 2))  # (2, 1) is below the diagonal

    def test_word_round_trip_up_to_14(self):
        checked = 0
        for params in coprime_pairs(14):
            paths = enumerate_paths(params)
            columns = [p.columns for p in paths]
            assert all(a < b for a, b in zip(columns, columns[1:]))
            for p in paths:
                word = str(p)
                assert len(word) == params.m + params.n
                assert DyckPath.from_string(params, word) == p
            checked += len(paths)
        assert checked == sum(rational_catalan(q) for q in coprime_pairs(14))

    @given(small_coprime)
    def test_matches_brute_force(self, params):
        expected = brute_paths(params.m, params.n)
        assert [str(p) for p in enumerate_paths(params)] == expected

    @given(small_coprime)
    def test_counts_match_catalan(self, params):
        total = math.comb(params.m + params.n, params.n)
        assert len(enumerate_paths(params)) == total // (params.m + params.n)
        assert rational_catalan(params) == total // (params.m + params.n)


class TestStatisticsExamples:
    def test_area(self):
        assert area(path(3, 2, "NNEEE")) == 1
        assert area(path(3, 2, "NENEE")) == 0
        assert area(path(1, 4, "NNNNE")) == 0

    def test_hplus(self):
        assert hplus(path(3, 2, "NENEE")) == 1
        assert hplus(path(3, 2, "NNEEE")) == 0
        assert hplus(path(2, 3, "NNENE")) == 1

    def test_corners(self):
        assert corners(path(3, 2, "NENEE")) == (((0, 1), (1, 2)), ((1, 1),))
        assert corners(path(3, 2, "NNEEE")) == (((0, 2),), ())
        assert corners(path(1, 1, "NE")) == (((0, 1),), ())

    def test_k_of(self):
        assert k_of(path(3, 2, "NENEE"), (0, 1)) == 1
        assert k_of(path(3, 2, "NNEEE"), (1, 1)) == 1
        # the most distant corner's line supports the path from above and
        # crosses no step interior
        assert k_of(path(3, 2, "NENEE"), (1, 2)) == 0

    def test_k_of_rejects_pass_through(self):
        with pytest.raises(ValueError):
            k_of(path(3, 2, "NNEEE"), (0, 1))

    def test_k_of_rejects_points_above(self):
        with pytest.raises(ValueError):
            k_of(path(3, 2, "NENEE"), (0, 2))

    def test_vstar(self):
        assert vstar(path(3, 2, "NNEEE")) == ()
        assert vstar(path(3, 2, "NENEE")) == ((0, 1),)
        assert vstar(path(1, 4, "NNNNE")) == ()

    def test_most_distant_outer(self):
        for word, top in (("NENEE", (1, 2)), ("NNEEE", (0, 2))):
            p = path(3, 2, word)
            assert most_distant(p.params, corners(p)[0]) == top

    def test_interior_points(self):
        assert interior_points(path(3, 2, "NNEEE")) == ((1, 1),)
        assert interior_points(path(3, 2, "NENEE")) == ()
        assert interior_points(path(1, 4, "NNNNE")) == ()

    def test_opairs(self):
        assert opairs(path(3, 2, "NNEEE")) == 0
        assert opairs(path(3, 2, "NENEE")) == 1
        assert opairs(path(2, 3, "NNNEE")) == 0

    def test_pass_throughs(self):
        assert pass_through_points(path(3, 2, "NNEEE")) == (((0, 1),), ((1, 2), (2, 2)))


class TestAgainstBruteForce:
    @given(small_coprime)
    @settings(max_examples=40, deadline=None)
    def test_all_statistics(self, params):
        m, n = params.m, params.n
        for p in enumerate_paths(params):
            word = str(p)
            assert area(p) == brute_area(m, n, word)
            assert hplus(p) == brute_hplus(m, n, word)
            assert opairs(p) == brute_opairs(word)
            outer, inner = corners(p)
            b_outer, b_inner = brute_corners(word)
            assert list(outer) == b_outer and list(inner) == b_inner
            assert list(interior_points(p)) == sorted(brute_interior(m, n, word), key=lambda q: (q[1], q[0]))
            assert list(vstar(p)) == brute_vstar(m, n, word)
            for v in (*outer, *inner, *interior_points(p)):
                bv, bh = brute_k(m, n, word, v)
                assert bv == bh == k_of(p, v)


class TestInvariants:
    @given(small_coprime)
    @settings(max_examples=40, deadline=None)
    def test_corner_and_area_relations(self, params):
        for p in enumerate_paths(params):
            outer, inner = corners(p)
            assert len(outer) == len(inner) + 1
            assert area(p) == len(interior_points(p))

    @given(small_coprime)
    @settings(max_examples=40, deadline=None)
    def test_point_partition(self, params):
        # below-or-on points with positive distance split into interior
        # points and path vertices
        m, n = params.m, params.n
        positive = {
            (x, y)
            for x in range(m + 1)
            for y in range(n + 1)
            if distance(params, (x, y)) > 0
        }
        for p in enumerate_paths(params):
            on_or_below = {q for q in positive if p.is_on(q) or p.is_strictly_below(q)}
            word = str(p)
            vertices = {(word[:i].count("E"), word[:i].count("N")) for i in range(m + n + 1)}
            on_path = {q for q in vertices if distance(params, q) > 0}
            assert set(interior_points(p)) | on_path == on_or_below
            assert set(interior_points(p)) & on_path == set()

    def test_stats_bundle(self):
        data = stats_json(path(3, 2, "NENEE"))
        assert data["area"] == 0 and data["hplus"] == 1 and data["opairs"] == 1
        assert data["vstar"] == [[0, 1]]
        assert data["kvals"]["1,1"] == 1

    def test_stats_json_shape(self):
        data = stats_json(path(3, 2, "NNEEE"))
        assert data["path"] == "NNEEE"
        assert data["area"] == 1 and data["hplus"] == 0
        assert data["interior"] == [[1, 1]]
        assert data["kvals"]["1,1"] == 1


class TestRewrittenStatistics:
    """area, hplus and k_values over vstar against the Fraction oracles,
    on every path of every knot with m + n <= 13."""

    def test_every_path_up_to_13(self):
        checked = 0
        for params in coprime_pairs(13):
            m, n = params.m, params.n
            for p in enumerate_paths(params):
                word = str(p)
                assert area(p) == brute_area(m, n, word), word
                assert hplus(p) == brute_hplus(m, n, word), word
                corners_v = brute_vstar(m, n, word)
                assert list(vstar(p)) == corners_v, word
                expected = []
                for v in corners_v:
                    bv, bh = brute_k(m, n, word, v)
                    assert bv == bh
                    expected.append(bv)
                assert k_values(p, vstar(p)) == tuple(expected), word
                checked += 1
        assert checked == sum(rational_catalan(q) for q in coprime_pairs(13))

    def test_k_values_is_k_of_at_each_point(self):
        p = path(5, 3, "NENNEEEE")
        outer, inner = corners(p)
        points = (*outer, *inner, *interior_points(p))
        assert k_values(p, points) == tuple(k_of(p, v) for v in points)
        assert k_values(p, ()) == ()

    def test_k_values_rejects_any_bad_point(self):
        p = path(3, 2, "NNEEE")
        with pytest.raises(ValueError):
            k_values(p, ((1, 1), (0, 1)))  # (0, 1) is a pass-through vertex
        with pytest.raises(ValueError):
            k_values(path(3, 2, "NENEE"), ((0, 1), (0, 2)))  # (0, 2) is above


def sweep_map(m, n, word):
    """zeta(word): the steps of word listed by the level m*y - n*x of their
    start, lowest first (Armstrong-Loehr-Warrington)."""
    x = y = 0
    labelled = []
    for step in word:
        labelled.append((m * y - n * x, step))
        if step == "N":
            y += 1
        else:
            x += 1
    return "".join(step for _, step in sorted(labelled))


def cells_under_diagonal(m, n, word):
    """Full cells between word and the diagonal: in each row, the cells
    right of its N step whose lower-right corner is not below the diagonal."""
    x = y = 0
    count = 0
    for step in word:
        if step == "N":
            cell = x
            while n * (cell + 1) <= m * y:
                count += 1
                cell += 1
            y += 1
        else:
            x += 1
    return count


class TestSweepMap:
    """hplus is the area of the sweep map's image (Armstrong-Loehr-Warrington;
    bijectivity by Thomas-Williams), with the area counted here cell by cell."""

    def test_helpers_on_trefoil(self):
        assert sweep_map(3, 2, "NNEEE") == "NENEE"
        assert sweep_map(3, 2, "NENEE") == "NNEEE"
        assert cells_under_diagonal(3, 2, "NENEE") == 0
        assert cells_under_diagonal(3, 2, "NNEEE") == 1

    def test_area_of_image_is_hplus(self):
        checked = 0
        for params in coprime_pairs(15):
            m, n = params.m, params.n
            paths = enumerate_paths(params)
            words = [str(p) for p in paths]
            images = [sweep_map(m, n, word) for word in words]
            assert sorted(images) == sorted(words), params
            for p, word, image in zip(paths, words, images):
                assert cells_under_diagonal(m, n, image) == hplus(p), word
            checked += len(paths)
        assert checked == 2457


class TestGuardsRaise:
    """Checks that must raise, not assert, so they survive python -O."""

    def test_degenerate_contact(self):
        # (3, 3): the E step from (0, 1) and the N step from (1, 2) start
        # on one diagonal-parallel line
        with pytest.raises(RuntimeError, match="degenerate"):
            hplus(link_path(3, 3, "NENNEE"))

    def test_corner_collision(self):
        p = link_path(3, 3, "NENENE")
        with pytest.raises(RuntimeError, match="collide"):
            most_distant(p.params, corners(p)[0])
        with pytest.raises(RuntimeError, match="collide"):
            vstar(p)

    def test_catalan_divisibility(self):
        with pytest.raises(ValueError, match="not divisible"):
            rational_catalan(SimpleNamespace(m=2, n=2))

    def test_path_stats_consistency(self, monkeypatch):
        p = path(3, 2, "NENEE")
        good = stats_json(p)
        assert len(good["outer"]) == len(good["inner"]) + 1
        assert good["area"] == len(good["interior"])
        outer, _ = corners(p)
        with monkeypatch.context() as patch:
            patch.setattr(khr.dyck, "corners", lambda path: (outer, ()))
            with pytest.raises(ValueError, match="inner"):
                stats_json(p)
        with monkeypatch.context() as patch:
            patch.setattr(khr.dyck, "area", lambda path: 1)
            with pytest.raises(ValueError, match="interior"):
                interior_points(p)
            with pytest.raises(ValueError, match="interior"):
                stats_json(p)
