import math

import numpy as np
import pytest

from predictsched import (
    ORIENTATIONS,
    global_matrix,
    load_matrix_tsv,
    matrix_to_tsv,
    principal_eigenvector,
    rank_algorithms,
    relative_estimations,
    render_report,
    weights_from_binary_matrix,
)

# golden 4-alternative comparison matrix and its reference eigenvector
MATRIX_4 = np.array(
    [
        [1, 0.053464727, 0.146786008, 0.2],
        [18.7039206, 1, 13.99131226, 1.902052263],
        [6.812638428, 0.071472924, 1, 0.502942619],
        [5, 0.525747909, 1.988298389, 1],
    ]
)
EIGEN_4 = (0.038, 0.9474, 0.1391, 0.2856)

MATRIX_6 = np.array(
    [
        [1, 3.738761168, 2.570680305, 0.672726853, 0.714458873, 0.519489967],
        [0.267468275, 1, 0.547116287, 0.010761058, 0.007653458, 0.008980744],
        [0.389002086, 1.827764998, 1, 0.277450973, 0.212094044, 0.104856179],
        [1.486487414, 92.92766715, 3.604240378, 1, 1.140552745, 0.658719961],
        [1.399660691, 130.659892, 4.714889595, 0.876767869, 1, 0.229324149],
        [1.924964993, 111.3493506, 9.53687245, 1.51809579, 4.360639751, 1],
    ]
)
EIGEN_6 = (0.1813, 0.0143, 0.0585, 0.4249, 0.4442, 0.7653)

BINARY = [[0.0, 0.5, 0.0], [0.5, 0.0, 1.0], [1.0, 0.0, 0.0]]


class TestWeights:
    def test_reference_binary_matrix(self):
        raw, norm = weights_from_binary_matrix(BINARY)
        assert raw.tolist() == [0.5, 1.5, 1.0]
        assert norm.tolist() == pytest.approx([1 / 6, 1 / 2, 1 / 3])

    def test_full_indifference(self):
        m = [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]
        raw, norm = weights_from_binary_matrix(m)
        assert raw.tolist() == [1.0, 1.0, 1.0]
        assert norm.tolist() == pytest.approx([1 / 3] * 3)

    def test_strict_chain(self):
        m = [[0, 1, 1], [0, 0, 1], [0, 0, 0]]
        raw, _ = weights_from_binary_matrix(m)
        assert raw.tolist() == [2.0, 1.0, 0.0]

    def test_complementarity_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            weights_from_binary_matrix([[0, 1], [1, 0]])

    def test_entry_domain_enforced(self):
        with pytest.raises(ValueError):
            weights_from_binary_matrix([[0, 0.7], [0.3, 0]])


class TestRelativeEstimations:
    def test_endpoints(self):
        values = [[10.0, 50.0], [20.0, 90.0]]
        rel, degenerate = relative_estimations(values, ("min", "max"))
        assert rel[0].tolist() == [0.0, 1.0]
        assert rel[1].tolist() == [1.0, 0.0]
        assert not degenerate.any()

    def test_reference_makespan_column(self):
        # makespans: conservative backfill is best, plain FCFS worst
        makespans = [[16630898.0], [14977165.0], [15223893.0]]
        rel, _ = relative_estimations(makespans, ("min",))
        assert rel[0, 0] == 1.0
        assert rel[1, 0] == 0.0
        assert rel[2, 0] == pytest.approx(0.1492, abs=1e-4)

    def test_degenerate_column_flagged(self):
        rel, degenerate = relative_estimations([[5.0, 1.0], [5.0, 2.0]], ("min", "min"))
        assert degenerate.tolist() == [True, False]
        assert rel[:, 0].tolist() == [0.0, 0.0]

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(1, 100, size=(5, 3))
        rel, _ = relative_estimations(values, ORIENTATIONS)
        shifted = values * 3.7 + 11.0
        rel2, _ = relative_estimations(shifted, ORIENTATIONS)
        assert np.allclose(rel, rel2)


class TestGlobalMatrix:
    def test_dominating_algorithm_capped(self):
        rel, _ = relative_estimations(
            [[1.0, 10.0, 5.0], [2.0, 20.0, 9.0]], ("min", "min", "min")
        )
        a = global_matrix(rel, [0.5, 1.5, 1.0])
        assert a[0, 1] == 1e3
        assert a[1, 0] == 1e-3

    def test_identical_vectors_all_ones(self):
        rel, _ = relative_estimations(
            [[3.0, 3.0], [3.0, 3.0]], ("min", "max")
        )
        a = global_matrix(rel, [1.0, 1.0])
        assert np.array_equal(a, np.ones((2, 2)))

    def test_reciprocity_on_random_tables(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            n = rng.integers(3, 9)
            values = rng.uniform(1.0, 1000.0, size=(n, 3))
            rel, _ = relative_estimations(values, ORIENTATIONS)
            a = global_matrix(rel, [0.5, 1.5, 1.0])
            assert np.allclose(a * a.T, 1.0, atol=1e-9)
            assert np.all(np.diag(a) == 1.0)
            assert np.all(a > 0)

    def test_golden_matrix_reciprocity(self):
        assert 18.7039206 * 0.053464727 == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(MATRIX_4 * MATRIX_4.T, 1.0, atol=2e-6)


class TestPrincipalEigenvector:
    def test_four_alternative_golden(self):
        r = principal_eigenvector(MATRIX_4)
        assert np.allclose(r.eigenvector, EIGEN_4, atol=0.01)
        assert r.winner == 1

    def test_six_alternative_golden(self):
        r = principal_eigenvector(MATRIX_6)
        assert np.allclose(r.eigenvector, EIGEN_6, atol=0.01)
        assert r.winner == 5

    def test_unit_euclidean_norm(self):
        for m in (MATRIX_4, MATRIX_6):
            r = principal_eigenvector(m)
            assert np.linalg.norm(r.eigenvector) == pytest.approx(1.0, abs=1e-9)

    def test_all_ones_gives_uniform(self):
        r = principal_eigenvector(np.ones((5, 5)))
        assert np.allclose(r.eigenvector, 1 / np.sqrt(5))

    def test_positive_entries_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(1, 100, size=(4, 3))
        rel, _ = relative_estimations(values, ORIENTATIONS)
        a = global_matrix(rel, [0.5, 1.5, 1.0])
        r1 = principal_eigenvector(a)
        r2 = principal_eigenvector(a * 17.0)
        assert all(v > 0 for v in r1.eigenvector)
        assert r1.winner == r2.winner
        assert np.allclose(r1.eigenvector, r2.eigenvector, atol=1e-8)

    def test_nonpositive_matrix_rejected(self):
        with pytest.raises(ValueError):
            principal_eigenvector([[1.0, 0.0], [2.0, 1.0]])

    @pytest.mark.parametrize("cell", [math.nan, math.inf])
    def test_non_finite_matrix_rejected_up_front(self, cell):
        # before, 10,000 iterations ran and failed on a NaN gap
        with pytest.raises(ValueError, match="matrix entries must be finite numbers"):
            principal_eigenvector([[1.0, cell], [2.0, 1.0]])


class TestMatrixIO:
    def test_named_round_trip(self):
        names = ["Cons BF", "DL", "BestGap", "TabuSearch"]
        text = matrix_to_tsv(MATRIX_4, names)
        m, parsed_names = load_matrix_tsv(text)
        assert parsed_names == names
        assert np.allclose(m, MATRIX_4)

    def test_bare_numeric(self):
        m, names = load_matrix_tsv("1\t2\n0.5\t1\n")
        assert names is None
        assert m.tolist() == [[1, 2], [0.5, 1]]

    def test_trailing_tab_keeps_a_numeric_first_row(self):
        m, names = load_matrix_tsv("1\t2\t\n0.5\t1\t\n")
        assert names is None
        assert m.tolist() == [[1, 2], [0.5, 1]]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            load_matrix_tsv("1\t2\t3\n4\t5\t6\n")

    def test_ragged_row_names_its_line(self):
        # blank lines count: the line is the file's own
        with pytest.raises(ValueError, match="^line 4: ragged row, 3 of 2 numbers$"):
            load_matrix_tsv("1\t2\n\n2\t1\n3\t4\t5\n")

    def test_header_with_a_leading_cell_is_line_1(self):
        with pytest.raises(ValueError, match="^line 1: neither numbers nor a header"):
            load_matrix_tsv("a\tb\n1\t2\n")

    def test_non_numeric_cell_names_its_line(self):
        with pytest.raises(ValueError, match="^line 3: could not convert"):
            load_matrix_tsv("\tx\ty\nx\t1\t2\ny\t0.5\tone\n")


def test_rank_algorithms_end_to_end():
    values = np.array(
        [
            [16630898, 77.016, 10916.33],   # plain FCFS row
            [14977165, 90.989, 493.1645],   # conservative backfill row
            [15372390, 92.749, 238.4517],   # best-gap row
        ]
    )
    raw, _ = weights_from_binary_matrix(BINARY)
    matrix, ranking = rank_algorithms(values, ORIENTATIONS, raw)
    assert np.allclose(matrix * matrix.T, 1.0, atol=1e-9)
    assert ranking.winner != 0  # FCFS loses on every objective


def test_render_report_layout():
    values = np.array([[100.0, 90.0, 5.0], [120.0, 80.0, 9.0]])
    raw, _ = weights_from_binary_matrix(BINARY)
    matrix, ranking = rank_algorithms(values, ORIENTATIONS, raw)
    text = render_report(["a", "b"], values, matrix, ranking)
    assert "criteria\ta\tb" in text
    assert text.strip().endswith("winner\ta")
