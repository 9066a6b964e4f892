import random

import pytest

from matrix_oracle import generator_matrices, identity_matrix, matmul
from wwl import ConfigurationError, DomainError, build_root_system

ALL_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
               ("C", 3), ("D", 4), ("E", 6), ("E", 7), ("E", 8), ("F", 4),
               ("G", 2)]

EXPECTED_COUNTS = {("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
                   ("B", 2): 4, ("B", 3): 9, ("C", 3): 9, ("D", 4): 12,
                   ("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24,
                   ("G", 2): 6}


@pytest.mark.parametrize("type_letter,rank", ALL_SYSTEMS)
def test_positive_root_counts(type_letter, rank):
    rs = build_root_system(type_letter, rank)
    assert len(rs.positive_roots) == EXPECTED_COUNTS[(type_letter, rank)]
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)
    for alpha in rs.positive_roots:
        assert all(c >= 0 for c in alpha) and any(c > 0 for c in alpha)


@pytest.mark.parametrize("type_letter,rank", ALL_SYSTEMS)
def test_cartan_shape(type_letter, rank):
    rs = build_root_system(type_letter, rank)
    for i in range(rank):
        assert rs.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert rs.cartan[i][j] <= 0


@pytest.mark.parametrize("type_letter,rank", ALL_SYSTEMS)
def test_simple_reflection_matrices_are_involutions(type_letter, rank):
    """The tests' matrix oracle: each simple reflection squares to the
    identity, on roots and on weights."""
    rs = build_root_system(type_letter, rank)
    identity = identity_matrix(rank)
    for pair in generator_matrices(rs):
        for m in pair:
            assert matmul(m, m) == identity


@pytest.mark.parametrize("bad", [("A", 0), ("B", 1), ("C", 1), ("D", 3),
                                 ("E", 5), ("E", 9), ("F", 3), ("G", 3),
                                 ("H", 2)])
def test_invalid_types_rejected(bad):
    with pytest.raises(ConfigurationError) as err:
        build_root_system(*bad)
    assert bad[0] in str(err.value)


def test_a1_basics():
    rs = build_root_system("A", 1)
    assert rs.positive_roots == ((1,),)
    assert rs.pairing((1,), (1,)) == 1
    assert rs.root_to_weight_coords((1,)) == (2,)
    assert rs.reflect_weight((1,), (1,)) == (-1,)
    assert rs.reflect_weight((1,), (0,)) == (0,)


def test_a2_examples():
    rs = build_root_system("A", 2)
    assert rs.positive_roots == ((0, 1), (1, 0), (1, 1))
    # fundamental-weight duality and linearity in the coroot of a long sum
    assert rs.pairing((1, 0), (1, 1)) == 1
    assert rs.pairing((0, 0), (1, 1)) == 0
    assert rs.root_to_weight_coords((1, 0)) == (2, -1)
    assert rs.root_to_weight_coords((1, 1)) == (1, 1)
    # omega_2 is fixed by the first reflection
    assert rs.reflect_weight((1, 0), (0, 1)) == (0, 1)


def test_pairing_rejects_non_roots():
    rs = build_root_system("A", 2)
    with pytest.raises(DomainError):
        rs.pairing((1, 0), (2, 0))
    with pytest.raises(DomainError):
        rs.pairing((1, 0), (1, 2))


def test_pairing_kronecker_on_simples():
    for type_letter, rank in ALL_SYSTEMS:
        rs = build_root_system(type_letter, rank)
        for i in range(rank):
            omega = tuple(1 if k == i else 0 for k in range(rank))
            for j in range(rank):
                alpha = rs.simple_root(j + 1)
                assert rs.pairing(omega, alpha) == (1 if i == j else 0)


@pytest.mark.parametrize("type_letter,rank", [("A", 2), ("B", 2), ("B", 3),
                                              ("G", 2), ("F", 4)])
def test_simple_reflections_permute_other_positives(type_letter, rank):
    rs = build_root_system(type_letter, rank)
    for i in range(rank):
        simple = rs.simple_root(i + 1)
        for alpha in rs.positive_roots:
            image = rs.reflect_root(simple, alpha)
            if alpha == simple:
                assert image == tuple(-c for c in alpha)
            else:
                assert rs.is_positive_root(image)


@pytest.mark.parametrize("type_letter,rank", [("A", 2), ("B", 2), ("G", 2),
                                              ("D", 4)])
def test_reflect_weight_is_involutive(type_letter, rank):
    rs = build_root_system(type_letter, rank)
    rng = random.Random(1234)
    for _ in range(100):
        lam = tuple(rng.randint(-4, 4) for _ in range(rank))
        alpha = rng.choice(rs.positive_roots)
        once = rs.reflect_weight(alpha, lam)
        assert rs.reflect_weight(alpha, once) == lam
        if rs.pairing(lam, alpha) == 0:
            assert once == lam


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 3), ("G", 2),
                                              ("F", 4)])
def test_weight_conversion_consistency(type_letter, rank):
    rs = build_root_system(type_letter, rank)
    images = set()
    for alpha in rs.positive_roots:
        wc = rs.root_to_weight_coords(alpha)
        images.add(wc)
        for j in range(rank):
            assert rs.pairing(wc, rs.simple_root(j + 1)) == \
                rs.root_pairing(alpha, rs.simple_root(j + 1))
    assert len(images) == len(rs.positive_roots)


def test_json_serialization_shape():
    rs = build_root_system("B", 2)
    obj = rs.to_json_obj()
    assert obj["type"] == "B" and obj["rank"] == 2
    assert obj["cartan"] == [[2, -1], [-2, 2]]
    assert sorted(obj["positive_roots"]) == [[0, 1], [1, 0], [1, 1], [1, 2]]
