"""Matrix oracle for the element tables.

An element is a pair of integer matrices: its action on simple-root
coordinates and its action on fundamental-weight coordinates, both built
from words by matrix products.  The library once stored every element
this way.  It now holds an element as a table index with a table of root
images, and the tests check its tables, root images, actions, inverses
and reflections against the matrices here."""

from __future__ import annotations


def matmul(a, b):
    rng = range(len(a))
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in rng) for j in rng)
        for i in rng)


def mat_vec(m, v):
    rng = range(len(v))
    return tuple(sum(m[i][j] * v[j] for j in rng) for i in rng)


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))


def simple_root_matrix(rs, i):
    """s_i (0-based i) on root coordinates: row i becomes delta_ij - c_ij."""
    n = rs.rank
    rows = [[1 if k == j else 0 for j in range(n)] for k in range(n)]
    rows[i] = [(1 if j == i else 0) - rs.cartan[i][j] for j in range(n)]
    return tuple(tuple(r) for r in rows)


def simple_weight_matrix(rs, i):
    """s_i (0-based i) on weight coordinates: column i becomes
    delta_ki - c_ki."""
    n = rs.rank
    rows = [[1 if k == j else 0 for j in range(n)] for k in range(n)]
    for k in range(n):
        rows[k][i] = (1 if k == i else 0) - rs.cartan[k][i]
    return tuple(tuple(r) for r in rows)


def generator_matrices(rs):
    """(root matrix, weight matrix) of each simple reflection, in order."""
    return [(simple_root_matrix(rs, i), simple_weight_matrix(rs, i))
            for i in range(rs.rank)]


def word_matrices(rs, word):
    """(root matrix, weight matrix) of the product of a word's letters."""
    gens = generator_matrices(rs)
    root_m = weight_m = identity_matrix(rs.rank)
    for letter in word:
        g_root, g_weight = gens[letter - 1]
        root_m = matmul(root_m, g_root)
        weight_m = matmul(weight_m, g_weight)
    return root_m, weight_m


def reflection_matrices(rs, alpha):
    """(root matrix, weight matrix) of s_alpha for a positive root alpha:
    s_alpha beta = beta - <beta, alpha_vee> alpha on roots and
    lam - <lam, alpha_vee> alpha on weights."""
    n = rs.rank
    coro = rs.coroot_coords(alpha)
    wc = rs.root_to_weight_coords(alpha)
    root_cols = [rs.reflect_root(alpha, tuple(1 if j == i else 0
                                              for j in range(n)))
                 for i in range(n)]
    root_m = tuple(tuple(root_cols[j][k] for j in range(n))
                   for k in range(n))
    weight_m = tuple(tuple((1 if k == j else 0) - coro[j] * wc[k]
                           for j in range(n))
                     for k in range(n))
    return root_m, weight_m


def table_root_matrix(G, k):
    """The root matrix of element k, read off the group's root-image
    table: column j is w alpha_j."""
    return tuple(zip(*(G.rs.roots[a] for a in G._root_img[k])))


def matrix_bfs_tables(rs):
    """The element tables built by dense matrix products: a breadth-first
    search over w * s_i, each level sorted by root-action matrix, whose
    products also give rmul; lmul by one product per (element, generator);
    canonical words from the smallest left descent; inverses by reversing
    the canonical word.  Returns (elements, index, lengths, rmul, lmul,
    canon, inv): elements as (root matrix, weight matrix) pairs, index
    keyed by root matrix."""
    n = rs.rank
    gens = generator_matrices(rs)
    ident = identity_matrix(n)
    elements = [(ident, ident)]
    index = {ident: 0}
    lengths = [0]
    frontier = [(ident, ident)]
    right = []  # root matrices of w * s_i, one row per element in index order
    while frontier:
        nxt = {}
        for root_m, weight_m in frontier:
            products = [(matmul(root_m, g_root), matmul(weight_m, g_weight))
                        for g_root, g_weight in gens]
            right.append([u[0] for u in products])
            for u in products:
                if u[0] not in index and u[0] not in nxt:
                    nxt[u[0]] = u
        frontier = [nxt[k] for k in sorted(nxt)]
        level = lengths[-1] + 1
        for u in frontier:
            index[u[0]] = len(elements)
            elements.append(u)
            lengths.append(level)
    rmul = [[index[row[i]] for row in right] for i in range(n)]
    lmul = [[index[matmul(g_root, root_m)] for root_m, _ in elements]
            for g_root, _ in gens]
    canon = [()] * len(elements)
    for k in range(1, len(elements)):
        for i in range(n):
            j = lmul[i][k]
            if lengths[j] < lengths[k]:
                canon[k] = (i + 1,) + canon[j]
                break
    inv = []
    for word in canon:
        cur = 0
        for letter in reversed(word):
            cur = rmul[letter - 1][cur]
        inv.append(cur)
    return elements, index, lengths, rmul, lmul, canon, inv
