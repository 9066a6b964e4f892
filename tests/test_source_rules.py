"""Rules on the library source itself."""

import ast
import pathlib

import wwl


def test_no_assert_statements_in_library():
    """Invariant checks raise InvariantError; an assert statement would
    vanish under python -O."""
    paths = sorted(pathlib.Path(wwl.__file__).parent.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def library_names():
    """(place, name) for every name the library source defines, imports,
    binds, reads or takes as an attribute; place is file:line."""
    paths = sorted(pathlib.Path(wwl.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.asname or a.name.rsplit(".", 1)[-1]
                         for a in node.names] + \
                        [a.name.rsplit(".", 1)[-1] for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}", name


def test_no_vpoly_helpers_in_library():
    """Group-algebra elements are packed-key dicts; the tuple v-polynomial
    helpers live only in the tests' oracle."""
    found = [f"{place}:{name}" for place, name in library_names()
             if name.lower().startswith("vp_")]
    assert found == []


def test_library_reads_no_environment_variable():
    """Settings come from the command line alone: no os.environ or
    os.getenv in the library, so the thread count has one source."""
    found = [f"{place}:{name}" for place, name in library_names()
             if name in {"environ", "environb", "getenv", "getenvb"}]
    assert found == []


def test_oracle_only_helpers_not_in_library():
    """Helpers with no caller in the library live in the tests: the
    covers of an element, read from its canonical word's cover list, and
    the interval-sum transforms between the atom and character tables,
    the oracles of char_coeffs, the Bruhat masks by the lifting
    property, the oracle of the single-deletion build, the interval
    [x, w] as a list of WeylElements, and the per-word label scans and
    single deletions that the edge labeller replaced, and the per-x
    #S(x,w) count that the bit-sliced Deodhar masks replaced, and the
    O(r^2) row-major step w * s_i that the column step replaced, and the
    word walks that the first-word and good-word DPs replaced: the
    lexicographic witness search with its flag and good-word tests, and
    the main-theorem sweep, which only the tests run, and the scalar
    1 - v e^(-alpha) as an element, which only the tests multiply by, and
    the lower reflections w*s_alpha as matrix products, which the single
    deletions of w's canonical word replaced, with the group's cache of
    reflection matrices, and the walk over the right weak order that
    decided condition B, with the group's list of right ascents, which the
    edge DP on w0's chain table replaced, and the edge labeller, a second
    builder of label dicts, which the one scanner (_chain_table) and the
    one reader (_interval_labels) replaced, and the action matrices of
    an element (matrix product and identity, generator matrices, an
    element's matrix fields, the element list and its matrix-keyed
    index), which the index handles and the root-image table replaced
    and the tests' matrix_oracle keeps."""
    banned = {"covers_down", "char_from_atom_coeffs", "atom_from_char_coeffs",
              "bruhat_masks_oracle", "interval", "_greedy_chain_idx",
              "_lambda_sets_idx", "_label_sets_idx",
              "deleted_word_elements_idx", "deleted_word_elements",
              "deodhar_slack_idx", "_times_simple", "first_witnesses",
              "_flag_holds", "_good_word_idx", "main_theorem_sweep",
              "one_minus_v_exp", "lower_reflections_idx", "_refl_cache",
              "condition_b_mask", "right_ascents_idx", "_ascents",
              "_edge_labels", "_matmul", "_identity_matrix",
              "simple_weight_matrices", "simple_root_matrices",
              "root_action", "weight_action", "_index", "_elements"}
    found = [f"{place}:{name}" for place, name in library_names()
             if name in banned]
    assert found == []


def test_elements_by_index_inside_library():
    """Inside the library an element is its table index: coefficient
    tables and Hecke elements are keyed by index, so there is no
    element-keyed table class; no WeylElement is fetched by index, not
    even to act on a root or a weight, since w alpha_b is read from the
    root-image table; and no code lists an interval of WeylElements."""
    assert [place for place, name in library_names()
            if name == "CoefficientTable"] == []
    paths = sorted(pathlib.Path(wwl.__file__).parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name == "elem_of":
                found.append(f"{path.name}:{node.lineno}:elem_of")
            if name == "interval":
                found.append(f"{path.name}:{node.lineno}:interval")
    assert found == []
