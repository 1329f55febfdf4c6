import random
from itertools import combinations, product

import pytest
from hypothesis import given

from oracles import brute_homomorphism_exists, extensions_reference
from strategies import structure_pairs, structures

from gamecomonads import zoo
from gamecomonads.equiv import decide, verify_certificate
from gamecomonads.structures import (SignatureMismatch, StructureError, _preserved,
                                     extensions, find_homomorphism, gaifman_graph,
                                     is_homomorphism, is_partial_homomorphism,
                                     is_partial_isomorphism, occurrences, pair_types,
                                     structure_from_dict, structure_to_dict,
                                     validate_structure)


def test_validate_loop_ok():
    A = validate_structure({"R": 2}, ["a"], {"R": [["a", "a"]]})
    assert A.universe == ("a",)
    assert A.relations["R"] == frozenset({("a", "a")})


def test_validate_unknown_element():
    with pytest.raises(StructureError, match="unknown element"):
        validate_structure({"R": 2}, ["a"], {"R": [["a", "b"]]})


def test_validate_arity_mismatch():
    with pytest.raises(StructureError, match="arity mismatch"):
        validate_structure({"R": 2}, ["a", "b"], {"R": [["a", "b", "a"]]})


@pytest.mark.parametrize("tuples, message", [
    # the first bad tuple in order names the fault, arity before elements
    ([["a", "zz"], ["a"]], "unknown element 'zz' in relation R"),
    ([["a"], ["a", "zz"]], "arity mismatch in R: tuple ['a'] has length 1, expected 2"),
    ([["a", "a"], [["x"], "a", "b"]],
     "arity mismatch in R: tuple [['x'], 'a', 'b'] has length 3, expected 2"),
    # an unknown element before an unhashable one in the same tuple
    ([["zz", ["x"]]], "unknown element 'zz' in relation R"),
])
def test_validate_names_the_first_bad_tuple(tuples, message):
    with pytest.raises(StructureError) as err:
        validate_structure({"R": 2}, ["a", "b"], {"R": tuples})
    assert str(err.value) == message


@pytest.mark.parametrize("tuples", [[["a", ["x"]]], [["a", "b"], [["x"], "zz"]]])
def test_validate_rejects_an_unhashable_element(tuples):
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        validate_structure({"R": 2}, ["a", "b"], {"R": tuples})
    with pytest.raises(StructureError, match="^a relation tuple holds an element that is not "
                                             "an id: unhashable type: 'list'$"):
        structure_from_dict({"signature": {"R": 2}, "universe": ["a", "b"],
                             "relations": {"R": tuples}})


def test_validate_rejects_empty_universe():
    with pytest.raises(StructureError, match="empty universe"):
        validate_structure({"R": 1}, [], {})


def test_validate_rejects_duplicate_element():
    with pytest.raises(StructureError, match="duplicate"):
        validate_structure({"R": 1}, ["a", "a"], {})


def test_validate_rejects_undeclared_relation():
    with pytest.raises(StructureError, match="not declared"):
        validate_structure({"R": 1}, ["a"], {"S": [["a"]]})


def test_empty_interpretation_allowed():
    A = validate_structure({"R": 2, "S": 1}, ["a"], {"R": [["a", "a"]]})
    assert A.relations["S"] == frozenset()


def test_from_dict_rejects_unknown_field():
    with pytest.raises(StructureError, match="unknown field"):
        structure_from_dict({"signature": {}, "universe": ["a"],
                             "relations": {}, "color": "red"})


def test_dict_round_trip():
    A = zoo.lin(3)
    assert structure_from_dict(structure_to_dict(A)).relations == A.relations


def test_gaifman_loop_has_no_edges():
    G = gaifman_graph(zoo.loop())
    assert G.vertices == ("a",)
    assert not G.edges


def test_gaifman_edge():
    G = gaifman_graph(zoo.edge())
    assert set(G.edges) == {("a", "b")}


def test_gaifman_ternary_tuple_is_triangle():
    A = validate_structure({"T": 3}, ["a", "b", "c"], {"T": [["a", "b", "c"]]})
    G = gaifman_graph(A)
    assert set(G.edges) == {("a", "b"), ("a", "c"), ("b", "c")}


def test_graph_neighbors_in_vertex_order():
    A = validate_structure({"E": 2}, ["d", "b", "a", "c"],
                           {"E": [["a", "d"], ["c", "a"], ["b", "a"], ["c", "c"]]})
    G = gaifman_graph(A)
    assert G.neighbors("a") == ("d", "b", "c")
    assert G.neighbors("c") == ("a",)
    assert G.neighbors("d") == ("a",)
    assert G.neighbors("z") == ()


@given(structures(max_size=4))
def test_graph_neighbors_match_a_scan_of_the_vertices(A):
    G = gaifman_graph(A)
    for v in G.vertices:
        assert G.neighbors(v) == tuple(w for w in G.vertices if G.adjacent(v, w))


@given(structures())
def test_gaifman_symmetric_irreflexive(A):
    G = gaifman_graph(A)
    for (u, v) in G.edges:
        assert u != v
        assert G.adjacent(v, u)


def test_is_homomorphism_identity_on_loop():
    A = zoo.loop()
    assert is_homomorphism({"a": "a"}, A, A)


def test_is_homomorphism_edge_to_loop():
    assert is_homomorphism({"a": "a", "b": "a"}, zoo.edge(), zoo.loop())


def test_is_homomorphism_edge_flip_fails():
    E = zoo.edge()
    assert not is_homomorphism({"a": "b", "b": "a"}, E, E)


def test_is_homomorphism_signature_mismatch():
    A = zoo.loop()
    B = validate_structure({"S": 2}, ["a"], {"S": [["a", "a"]]})
    with pytest.raises(SignatureMismatch):
        is_homomorphism({"a": "a"}, A, B)


def test_find_homomorphism_identity_case():
    A = zoo.loop()
    assert find_homomorphism(A, A) == {"a": "a"}


def test_find_homomorphism_triangle_not_two_colorable():
    assert find_homomorphism(zoo.clique(3), zoo.edge2()) is None


def test_find_homomorphism_edge_to_loop_constant():
    assert find_homomorphism(zoo.edge(), zoo.loop()) == {"a": "a", "b": "a"}


def test_find_homomorphism_result_is_homomorphism():
    h = find_homomorphism(zoo.lin(2), zoo.lin(4))
    assert h is not None
    assert is_homomorphism(h, zoo.lin(2), zoo.lin(4))


def test_find_homomorphism_respects_preassignment():
    L = zoo.lin(3)
    h = find_homomorphism(L, L, pre={"e0": "e0"})
    assert h["e0"] == "e0"
    assert find_homomorphism(zoo.edge(), zoo.edge(), pre={"a": "b"}) is None


@given(structure_pairs())
def test_find_homomorphism_matches_brute_force(pair):
    A, B = pair
    found = find_homomorphism(A, B)
    assert (found is not None) == brute_homomorphism_exists(A, B)
    if found is not None:
        assert is_homomorphism(found, A, B)


def kernel_structure(rng: random.Random, prefix: str):
    """At most 5 elements: unary, binary and ternary relations, with loops
    and tuples that repeat an element, such as T(x, x, y)."""
    u = [f"{prefix}{i}" for i in range(rng.randint(1, 5))]
    return validate_structure({"P": 1, "E": 2, "T": 3}, u, {
        "P": [[x] for x in u if rng.random() < 0.5],
        "E": [[x, y] for x in u for y in u if rng.random() < 0.4],
        "T": [[x, y, z] for x in u for y in u for z in u
              if rng.random() < (0.3 if len({x, y, z}) < 3 else 0.1)]})


def decode(mask: int, B) -> tuple:
    return tuple(b for i, b in enumerate(B.universe) if mask >> i & 1)


def test_extensions_match_the_reference_filter():
    """The kernel against the tuple-per-candidate filter on random partial
    maps (partial homomorphisms or not), with and without `through`; and, on
    partial homomorphisms, against the plain check of the extended map."""
    rng = random.Random(20260419)
    checked = nonempty = 0
    for _ in range(300):
        A = kernel_structure(rng, "x")
        B = kernel_structure(rng, rng.choice("xy"))
        x = rng.choice(A.universe)
        rest = [a for a in A.universe if a != x]
        m = {a: rng.choice(B.universe) for a in rng.sample(rest, rng.randint(0, len(rest)))}
        for through in [None, x, *m]:
            occ = [o for o in occurrences(A)[x] if through is None or through in o[1]]
            want = extensions_reference(occ, m, x, B.universe, B.relations)
            got = extensions(A, B, m, x, through=through)
            assert decode(got, B) == want, (A, B, m, x, through)
            checked += 1
            nonempty += bool(want)
        if is_partial_homomorphism(m.items(), A, B):
            assert decode(extensions(A, B, m, x), B) == tuple(
                b for b in B.universe if is_partial_homomorphism([*m.items(), (x, b)], A, B))
    assert checked > 600 and 0 < nonempty < checked


def test_extensions_read_every_slot_of_x():
    """A tuple that repeats x only completes with a b that fills every slot."""
    A = validate_structure({"T": 3}, ["x", "y"], {"T": [["x", "x", "y"]]})
    B = validate_structure({"T": 3}, ["p", "q", "r"], {"T": [["p", "q", "r"], ["q", "q", "r"]]})
    assert decode(extensions(A, B, {"y": "r"}, "x"), B) == ("q",)
    assert decode(extensions(A, B, {}, "y", through="x"), B) == ("p", "q", "r")


def first_homomorphism(A, B, pre=None):
    """The first homomorphism in universe order, by scanning every map."""
    for values in product(B.universe, repeat=len(A.universe)):
        h = dict(zip(A.universe, values))
        if all(h[a] == b for a, b in (pre or {}).items()) and is_homomorphism(h, A, B):
            return h
    return None


def test_find_homomorphism_returns_the_first_in_universe_order():
    rng = random.Random(20181004)
    found = 0
    for _ in range(150):
        A = kernel_structure(rng, "x")
        B = kernel_structure(rng, rng.choice("xy"))
        if len(B.universe) ** len(A.universe) > 3000:
            continue
        assert find_homomorphism(A, B) == first_homomorphism(A, B), (A, B)
        pre = {a: rng.choice(B.universe) for a in rng.sample(A.universe, rng.randint(1, 2)
                                                            if len(A.universe) > 1 else 1)}
        assert find_homomorphism(A, B, pre) == first_homomorphism(A, B, pre), (A, B, pre)
        found += find_homomorphism(A, B) is not None
    assert found > 10


def test_find_homomorphism_pre_outside_the_target_is_none():
    assert find_homomorphism(zoo.edge(), zoo.loop(), pre={"a": "zz"}) is None
    assert find_homomorphism(zoo.loop(), zoo.loop(), pre={"a": "a"}) == {"a": "a"}


def test_partial_isomorphism_empty_and_identity():
    E = zoo.edge()
    assert is_partial_isomorphism([], E, E)
    assert is_partial_isomorphism([("a", "a"), ("b", "b")], E, E)


def test_partial_isomorphism_flip_fails():
    E = zoo.edge()
    assert not is_partial_isomorphism([("a", "b"), ("b", "a")], E, E)


def test_partial_isomorphism_reflects_relations():
    # forward map preserves nothing to check, but the backward direction fails
    A = validate_structure({"R": 2}, ["a", "b"], {"R": []})
    B = validate_structure({"R": 2}, ["a", "b"], {"R": [["a", "b"]]})
    assert not is_partial_isomorphism([("a", "a"), ("b", "b")], A, B)


@given(structure_pairs(max_size=3))
def test_partial_isomorphism_inverse(pair):
    A, B = pair
    from itertools import combinations, product
    all_pairs = list(product(A.universe, B.universe))
    for n in (1, 2):
        for ps in combinations(all_pairs, n):
            if is_partial_isomorphism(ps, A, B):
                assert is_partial_isomorphism([(b, a) for a, b in ps], B, A)


# the one-pair check against the full check

def _random_structure(rng, n):
    """Unary, binary and ternary relations on n elements, each tuple drawn
    with probability 0.4."""
    u = [f"x{i}" for i in range(n)]
    sig = {"P": 1, "R": 2, "T": 3}
    return validate_structure(sig, u, {name: [list(t) for t in product(u, repeat=ar)
                                              if rng.random() < 0.4]
                                       for name, ar in sig.items()})


def _binary_structure(rng, n):
    """A unary and two binary relations on n elements, loops likely: the
    one-pair check compares pair types (`pair_types`) on these."""
    u = [f"x{i}" for i in range(n)]
    dense = rng.choice((0.2, 0.5, 0.8))
    return validate_structure({"P": 1, "E": 2, "F": 2}, u, {
        "P": [[x] for x in u if rng.random() < 0.5],
        "E": [[x, y] for x in u for y in u if rng.random() < (0.5 if x == y else dense)],
        "F": [[x, y] for x in u for y in u if rng.random() < 0.25]})


def _one_pair_cases():
    rng = random.Random(5)
    cases = [(_random_structure(rng, rng.randint(2, 4)), _random_structure(rng, rng.randint(2, 4)))
             for _ in range(6)]
    cases += [(_binary_structure(rng, rng.randint(1, 4)), _binary_structure(rng, rng.randint(1, 4)))
              for _ in range(12)]
    families = [zoo.lin(3), zoo.lin(4), zoo.cycle(4), zoo.path(3), zoo.clique(3), zoo.loop(),
                zoo.edge(), zoo.edge2()]
    return cases + [(A, B) for A in families for B in families]


@pytest.mark.parametrize("check", [is_partial_homomorphism, is_partial_isomorphism])
def test_one_pair_check_matches_full_check(check):
    seen = {"repeat": 0, "remapped": 0, "hit": 0, "unary": 0, "loop": 0, "false": 0}
    for A, B in _one_pair_cases():
        pairs = list(product(A.universe, B.universe))
        for size in range(4):
            for P in combinations(pairs, size):
                if not check(P, A, B):
                    continue
                for a, b in pairs:
                    grown = P if (a, b) in P else P + ((a, b),)
                    full = check(grown, A, B)
                    assert check(grown, A, B, new=(a, b)) == full, (P, (a, b))
                    assert check(P, A, B, new=(a, b)) == full, (P, (a, b))  # new added to P
                    seen["repeat"] += (a, b) in P
                    seen["remapped"] += any(x == a and y != b for x, y in P)
                    seen["hit"] += any(y == b and x != a for x, y in P)
                    seen["unary"] += "P" in A.sig.relations and (
                        ((a,) in A.relations["P"]) != ((b,) in B.relations["P"]))
                    seen["loop"] += any((a, a) in tups for tups in A.relations.values())
                    seen["false"] += not full
    assert all(seen.values()), seen


def test_one_pair_check_falls_back_to_the_tuples_with_a_ternary_relation(monkeypatch):
    """A signature with a ternary relation has no pair types: the one-pair
    check reads the tuples through the new pair (`_preserved` with a
    `through`), and certificates verify as before; on a binary signature
    only the full check of the start reads the tuples."""
    throughs = []

    def counted(m, A, B, through):
        throughs.append(through)
        return _preserved(m, A, B, through)
    monkeypatch.setattr("gamecomonads.structures._preserved", counted)
    T = validate_structure({"E": 2, "T": 3}, ["a", "b", "c"],
                           {"E": [["a", "b"], ["b", "c"]], "T": [["a", "b", "c"], ["c", "c", "a"]]})
    for tier in (1, 2, 3):
        for A in (T, zoo.lin(4)):
            cert = decide("ef", tier, A, A, 2)["certificate"]
            del throughs[:]
            sides = [cert["forward"], cert["backward"]] if tier == 1 else [cert]
            assert all(verify_certificate(c, A, A) == (True, None) for c in sides)
            ternary = A is T
            assert (pair_types(A) is None) == ternary
            assert any(t is not None for t in throughs) == ternary, (tier, throughs)
