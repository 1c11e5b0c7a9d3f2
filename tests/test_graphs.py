import math
import random
from fractions import Fraction as F

import pytest

from rootline.graphs import (
    BestSigning,
    ExhaustionCapError,
    Graph,
    Signing,
    _int_rows,
    avg_degree_bound,
    best_signing_search,
    catalog_entries,
    complete_bipartite,
    cube_graph,
    cycle_graph,
    girth,
    heawood_graph,
    high_girth_catalog,
    ramanujan_bound_holds,
    sample_sign_invariance,
    sign_invariance_report,
    signed_adjacency,
    switching_class_char_polys,
    tutte_coxeter_graph,
)
from rootline.isolation import compare_roots, isolate_real_roots, max_root, max_root_geq
from rootline.poly import ExactPolynomial, char_poly, char_poly_int_rows


def best_signing_bruteforce(g: Graph, width: F = F(1, 2**30)) -> BestSigning:
    """Reference implementation: all 2^|E| signings, for cross-checking.

    Walks sign vectors in lexicographic edge order (+1 before -1) so the
    tie-break matches the class-based search by construction.
    """
    m = g.num_edges
    zero_diag = [0] * g.n
    best_bits = None
    best_lam = None
    best_coeffs = None
    for key in range(1 << m):
        # key's high bit is edge 0: counting up walks sign vectors in lex order
        bits = sum(1 << i for i in range(m) if (key >> (m - 1 - i)) & 1)
        signs = Signing.from_bits(g, bits).signs
        coeffs = tuple(char_poly_int_rows(_int_rows(g, signs, zero_diag)))
        poly = ExactPolynomial.from_coeffs(list(reversed([F(c) for c in coeffs])))
        lam = max_root(poly, width)
        if best_lam is None or compare_roots(lam, best_lam) < 0:
            best_bits, best_lam, best_coeffs = bits, lam, coeffs
    poly = ExactPolynomial.from_coeffs(list(reversed([F(c) for c in best_coeffs])))
    return BestSigning(Signing.from_bits(g, best_bits), poly, best_lam, 1 << m)


def test_girth_values():
    assert girth(cycle_graph(5)) == 5
    assert girth(Graph(7, tuple((i, i + 1) for i in range(6)))) == math.inf
    assert girth(heawood_graph()) == 6
    assert girth(tutte_coxeter_graph()) == 8
    assert girth(cube_graph()) == 4
    assert girth(complete_bipartite(3, 3)) == 4


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


def test_catalog():
    hw = high_girth_catalog("heawood")
    assert hw.n == 14 and hw.num_edges == 21
    assert high_girth_catalog("C_8").num_edges == 8
    assert high_girth_catalog("K_3,3").num_edges == 9
    tc = high_girth_catalog("tutte-coxeter")
    assert tc.n == 30 and tc.num_edges == 45
    with pytest.raises(ValueError):
        high_girth_catalog("C_7")  # odd cycles are not bipartite
    with pytest.raises(ValueError):
        high_girth_catalog("petersen")


def test_catalog_metadata_verified():
    for entry in catalog_entries():
        assert girth(entry.graph) == entry.girth, entry.name
        assert entry.graph.max_degree() == entry.deg_max, entry.name
        assert avg_degree_bound(entry.graph) == entry.deg_avg, entry.name
        assert entry.graph.is_bipartite(), entry.name


def test_signed_adjacency_single_edge():
    g = Graph(2, ((0, 1),))
    A = signed_adjacency(g, Signing((1,)))
    assert A.entries == ((F(0), F(1)), (F(1), F(0)))
    An = signed_adjacency(g, Signing((-1,)))
    assert An.entries == ((F(0), F(-1)), (F(-1), F(0)))


def test_signing_domain_mismatch():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        signed_adjacency(g, Signing((1, 1, 1)))


def test_c4_spectrum():
    g = cycle_graph(4)
    evs = isolate_real_roots(char_poly(signed_adjacency(g, Signing.all_plus(g))), F(1, 2**30))
    got = sorted((round(float(r), 9), r.multiplicity) for r in evs)
    assert got == [(-2.0, 1), (0.0, 2), (2.0, 1)]


def test_invariance_c4():
    g = cycle_graph(4)
    assert sign_invariance_report(g, None, 3).agree
    assert not sign_invariance_report(g, None, 4).agree


def test_invariance_single_edge_any_diagonal():
    g = Graph(2, ((0, 1),))
    assert sign_invariance_report(g, [F(3, 2), F(-1, 3)], 1).agree


def test_invariance_numpy_matches_exact_path():
    rng = random.Random(4)
    for g in (cycle_graph(4), cycle_graph(6), cube_graph()):
        D = [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(g.n)]
        k = girth(g)
        from rootline.graphs import _scaled_diag, _scan_exact, _scan_numpy

        diag, _ = _scaled_diag(g, D)
        a = _scan_numpy(g, diag, k)
        b = _scan_exact(g, diag, k)
        assert a.agree == b.agree
        if not a.agree:
            assert a.first_disagreement == b.first_disagreement


def test_invariance_cap():
    with pytest.raises(ExhaustionCapError):
        sign_invariance_report(tutte_coxeter_graph(), None, 3)
    assert sample_sign_invariance(tutte_coxeter_graph(), None, 3, samples=5, seed=1)


def test_best_signing_matches_bruteforce():
    for g in (cycle_graph(4), cycle_graph(6), cube_graph(), complete_bipartite(3, 3)):
        fast = best_signing_search(g)
        slow = best_signing_bruteforce(g)
        assert fast.signing == slow.signing
        assert fast.char == slow.char


def test_best_signing_c4_value():
    g = cycle_graph(4)
    best = best_signing_search(g)
    # one flipped edge: spectrum {+-sqrt2, +-sqrt2}
    assert best.signing.signs.count(-1) == 1
    assert best.lambda_max.lo**2 <= 2 <= best.lambda_max.hi**2


def test_best_signing_cube_bound():
    g = cube_graph()
    best = best_signing_search(g)
    assert ramanujan_bound_holds(g, best.signing)  # lambda <= 2 sqrt(2)


def test_best_signing_cap():
    with pytest.raises(ExhaustionCapError):
        best_signing_search(tutte_coxeter_graph())


def test_avg_degree_examples():
    assert avg_degree_bound(cycle_graph(9)) == 2
    k4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    assert avg_degree_bound(k4) == 3
    assert avg_degree_bound(heawood_graph()) == 3


def test_avg_degree_lower_bounds_top_eigenvalue():
    for entry in catalog_entries():
        g = entry.graph
        chi = char_poly(signed_adjacency(g, Signing.all_plus(g)))
        assert max_root_geq(chi, avg_degree_bound(g)), entry.name


def test_bipartite_char_poly_parity_all_signings():
    # bipartite signed adjacency: only terms sharing the parity of n
    # survive.  char polys are switching-class functions, so checking
    # one representative per class covers all 2^|E| signings exactly.
    for entry in catalog_entries():
        g = entry.graph
        if g.num_edges > 16:
            continue
        for desc, _bits in switching_class_char_polys(g):
            for j, c in enumerate(desc):  # desc[j] is the x^(n-j) coefficient
                if j % 2 == 1:
                    assert c == 0, entry.name


def test_invariance_whole_catalog_below_girth():
    # every catalog graph within the cap, one random small-rational
    # diagonal, every power below the girth
    rng = random.Random(11)
    for entry in catalog_entries():
        g = entry.graph
        if g.num_edges > 24:
            continue
        D = [F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(g.n)]
        if g.num_edges <= 12:
            assert sign_invariance_report(g, D, girth(g) - 1).agree, entry.name


def test_graph_json_round_trip():
    g = heawood_graph()
    assert Graph.from_json_dict(g.to_json_dict()) == g
