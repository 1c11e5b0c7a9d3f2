import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest

import rootline.graphs as graphs_module
from rootline.graphs import (
    BestSigning,
    ExhaustionCapError,
    Graph,
    Signing,
    _batch_traces,
    _class_bits,
    _coset_min,
    _cut_space_rows,
    _free_edges,
    _gf2_echelon,
    _scaled_diag,
    _scan_numpy,
    avg_degree_bound,
    best_signing_search,
    catalog_entries,
    complete_bipartite,
    cube_graph,
    cycle_graph,
    girth,
    heawood_graph,
    high_girth_catalog,
    matrix_power,
    ramanujan_bound_holds,
    sign_invariance_report,
    signed_adjacency,
    switching_class_char_polys,
    tutte_coxeter_graph,
)
from rootline.isolation import compare_roots, isolate_real_roots, max_root, max_root_geq
from rootline.poly import char_poly


def best_signing_bruteforce(g: Graph, width: F = F(1, 2**30)) -> BestSigning:
    """Reference implementation: all 2^|E| signings, for cross-checking.

    Walks sign vectors in lexicographic edge order (+1 before -1) so the
    tie-break matches the class-based search by construction.
    """
    m = g.num_edges
    best_bits = None
    best_lam = None
    best_poly = None
    for key in range(1 << m):
        # key's high bit is edge 0: counting up walks sign vectors in lex order
        bits = sum(1 << i for i in range(m) if (key >> (m - 1 - i)) & 1)
        poly = char_poly(signed_adjacency(g, Signing.from_bits(g, bits)))
        lam = max_root(poly, width)
        if best_lam is None or compare_roots(lam, best_lam) < 0:
            best_bits, best_lam, best_poly = bits, lam, poly
    return BestSigning(Signing.from_bits(g, best_bits), best_poly, best_lam, 1 << m)


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
    assert signed_adjacency(g, Signing((1,))) == [[0, 1], [1, 0]]
    assert signed_adjacency(g, Signing((-1,))) == [[0, -1], [-1, 0]]
    assert signed_adjacency(g, Signing((-1,)), [3, -2], 5) == [[3, -5], [-5, -2]]
    with pytest.raises(ValueError):
        signed_adjacency(g, Signing((1,)), [3])


def test_signing_domain_mismatch():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        signed_adjacency(g, Signing((1, 1, 1)))
    with pytest.raises(ValueError):
        signed_adjacency(g, Signing((1,) * 5))


def test_matrix_power_of_signed_adjacency():
    g = cycle_graph(4)
    A = signed_adjacency(g, Signing.from_bits(g, 1))
    assert matrix_power(A, 1) == A
    # one flipped edge: A_s^2 = 2I, so A_s^4 = 4I
    assert matrix_power(A, 2) == [[2 * (i == j) for j in range(4)] for i in range(4)]
    assert matrix_power(A, 4) == [[4 * (i == j) for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError):
        matrix_power(A, 0)


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


def _report_fields(rep):
    return rep.agree, rep.first_disagreement, rep.witness


def test_invariance_numpy_matches_exact_path():
    # float64 and int64 batches against object batches of Python integers
    rng = random.Random(4)
    for g in (cycle_graph(4), cycle_graph(6), cube_graph()):
        D = [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(g.n)]
        k = girth(g)
        diag, L = _scaled_diag(g, D)
        exact = _report_fields(_scan_numpy(g, diag, L, k, object))
        for dtype in (np.float64, np.int64):
            assert _report_fields(_scan_numpy(g, diag, L, k, dtype)) == exact, (g, dtype)


#: C_4 plus a disjoint triangle: the first signing that differs (bits 1,
#: edge (0,1) on the 4-cycle) differs first at power 4, while the triangle
#: edge (4,5) of bits 16 differs already at power 3
C4_AND_TRIANGLE = Graph(7, ((0, 1), (0, 3), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6)))


def test_invariance_witness_rule_same_on_every_path():
    g = C4_AND_TRIANGLE
    expected = (False, 4, (0, 1, 4))
    diag, L = _scaled_diag(g, None)
    for dtype in (np.float64, np.int64, object):
        assert _report_fields(_scan_numpy(g, diag, L, 4, dtype)) == expected
    # zero diagonal scans on float64; entries 10^6 are beyond 2^62 and scan on object batches
    assert _report_fields(sign_invariance_report(g, None, 4)) == expected
    assert _report_fields(sign_invariance_report(g, [10**6] * 7, 4)) == expected


def test_invariance_scans_literal_scaled_matrix():
    # the scan's integer rows are L * (D + A_s), not L*D + A_s
    g = cycle_graph(5)
    D = [F(1, 2), F(-2, 3), F(0), F(5, 4), F(3)]
    diag, L = _scaled_diag(g, D)
    assert L == 12
    for bits in (0, 5, 31):
        s = Signing.from_bits(g, bits)
        expected = [[L * x for x in row] for row in _fraction_adjacency(g, s, D)]
        assert signed_adjacency(g, s, diag, L) == expected


def _fraction_adjacency(g: Graph, s: Signing, D):
    """Rows of D + A_s over Fractions, built apart from `signed_adjacency`."""
    rows = [[F(0)] * g.n for _ in range(g.n)]
    for i, d in enumerate(D or ()):
        rows[i][i] = F(d)
    for (u, v), sign in zip(g.edges, s.signs):
        rows[u][v] = rows[v][u] = F(sign)
    return rows


def invariance_bruteforce(g: Graph, D, k: int):
    """Reference report over Fraction matrices D + A_s, for cross-checking.

    The witness is the first signing in bits order whose traces differ
    from the all-plus signing's, with the first power at which they do.
    """
    n = g.n

    def traces(bits):
        A = _fraction_adjacency(g, Signing.from_bits(g, bits), D)
        out, P = [], A
        for i in range(k):
            if i:
                P = [[sum(P[a][t] * A[t][b] for t in range(n)) for b in range(n)]
                     for a in range(n)]
            out.append(sum(P[a][a] for a in range(n)))
        return out

    ref = traces(0)
    for bits in range(1, 1 << g.num_edges):
        tr = traces(bits)
        if tr != ref:
            power = next(i + 1 for i in range(k) if tr[i] != ref[i])
            return False, power, (0, bits, power)
    return True, None, None


def test_invariance_matches_fraction_bruteforce():
    rng = random.Random(7)
    for g in (cycle_graph(5), C4_AND_TRIANGLE, cube_graph()):
        for k in range(girth(g), girth(g) + 3):
            D = [F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5])) for _ in range(g.n)]
            assert _report_fields(sign_invariance_report(g, D, k)) == \
                invariance_bruteforce(g, D, k), (g, D, k)


def test_class_scan_matches_fraction_bruteforce_on_every_path():
    # seeded small graphs of every shape: without edges, non-bipartite,
    # disconnected, with isolated vertices; k below, at and above the
    # girth; each arithmetic path forced (all three are exact at these sizes)
    rng = random.Random(23)
    shapes = [Graph(3, ()),
              Graph(5, ((0, 1), (0, 2), (1, 2), (3, 4))),
              Graph(6, ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3)))]
    while len(shapes) < 10:
        n = rng.randint(4, 7)
        g = Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < 0.35))
        if 1 <= g.num_edges <= 8:
            shapes.append(g)
    assert any(not g.is_bipartite() for g in shapes[3:])
    for g in shapes:
        gi = girth(g)
        for k in ((1, 2, 3, 4) if gi == math.inf else (gi - 1, gi, gi + 1)):
            D = None if k == 1 else [F(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                                     for _ in range(g.n)]
            diag, L = _scaled_diag(g, D)
            rho = max(abs(d) + L * deg for d, deg in zip(diag, g.degrees()))
            assert g.n * rho**k < 2**53
            expected = invariance_bruteforce(g, D, k)
            for dtype in (np.float64, np.int64, object):
                assert _report_fields(_scan_numpy(g, diag, L, k, dtype)) == expected, \
                    (g, D, k, dtype)


def _assert_class_polys_are_char_polys(g: Graph):
    """One least representative per switching class, each with its char poly."""
    echelon = _gf2_echelon(_cut_space_rows(g))
    got = switching_class_char_polys(g)
    reps = [bits for _, bits in got]
    assert len(set(reps)) == len(reps) == 1 << (g.num_edges - len(echelon))
    assert all(_coset_min(bits, echelon) == bits for bits in reps)
    for coeffs, bits in got:
        chi = char_poly(signed_adjacency(g, Signing.from_bits(g, bits)))
        assert coeffs == tuple(reversed(chi.coeffs)), (g, bits)


def test_class_char_polys_equal_char_poly_on_catalog():
    for entry in catalog_entries():
        if entry.graph.num_edges <= 24:
            _assert_class_polys_are_char_polys(entry.graph)


def _record_batches(monkeypatch):
    """Patch `_batch_traces` to record (dtype, every entry of the batch and
    of its traces is a Python int) per call."""
    batches = []
    batch_traces = graphs_module._batch_traces

    def record(mats, k):
        traces = batch_traces(mats, k)
        batches.append((mats.dtype, all(type(x) is int for x in mats.flat)
                        and all(type(x) is int for x in traces.flat)))
        return traces

    monkeypatch.setattr(graphs_module, "_batch_traces", record)
    return batches


def test_class_char_polys_int64_and_object_paths(monkeypatch):
    # stars with a few edges among the leaves: the bound n * deg_max^n is
    # 14 * 13^14 (int64 traces) and 17 * 16^17 (object batches of Python
    # ints; an int64 there would wrap silently)
    batches = _record_batches(monkeypatch)
    leaves = ((1, 2), (2, 3), (3, 4), (5, 6), (1, 6))
    assert 2**53 <= 14 * 13**14 < 2**62 <= 17 * 16**17
    int64_star = Graph(14, tuple((0, i) for i in range(1, 14)) + leaves)
    _assert_class_polys_are_char_polys(int64_star)
    assert [dtype for dtype, _ in batches] == [np.int64]
    batches.clear()
    object_star = Graph(17, tuple((0, i) for i in range(1, 17)) + leaves)
    _assert_class_polys_are_char_polys(object_star)
    assert batches == [(object, True)]


def test_invariance_object_batches_hold_python_ints(monkeypatch):
    # beyond 2^62 the scan runs on object batches; every entry stays a
    # Python int, also when the common denominator L is beyond int64
    batches = _record_batches(monkeypatch)
    g = C4_AND_TRIANGLE
    for D in ([10**6] * 7, [F(1, 2**64)] + [F(3, 2)] * 6, [F(5, 3**40)] * 7):
        batches.clear()
        assert _report_fields(sign_invariance_report(g, D, 4)) == \
            invariance_bruteforce(g, D, 4), D
        assert batches == [(object, True)], D


def traces_exact(rows, k: int):
    """trace(M^i), i = 1..k, on Python integers, without numpy: the batch
    kernel's reference."""
    out, power = [], rows
    for i in range(k):
        if i:
            power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*rows)]
                     for row in power]
        out.append(sum(power[a][a] for a in range(len(rows))))
    return out


def test_batch_traces_float64_exact_just_below_2_53():
    # C_8 with diagonal 139: rho = 139 + 2 = 141 and 8 * 141^7 < 2^53 <= 8 * 142^7,
    # and every signing's trace of M^7 is about 8 * 139^7, above 2^52
    g = cycle_graph(8)
    diag = [139] * 8
    assert 8 * 141**7 < 2**53 <= 8 * 142**7
    rows = [signed_adjacency(g, Signing.from_bits(g, bits), diag) for bits in range(1 << 8)]
    got = _batch_traces(np.array(rows, dtype=np.float64), 7)
    assert got.dtype == np.int64
    assert got.T.tolist() == [traces_exact(r, 7) for r in rows]
    assert abs(got).max() > 2**52


def test_scan_batches_hold_every_class_representative(monkeypatch):
    # K_7: 21 edges, 6 pivot edges, 15 free edges, so four batches of 2^13
    # representatives that differ in the signs of the last two free edges
    g = Graph(7, tuple(combinations(range(7), 2)))
    diag, L = _scaled_diag(g, [F(i - 3, 2) for i in range(g.n)])
    free = _free_edges(g)
    assert len(free) == 15
    batch_traces = graphs_module._batch_traces
    batches = []

    def check(mats, k):
        high = len(batches)
        for j in (0, 1, 4097, 8191):
            bits = _class_bits((high << 13) + j, free)
            assert mats[j].tolist() == signed_adjacency(g, Signing.from_bits(g, bits), diag, L)
        batches.append(high)
        return batch_traces(mats, k)

    monkeypatch.setattr(graphs_module, "_batch_traces", check)
    assert _scan_numpy(g, diag, L, 2, np.float64).agree
    assert batches == [0, 1, 2, 3]


def test_invariance_path_switches_at_2_53_and_2_62(monkeypatch):
    # C_8 at k = 7 with diagonal d: rho = d + 2, and the bound is 8 * rho^7
    taken = []
    scan_numpy = graphs_module._scan_numpy
    monkeypatch.setattr(graphs_module, "_scan_numpy",
                        lambda *a: taken.append(a[-1].__name__) or scan_numpy(*a))
    assert 8 * 344**7 < 2**62 <= 8 * 345**7
    for d in (139, 140, 342, 343):
        assert sign_invariance_report(cycle_graph(8), [d] * 8, 7).agree
    assert taken == ["float64", "int64", "int64", "object"]


def test_invariance_seeded_c8_below_girth_skips_exact_path(monkeypatch):
    # the largest diagonal criterion 5 draws (entries -8..8 over 1..4,
    # common denominator 12): rho = 12*8 + 12*2 = 120, 8 * 120^7 < 2^53
    scan_numpy = graphs_module._scan_numpy

    def refuse(*args):
        if args[-1] is not np.float64:
            raise AssertionError(f"{args[-1].__name__} path taken")
        return scan_numpy(*args)

    monkeypatch.setattr(graphs_module, "_scan_numpy", refuse)
    D = [F(8), F(-8), F(8), F(-8), F(8, 3), F(-8), F(7, 4), F(8)]
    assert sign_invariance_report(cycle_graph(8), D, 7).agree


def test_invariance_cap():
    with pytest.raises(ExhaustionCapError):
        sign_invariance_report(tutte_coxeter_graph(), None, 3)


def test_best_signing_matches_bruteforce():
    for g in (cycle_graph(4), cycle_graph(6), cube_graph(), complete_bipartite(3, 3)):
        fast = best_signing_search(g)
        slow = best_signing_bruteforce(g)
        assert fast.signing == slow.signing
        assert fast.char == slow.char


def test_best_signing_isolates_each_polynomial_once(monkeypatch):
    # the winner's 2^-30 enclosure is refined from its 2^-20 one, not
    # isolated again
    isolated = []

    def counting(p, precision):
        isolated.append(p)
        return max_root(p, precision)

    monkeypatch.setattr(graphs_module, "max_root", counting)
    for g in (cycle_graph(4), cube_graph(), complete_bipartite(3, 3),
              complete_bipartite(4, 4), heawood_graph()):
        isolated.clear()
        best = best_signing_search(g)
        assert len(isolated) == best.classes_searched
        assert len(set(isolated)) == len(isolated)


def test_best_signing_heawood_cospectral_tie_is_lex_least():
    # 28 classes reach the least lambda_max, all with one characteristic
    # polynomial; the returned signing attains it and no lex-smaller one does
    g = heawood_graph()
    best = best_signing_search(g)
    lams = {}

    def lam(signs):
        chi = char_poly(signed_adjacency(g, Signing(signs)))
        if chi not in lams:
            lams[chi] = max_root(chi, F(1, 2**20))
        return lams[chi]

    least = None
    for _, bits in switching_class_char_polys(g):  # one signing per class
        r = lam(Signing.from_bits(g, bits).signs)
        if least is None or compare_roots(r, least) < 0:
            least = r
    s = best.signing.signs
    assert s == (1,) * 13 + (-1, -1, 1, -1, -1, 1, 1, -1)
    assert compare_roots(lam(s), least) == 0
    smaller = [s[:i] + (1,) + rest for i in range(len(s)) if s[i] == -1
               for rest in product((1, -1), repeat=len(s) - 1 - i)]
    assert len(smaller) < 256
    assert all(compare_roots(lam(t), least) > 0 for t in smaller)


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
    # K_4 with every sign -1 has spectrum {-3, 1, 1, 1}: lambda_max = 1 <= 2 sqrt(2)
    # though |-3| is not; all +1 gives lambda_max = 3 > 2 sqrt(2)
    k4 = Graph(4, tuple(combinations(range(4), 2)))
    assert ramanujan_bound_holds(k4, Signing((-1,) * 6))
    assert not ramanujan_bound_holds(k4, Signing.all_plus(k4))
    # equality: the all-plus C_4 has lambda_max = 2 = 2 sqrt(2 - 1)
    assert ramanujan_bound_holds(cycle_graph(4), Signing.all_plus(cycle_graph(4)))


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
        if g.num_edges > 24:
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
        assert sign_invariance_report(g, D, girth(g) - 1).agree, entry.name


def test_graph_json_round_trip():
    g = heawood_graph()
    assert Graph.from_json_dict(g.to_json_dict()) == g
