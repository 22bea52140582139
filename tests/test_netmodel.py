"""Communication-graph construction, synthetic generation, file parsing."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diversim import (
    CommGraph,
    ImplementationPool,
    Layer,
    NetworkError,
    assign_vulnerabilities,
    build_graph,
    generate_synthetic_network,
    load_network_files,
    read_id_file,
    write_id_file,
)
from diversim.netmodel import _csr, _preferential_attachment, gather_neighbors, sorted_unique

import reference
from conftest import degrees_from_edges


# --- Layer parsing -------------------------------------------------------------

def test_layer_dedups_and_canonicalizes():
    layer = Layer.from_edges([(3, 1), (1, 3), (2, 2), (1, 2)])
    assert layer.edges.dtype == layer.participants.dtype == np.int64
    assert layer.edges.tolist() == [[1, 2], [1, 3]]
    assert layer.participants.tolist() == [1, 2, 3]


def test_layer_participants_may_exceed_edge_ids():
    layer = Layer.from_edges([(0, 1)], participants=[0, 1, 7])
    assert 7 in layer.participants


def test_layer_rejects_edge_outside_participants():
    with pytest.raises(NetworkError):
        Layer.from_edges([(0, 1), (1, 9)], participants=[0, 1])


def test_layer_rejects_negative_ids():
    with pytest.raises(NetworkError):
        Layer.from_edges([(-1, 2)])


# --- graph construction --------------------------------------------------------

@pytest.mark.parametrize("layer,users", [
    (Layer.from_edges([(0, 1)]), [-1, 0, 1]),
    (Layer.from_edges([(0, 1)], participants=[-1, 0, 1]), None),
], ids=["users", "participants"])
def test_graph_rejects_negative_user_ids(layer, users):
    with pytest.raises(NetworkError, match="negative user id"):
        build_graph([layer], users=users)


def test_single_isolated_user_gets_app_and_os():
    g = build_graph([Layer.from_edges([], participants=[4])])
    assert g.n_computers == 1
    assert g.n_nodes == 2
    assert len(g.edges) == 1
    assert sorted(g.program.tolist()) == [0, 1]
    # the only edge pairs the app with its own OS
    assert g.edges.tolist() == [[0, 1]]


def test_two_users_two_layers_one_link():
    layer0 = Layer.from_edges([(0, 1)], participants=[0, 1])
    layer1 = Layer.from_edges([], participants=[0, 1])
    g = build_graph([layer0, layer1])
    assert g.n_nodes == 6
    # per computer: app0-OS, app1-OS, app0-app1; plus the one layer-0 link
    assert len(g.edges) == 7
    inter = g.edges[g.computer[g.edges[:, 0]] != g.computer[g.edges[:, 1]]]
    assert len(inter) == 1
    a, b = inter[0]
    assert g.program[a] == g.program[b] == 0


def test_overlap_graph_counts(overlap_graph):
    g = overlap_graph
    assert g.n_computers == 5
    # users 1, 4, 5 carry both apps (3 nodes), users 2, 3 one app (2 nodes)
    assert g.n_nodes == 13
    assert g.hbar == 3
    assert g.os_program == 2
    counts = np.bincount(g.computer)
    assert sorted(counts.tolist()) == [2, 2, 3, 3, 3]


def test_overlap_graph_node_numbering(overlap_graph):
    g = overlap_graph
    # computer-major: within a computer apps come in program order, OS last
    assert (np.diff(g.computer) >= 0).all()
    for c in range(g.n_computers):
        nodes = np.flatnonzero(g.computer == c)
        progs = g.program[nodes].tolist()
        assert progs == sorted(progs)
        assert progs[-1] == g.os_program
        assert int(g.os_of_computer[c]) == nodes[-1]


def test_overlap_graph_edges(overlap_graph):
    g = overlap_graph
    intra = g.edges[g.computer[g.edges[:, 0]] == g.computer[g.edges[:, 1]]]
    inter = g.edges[g.computer[g.edges[:, 0]] != g.computer[g.edges[:, 1]]]
    # 3 two-app computers contribute 3 intra edges each, 2 one-app computers 1
    assert len(intra) == 3 * 3 + 2 * 1
    # one inter edge per social link
    assert len(inter) == 4 + 3
    # inter edges join same-program application nodes, never OS nodes
    assert (g.program[inter[:, 0]] == g.program[inter[:, 1]]).all()
    assert (g.program[inter[:, 0]] != g.os_program).all()


def test_os_nodes_never_link_across_computers(overlap_graph):
    g = overlap_graph
    for a, b in g.edges:
        if g.program[a] == g.os_program or g.program[b] == g.os_program:
            assert g.computer[a] == g.computer[b]


def test_same_program_neighbors_subset(overlap_graph):
    g = overlap_graph
    for v in range(g.n_nodes):
        sp = set(reference.same_program_neighbors(g, v).tolist())
        nb = set(reference.neighbors(g, v).tolist())
        assert sp <= nb
        assert all(g.program[u] == g.program[v] for u in sp)


def test_rejects_user_without_any_layer():
    layer = Layer.from_edges([(0, 1)])
    with pytest.raises(NetworkError):
        build_graph([layer], users=[0, 1, 2])


def test_rejects_layer_with_unknown_user():
    layer = Layer.from_edges([(0, 1)], participants=[0, 1, 5])
    with pytest.raises(NetworkError):
        build_graph([layer], users=[0, 1])


def test_rejects_empty_inputs():
    with pytest.raises(NetworkError):
        build_graph([])
    with pytest.raises(NetworkError):
        build_graph([Layer.from_edges([], participants=[])])


@pytest.mark.parametrize("n,edges", [
    (5, []),
    (6, [(0, 5), (2, 3)]),
    (7, [(0, 1), (0, 2), (1, 2), (2, 6), (4, 6)]),
], ids=["no-links", "isolated-nodes", "shared-ends"])
def test_csr_matches_lexsort(n, edges):
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    got, want = _csr(n, edges), reference.lexsort_csr(n, edges)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def test_csr_matches_lexsort_on_synthetic_graph():
    g = build_graph(generate_synthetic_network(300, 250, 0.5, 3, seed=5))
    for edges in (g.edges, g.sp_edges):
        for a, b in zip(_csr(g.n_nodes, edges), reference.lexsort_csr(g.n_nodes, edges)):
            assert np.array_equal(a, b)


def test_gather_neighbors_matches_per_node_lookup(overlap_graph):
    g = overlap_graph
    hosts = np.array([0, 5, 5, 12], dtype=np.int64)
    got = gather_neighbors(g.indptr, g.indices, hosts)
    want = np.concatenate([reference.neighbors(g, int(h)) for h in hosts])
    assert np.array_equal(got, want)
    empty = gather_neighbors(g.indptr, g.indices, np.empty(0, dtype=np.int64))
    assert empty.size == 0


@st.composite
def csr_hosts(draw):
    """A CSR over some linked nodes and one to three isolated ones, in either
    index dtype, and hosts that may repeat, with isolated hosts drawn in
    first, in the middle and last; the hosts may be empty."""
    linked = draw(st.integers(1, 8))
    n = linked + draw(st.integers(1, 3))
    ids = draw(st.permutations(range(n)))
    pairs = [(ids[i], ids[j]) for i in range(linked) for j in range(i + 1, linked)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    indptr, indices = _csr(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    indices = indices.astype(draw(st.sampled_from([np.int64, np.int32])))
    hosts = draw(st.lists(st.integers(0, n - 1), max_size=10))
    # last first, so each position still refers to the drawn list
    for at in (len(hosts), len(hosts) // 2, 0):
        if draw(st.booleans()):
            hosts.insert(at, draw(st.sampled_from(ids[linked:])))
    return indptr, indices, np.array(hosts, dtype=np.int64)


@given(csr_hosts())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_gather_neighbors_concatenates_the_hosts_slices(case):
    indptr, indices, hosts = case
    before = [a.copy() for a in case]
    got = gather_neighbors(indptr, indices, hosts)
    want = np.concatenate([indices[:0]] + [indices[indptr[h]:indptr[h + 1]] for h in hosts])
    assert got.dtype == indices.dtype
    assert np.array_equal(got, want)
    # its arithmetic runs in place on arrays of its own, never on the inputs
    assert all(np.array_equal(a, b) for a, b in zip(case, before))


# small ranges repeat values; the int64 extremes check that nothing overflows
int64s = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))


@given(st.lists(int64s, max_size=40))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_sorted_unique_equals_np_unique(values):
    arr = np.array(values, dtype=np.int64)
    got = sorted_unique(arr)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(arr))
    # empty, and a 2-D array, flattened as np.unique does
    assert sorted_unique(arr[:0]).size == 0
    assert np.array_equal(sorted_unique(np.stack([arr, arr[::-1]])), np.unique(arr))


@given(st.integers(0, 2**31 - 1), st.integers(2, 30), st.integers(2, 30))
@settings(max_examples=25, deadline=None)
def test_random_two_layer_graphs_well_formed(seed, n1, n2):
    rng = np.random.default_rng(seed)
    users1 = rng.choice(60, size=n1, replace=False)
    users2 = rng.choice(60, size=n2, replace=False)
    e1 = [(int(rng.choice(users1)), int(rng.choice(users1))) for _ in range(n1)]
    e2 = [(int(rng.choice(users2)), int(rng.choice(users2))) for _ in range(n2)]
    g = build_graph([
        Layer.from_edges(e1, participants=users1),
        Layer.from_edges(e2, participants=users2),
    ])
    users = set(users1) | set(users2)
    assert g.n_computers == len(users)
    both = len(set(users1) & set(users2))
    assert g.n_nodes == len(users) + len(users1) + len(users2)
    # every computer has one OS node and at least one app node
    assert int((g.program == g.os_program).sum()) == g.n_computers
    assert np.bincount(g.computer).min() >= 2
    # CSR degree agrees with the edge list
    assert np.array_equal(g.degree, degrees_from_edges(g.n_nodes, g.edges))


@st.composite
def raw_layers(draw):
    """One to three layers over up to 14 sparse user ids, as raw inputs:
    links drawn with repeats, self-links and reversed copies; members given
    (some with no link in the layer) or left to the links; and the user set
    left out or given with repeats."""
    ids = sorted(draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=14)))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        members = sorted(draw(st.sets(st.sampled_from(ids), min_size=1)))
        pick = st.sampled_from(members)
        edges = draw(st.lists(st.tuples(pick, pick), max_size=30))
        edges += [(w, u) for u, w in edges[:draw(st.integers(0, len(edges)))]]
        layers.append((edges, members if draw(st.booleans()) else None))
    union = set().union(*(reference.canonical_layer(*raw)[1] for raw in layers))
    assume(union)
    users = draw(st.none() | st.permutations(sorted(union) * 2))
    return layers, users


GRAPH_ARRAYS = (
    "program", "computer", "os_of_computer", "is_app",
    "edges", "indptr", "indices", "sp_edges", "sp_indptr", "sp_indices", "degree", "slot_node",
)


@given(raw_layers())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_graph_matches_the_computer_by_computer_build(network):
    raw, users = network
    layers = [Layer.from_edges(edges, participants=members) for edges, members in raw]
    canon = [reference.canonical_layer(edges, members) for edges, members in raw]
    for layer, (links, members) in zip(layers, canon):
        assert np.asarray(layer.edges).reshape(-1, 2).tolist() == [list(e) for e in links]
        assert sorted(int(u) for u in layer.participants) == members
    g = build_graph(layers, users)
    want = reference.ReferenceGraph(canon, users)
    for name in ("n_computers", "hbar", "os_program", "n_nodes"):
        assert getattr(g, name) == getattr(want, name), name
    for name in GRAPH_ARRAYS:
        got, ref = getattr(g, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    assert g.slot_node.flags.c_contiguous
    # every node has a neighbor, and an OS node's neighbors are exactly its
    # computer's applications
    assert g.degree.min() >= 1
    for c, os_node in enumerate(g.os_of_computer):
        apps = np.flatnonzero((g.computer == c) & g.is_app)
        assert np.array_equal(g.indices[g.indptr[os_node]:g.indptr[os_node + 1]], apps)


# --- implementation pool and vulnerabilities ------------------------------------

def test_pool_validation():
    with pytest.raises(NetworkError):
        ImplementationPool(hbar=1, x=5)
    with pytest.raises(NetworkError):
        ImplementationPool(hbar=3, x=0)
    with pytest.raises(NetworkError, match="32767"):
        ImplementationPool(hbar=3, x=32768)
    assert ImplementationPool(hbar=3, x=32767).x == 32767
    assert ImplementationPool(hbar=3, x=5).os_program == 2


def test_vulnerable_count_rounds():
    pool = ImplementationPool(hbar=3, x=20)
    vm = assign_vulnerabilities(pool, 0.6, np.random.default_rng(0))
    assert vm.shape == (3, 20)
    assert (vm.sum(axis=1) == 12).all()


@pytest.mark.parametrize("q,expect", [(0.0, 0), (1.0, 10), (0.25, 2), (0.05, 0)])
def test_vulnerable_count_edge_cases(q, expect):
    pool = ImplementationPool(hbar=2, x=10)
    vm = assign_vulnerabilities(pool, q, np.random.default_rng(3))
    assert (vm.sum(axis=1) == expect).all()


def test_vulnerability_out_of_range_rejected():
    pool = ImplementationPool(hbar=2, x=4)
    with pytest.raises(NetworkError):
        assign_vulnerabilities(pool, 1.5, np.random.default_rng(0))


def test_vulnerable_sets_nest_as_quality_degrades():
    # same stream seed: the lower-q set is a prefix of the higher-q one
    pool = ImplementationPool(hbar=4, x=12)
    lo = assign_vulnerabilities(pool, 0.25, np.random.default_rng(9))
    hi = assign_vulnerabilities(pool, 0.75, np.random.default_rng(9))
    assert (~lo | hi).all()


# --- synthetic networks ----------------------------------------------------------

def test_synthetic_network_user_counts():
    l1, l2 = generate_synthetic_network(80, 60, 0.5, 3, seed=1)
    assert len(l1.participants) == 80
    assert len(l2.participants) == 60
    union = np.union1d(l1.participants, l2.participants)
    assert len(union) == 80 + 60 - round(0.5 * 60)


def test_synthetic_network_disjoint_when_no_overlap():
    l1, l2 = generate_synthetic_network(40, 30, 0.0, 2, seed=4)
    assert np.intersect1d(l1.participants, l2.participants).size == 0


def test_synthetic_network_deterministic():
    a = generate_synthetic_network(50, 40, 0.3, 3, seed=11)
    b = generate_synthetic_network(50, 40, 0.3, 3, seed=11)
    c = generate_synthetic_network(50, 40, 0.3, 3, seed=12)
    assert np.array_equal(a[0].edges, b[0].edges) and np.array_equal(a[1].edges, b[1].edges)
    assert not np.array_equal(a[1].edges, c[1].edges)


def test_synthetic_network_attachment_degree():
    l1, _ = generate_synthetic_network(50, 30, 0.0, 4, seed=2)
    deg = {}
    for u, w in l1.edges:
        deg[u] = deg.get(u, 0) + 1
        deg[w] = deg.get(w, 0) + 1
    # every node past the seed core arrives with exactly 4 links
    assert min(d for v, d in deg.items() if v >= 4) >= 4


@pytest.mark.parametrize("n,m", [
    (2, 1), (10, 9), (50, 1), (200, 50), (545, 3), (545, 22), (2000, 7), (5702, 3),
])
def test_preferential_attachment_matches_node_by_node_draws(n, m):
    # same links and the same generator state afterwards, also from a
    # generator holding the unused half of a 64-bit output
    for seed in (0, 7, 11):
        for pending_half in (False, True):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            if pending_half:
                ours.integers(5)
                theirs.integers(5)
            want = np.array(reference.preferential_attachment(n, m, theirs), dtype=np.int64)
            got = _preferential_attachment(n, m, ours)
            assert got.dtype == np.int64
            assert np.array_equal(got, want.reshape(-1, 2))
            assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("bounds", [
    [2, 7, 1000, 2**31 - 1],
    [2**31, 2**31 + 5, 2**32 - 1, 2**32],
    [2**32 + 1, 2**40, 3, 2**62],
], ids=["below-2**31", "2**31-to-2**32", "above-2**32"])
@pytest.mark.parametrize("prior", [0, 1, 3])
def test_bounded_draws_of_an_array_read_the_stream_as_scalar_draws(bounds, prior):
    # the batched generator relies on this: rng.integers(0, bounds) gives
    # one scalar rng.integers(b) per bound and leaves the same state, also
    # after an odd number of 32-bit draws left half an output pending
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    for rng in (ours, theirs):
        for _ in range(prior):
            rng.integers(10)
    bounds = np.array(bounds * 3, dtype=np.int64)
    got = ours.integers(0, bounds)
    want = [int(theirs.integers(b)) for b in bounds]
    assert got.tolist() == want
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_synthetic_network_validation():
    with pytest.raises(NetworkError):
        generate_synthetic_network(10, 10, 0.5, 0, seed=0)
    with pytest.raises(NetworkError):
        generate_synthetic_network(3, 10, 0.5, 3, seed=0)
    with pytest.raises(NetworkError):
        generate_synthetic_network(10, 10, 1.5, 2, seed=0)


def test_reference_scale_union():
    # two layers the size of the bundled measurement study: 5702 and 5540
    # users with 88.7545% of the smaller layer shared gives 6325 computers
    l1, l2 = generate_synthetic_network(5702, 5540, 0.887545, 3, seed=0)
    assert len(np.union1d(l1.participants, l2.participants)) == 6325


# --- file formats -----------------------------------------------------------------

def test_edge_file_roundtrip(tmp_path):
    path = tmp_path / "layer.edges"
    write_id_file(path, [(0, 1), (2, 3)], comment="demo")
    assert read_id_file(path, 2).tolist() == [[0, 1], [2, 3]]


def test_edge_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "layer.edges"
    path.write_text("# header\n\n1 2\n  \n3 4\n")
    assert read_id_file(path, 2).tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("body", ["1 2 3\n", "a b\n", "-1 2\n", "1 9223372036854775808\n",
                                  "1_000 2\n", "\u0663 2\n", "+1 2\n"])
def test_edge_file_rejects_malformed_lines(tmp_path, body):
    path = tmp_path / "bad.edges"
    path.write_text(body)
    with pytest.raises(NetworkError):
        read_id_file(path, 2)


@pytest.mark.parametrize("body,message", [
    ("1 2\n3 " + "9" * 5000 + "\n", "bad.edges:2: user id does not fit in int64"),
    ("-" + "9" * 5000 + " 2\n", "bad.edges:1: negative user id"),
    ("1 \u0663\n", "bad.edges:1: non-integer id in '1 \u0663'"),
    # a bad line after thousands of good ones fails the whole-file check and
    # is named by the line-by-line read
    ("# header\n" + "1 2\n" * 5000 + "3 x\n", "bad.edges:5002: non-integer id in '3 x'"),
    ("1 2\n" * 5000 + "\t3\n", "bad.edges:5001: expected 2 ids, got '3'"),
    ("1 2\n" * 5000 + "3 -4\n", "bad.edges:5001: negative user id"),
    ("1 2\n" * 5000 + "3 9223372036854775808", "bad.edges:5001: user id does not fit in int64"),
], ids=["long-digit-run", "long-negative", "arabic-indic-digit", "far-non-integer",
        "far-width", "far-negative", "far-int64"])
def test_id_file_messages(tmp_path, body, message):
    # a digit run past int()'s 4300-digit limit still gets the int64 or negative message
    path = tmp_path / "bad.edges"
    path.write_text(body)
    with pytest.raises(NetworkError) as err:
        read_id_file(path, 2)
    assert str(err.value) == f"{path.parent}/{message}"


def test_id_file_read_whole_equals_line_by_line(tmp_path):
    # tabs, padding, blank and comment lines, -0 and an unterminated last line
    path = tmp_path / "ids.edges"
    path.write_text("  # c\n1\t2 \n\n 999999999999999999  0\n#\n3 -0\n4 9223372036854775807")
    assert read_id_file(path, 2).tolist() == [
        [1, 2], [999999999999999999, 0], [3, 0], [4, 2**63 - 1]]
    path.write_text("")
    assert read_id_file(path, 2).shape == (0, 2)


def test_id_file_leading_zeros_are_one_id(tmp_path):
    path = tmp_path / "zeros.edges"
    path.write_text("0" * 5000 + "7 00\n")
    assert read_id_file(path, 2).tolist() == [[7, 0]]


def test_missing_id_file_at_an_absolute_path(tmp_path):
    path = tmp_path / "gone.edges"
    with pytest.raises(NetworkError) as err:
        read_id_file(path, 2)
    assert str(err.value) == f"network file not found: {path}"


def test_users_file(tmp_path):
    path = tmp_path / "users.txt"
    path.write_text("# ids\n3\n1\n3\n")
    assert read_id_file(path, 1).tolist() == [[3], [1], [3]]
    for body in ("x\n", "9223372036854775808\n"):
        path.write_text(body)
        with pytest.raises(NetworkError):
            read_id_file(path, 1)


def test_load_network_files_union(tmp_path):
    p1 = tmp_path / "l1.edges"
    p2 = tmp_path / "l2.edges"
    up = tmp_path / "users.txt"
    write_id_file(p1, [(0, 1)])
    write_id_file(p2, [(1, 2)])
    up.write_text("5\n")
    layers, users = load_network_files([p1, p2], up)
    assert len(layers) == 2
    assert users.tolist() == [0, 1, 2, 5]
    layers, users = load_network_files([p1, p2])
    assert users.tolist() == [0, 1, 2]
