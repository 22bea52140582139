"""Layered user networks and the program-level communication graph.

Users are non-negative integer ids. Each social layer carries the links of
one application; a user owns one computer hosting an application node for
every layer the user participates in, plus a single operating-system node.

Edges of the communication graph:

* intra-computer: every local application pairs with the local OS and with
  every other local application;
* inter-computer: a layer-j link (u, w) connects u's and w's layer-j
  application nodes.

OS nodes never connect across computers, so every inter-computer edge joins
two nodes of the same program. Node ids are computer-major (computers in
ascending user-id order; within a computer, application nodes in program
order, then the OS node). The graph is immutable for the whole simulation.

Layers and the graph are numpy arrays only: a link list is an (E, 2) int64
array, each link once with the lower id first, rows in ascending order, and
the graph derives its node numbering and edges from a (computer, program)
participation matrix without a loop over computers or links.
"""
from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

# node states shared by the whole simulator
VULNERABLE = 0
COMPROMISED = 1
INVULNERABLE = 2


class ConfigError(ValueError):
    """Rejected input: a scenario file, the network files it names, an
    option or a sweep grid. The command line exits 2 on any subclass."""


class NetworkError(ConfigError):
    """Malformed layers, users, or id files."""


@dataclass(frozen=True)
class ImplementationPool:
    """Available diversity: ``hbar`` programs with ``x`` implementations each.

    Programs 0 .. hbar-2 are the applications (one per layer); program
    hbar-1 is the operating system.
    """

    hbar: int
    x: int

    def __post_init__(self) -> None:
        if self.hbar < 2:
            raise NetworkError("pool needs at least one application program plus the OS")
        if self.x < 1:
            raise NetworkError("each program needs at least one implementation")
        # configurations are int16 arrays of implementation indices
        if self.x > np.iinfo(np.int16).max:
            raise NetworkError(f"x={self.x} exceeds {np.iinfo(np.int16).max} implementations")

    @property
    def os_program(self) -> int:
        return self.hbar - 1


@dataclass(frozen=True, eq=False)
class Layer:
    """One application layer: undirected links over user ids.

    ``edges`` is an (E, 2) int64 array, each link once with the lower id
    first, rows ascending, self-links dropped. ``participants`` is the
    layer's sorted user ids; it may exceed the ids appearing in ``edges``, and
    a user that belongs to the layer but has no links still gets the
    application node.
    """

    edges: np.ndarray
    participants: np.ndarray

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        participants: Iterable[int] | None = None,
    ) -> "Layer":
        pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        pairs = pairs.reshape(-1, 2)
        if (pairs < 0).any():
            u, w = pairs[(pairs < 0).any(axis=1)][0]
            raise NetworkError(f"negative user id in edge ({u}, {w})")
        # self links carry no inter-computer information
        pairs = np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1)
        # rank the ids first so that the encoded pairs cannot overflow
        ids, rank = np.unique(pairs, return_inverse=True)
        rank = rank.reshape(pairs.shape)
        canon = ids[_unique_pairs(rank[:, 0], rank[:, 1], ids.size)]
        if participants is None:
            return cls(canon, ids)
        members = sorted_unique(np.asarray(participants, dtype=np.int64) if isinstance(participants, np.ndarray)
                                else np.fromiter(participants, dtype=np.int64))
        missing = ~np.isin(canon, members).all(axis=1)
        if missing.any():
            u, w = canon[missing][0]
            raise NetworkError(f"edge ({u}, {w}) references a user outside the layer")
        return cls(canon, members)


def _unique_pairs(lo: np.ndarray, hi: np.ndarray, base: int) -> np.ndarray:
    """Distinct (lo, hi) rows in ascending order; ids lie in [0, base)."""
    code = sorted_unique(lo * base + hi)
    return np.stack([code // base, code % base], axis=1)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort; newer numpy's hash-based unique is far slower on int64."""
    values = np.sort(values, axis=None)
    return values[np.concatenate(([True], values[1:] != values[:-1]))[:values.size]]


class CommGraph:
    """Program-level communication graph with precomputed index arrays.

    ``users`` defaults to the union of layer participants. Supplying extra
    users that participate in no layer is an error: such a computer would
    have no application node.

    Node attributes are stored as flat arrays indexed by node id:
    ``program`` (program index, OS == hbar-1), ``computer`` (computer
    index) and ``is_app``. ``slot_node`` is the C-contiguous
    (hbar, n_computers) table whose ``[p, c]`` is computer c's program-p
    node, or c's OS node where c lacks program p; a repeated node changes no
    per-computer "any", so per-computer reductions run over its axis 0. Its
    last row is ``os_of_computer``, each computer's OS node. Adjacency is CSR
    (``indptr``/``indices``, with ``degree``); ``sp_indptr``/``sp_indices``
    restrict it to same-program neighbors, the only ones that matter for
    defective edges. ``edges`` and its same-program rows ``sp_edges`` list
    each link once, lower id first, in ascending order.
    """

    def __init__(self, layers: Sequence[Layer], users: Iterable[int] | None = None):
        layers = tuple(layers)
        if not layers:
            raise NetworkError("need at least one layer")
        if users is None:
            users_arr = sorted_unique(np.concatenate([l.participants for l in layers]))
        else:
            users_arr = sorted_unique(np.fromiter(users, dtype=np.int64))
        if not users_arr.size:
            raise NetworkError("empty user set")
        if users_arr[0] < 0:
            raise NetworkError("negative user id")
        self.n_computers = int(users_arr.size)
        self.hbar = len(layers) + 1
        self.os_program = self.hbar - 1

        # slots[c, p]: whether computer c runs program p; every one runs the OS
        slots = np.zeros((self.n_computers, self.hbar), dtype=bool)
        slots[:, -1] = True
        for j, layer in enumerate(layers):
            pos = np.minimum(np.searchsorted(users_arr, layer.participants), users_arr.size - 1)
            stray = layer.participants[users_arr[pos] != layer.participants]
            if stray.size:
                raise NetworkError(f"layer {j} references unknown user {stray[0]}")
            slots[pos, j] = True
        appless = np.flatnonzero(~slots[:, :-1].any(axis=1))
        if appless.size:
            raise NetworkError(
                f"user {users_arr[appless[0]]} participates in no layer; "
                "every computer needs at least one application"
            )

        # computer-major node numbering: apps in program order, then the OS
        node = np.cumsum(slots.ravel(), dtype=np.int64).reshape(slots.shape) - 1
        self.n_nodes = int(node[-1, -1]) + 1
        computer, program = np.nonzero(slots)
        self.program = program.astype(np.int16)
        self.computer = computer.astype(np.int64)
        self.is_app = self.program != self.os_program
        self.slot_node = np.ascontiguousarray(np.where(slots, node, node[:, -1:]).T)
        self.os_of_computer = self.slot_node[-1]

        # intra-computer: every pair of occupied slots; inter-computer: a
        # layer-j link joins the layer-j slots, lower user (and node) first
        app_node = np.where(slots[:, :-1], node[:, :-1], -1)
        ends = []
        for i in range(self.hbar - 1):
            for k in range(i + 1, self.hbar):
                both = slots[:, i] & slots[:, k]
                ends.append(np.stack([node[both, i], node[both, k]], axis=1))
        for j, layer in enumerate(layers):
            ends.append(app_node[np.searchsorted(users_arr, layer.edges), j])
        ends = np.concatenate(ends)
        self.edges = _unique_pairs(ends[:, 0], ends[:, 1], self.n_nodes)

        self.indptr, self.indices = _csr(self.n_nodes, self.edges)
        sp = self.edges[self.program[self.edges[:, 0]] == self.program[self.edges[:, 1]]]
        self.sp_edges = sp
        self.sp_indptr, self.sp_indices = _csr(self.n_nodes, sp)
        self.degree = np.diff(self.indptr)


def _csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # both directions of every link, sorted by (source, target) as one code
    code = np.sort(np.concatenate([edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(code // n, minlength=n), out=indptr[1:])
    return indptr, code % n


build_graph = CommGraph


# graph -> {key: what the graph fixes}, for as long as the graph lives
_derived: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def derived(graph: CommGraph, key, make: Callable[[], np.ndarray | tuple]):
    """``make()``, made once per ``key`` in this process while ``graph`` lives
    and never pickled; its arrays are read-only, as every later call shares them."""
    entries = _derived.setdefault(graph, {})
    if key not in entries:
        entries[key] = _freeze(make())
    return entries[key]


def _freeze(value):
    if not isinstance(value, np.ndarray):
        return tuple(map(_freeze, value))
    value.flags.writeable = False
    return value


def program_offsets(graph: CommGraph, x: int) -> np.ndarray:
    """``program * x`` per node as intp, its row in flat (hbar * x,) tables; made once per graph."""
    return derived(graph, ("program * x", x), lambda: graph.program.astype(np.intp) * x)


def gather_neighbors(indptr: np.ndarray, indices: np.ndarray, hosts: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists for ``hosts`` without a Python loop."""
    start = indptr[hosts]
    counts = indptr[1:][hosts] - start
    # output entry ends[h] - counts[h] + j (ends: the running sum of counts), the
    # j-th of host h, is read from indptr[h] + j: its own position plus that host's offset
    pos = (start + counts - counts.cumsum()).repeat(counts)
    pos += np.arange(pos.size)
    return indices[pos]


# --- vulnerability assignment ------------------------------------------------

def vulnerable_count(q: float, x: int) -> int:
    """How many of a program's ``x`` implementations are vulnerable at quality q."""
    return int(round(q * x))


def assign_vulnerabilities(pool: ImplementationPool, q: float, rng: np.random.Generator) -> np.ndarray:
    """Which implementations are vulnerable: a (hbar, x) boolean array, row per
    program, with exactly vulnerable_count(q, x) True in every row.

    The draw is a permutation prefix, so with a shared stream a larger q
    yields a superset of a smaller q's vulnerable set.
    """
    if not 0.0 <= q <= 1.0:
        raise NetworkError(f"software quality q={q} outside [0, 1]")
    k = vulnerable_count(q, pool.x)
    vul = np.zeros((pool.hbar, pool.x), dtype=bool)
    for p in range(pool.hbar):
        vul[p, rng.permutation(pool.x)[:k]] = True
    return vul


# --- synthetic networks -------------------------------------------------------

def _preferential_attachment(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Links (target, v), an (E, 2) array, of the classic growth process:
    node v >= m links to m targets, then draws m distinct targets for node
    v+1 from a list holding one entry per link end, 2m(v-m+1) entries.

    A run of nodes draws each node's first m entries in one call, which reads
    the generator as one scalar draw per entry does. The run is redrawn up to
    its first node that repeats an entry, and that node draws on alone. Runs
    double after a clean run and halve after a repeat, so the links and the
    generator's end state are those of drawing node by node.
    """
    # repeated[u - m] is the list's block of node u: its m targets, then m
    # copies of u; targets not known yet are -1
    repeated = np.empty((n - m + 1, 2, m), dtype=np.int64)
    repeated[:, 1] = np.arange(m, n + 1)[:, None]
    repeated[0, 0] = np.arange(m)
    flat, targets = repeated.reshape(-1), repeated[:, 0]
    bounds = np.repeat(2 * m * np.arange(1, n - m + 1), m)
    v, run = m, 1
    while v < n:
        k = min(run, n - v)
        bound = bounds[(v - m) * m:(v - m + k) * m]
        state = rng.bit_generator.state if k > 1 else None
        drawn = rng.integers(0, bound).reshape(k, m)
        rows = targets[v + 1 - m:v + 1 - m + k]
        rows[:] = -1
        # a node may draw targets of an earlier node of the run: resolve in rounds
        while (rows[:, 0] < 0).any():
            new = np.sort(flat[drawn], axis=1)
            new[new[:, 0] < 0] = -1
            rows[:] = new
        bad = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
        if not bad.size:
            v, run = v + k, 2 * run
            continue
        i = int(bad[0])
        if i < k - 1:
            rng.bit_generator.state = state
            rng.integers(0, bound[:(i + 1) * m])
        chosen = set(rows[i].tolist())
        while len(chosen) < m:
            chosen.update(flat[rng.integers(0, bound[i * m:(i + 1) * m - len(chosen)])].tolist())
        rows[i] = sorted(chosen)
        v, run = v + i + 1, max(run // 2, 1)
    return repeated[:n - m].transpose(0, 2, 1).reshape(-1, 2)


def check_network_seed(seed: int) -> None:
    if seed < 0:
        raise NetworkError("network seed must be >= 0")


def generate_synthetic_network(
    n_layer1: int,
    n_layer2: int,
    overlap_fraction: float,
    attachment_degree: int,
    seed: int,
) -> tuple[Layer, Layer]:
    """Two preferential-attachment layers over a partially shared user set.

    ``overlap_fraction`` of the smaller layer's users also participate in the
    other layer. Deterministic under ``seed``.
    """
    check_network_seed(seed)
    m = int(attachment_degree)
    if m < 1:
        raise NetworkError("attachment degree must be >= 1")
    if min(n_layer1, n_layer2) < m + 1:
        raise NetworkError("layer size must exceed the attachment degree")
    if not 0.0 <= overlap_fraction <= 1.0:
        raise NetworkError("overlap fraction outside [0, 1]")
    rng = np.random.default_rng(seed)
    edges1 = _preferential_attachment(n_layer1, m, rng)
    overlap = int(round(overlap_fraction * min(n_layer1, n_layer2)))
    shared = rng.choice(n_layer1, size=overlap, replace=False)
    fresh = np.arange(n_layer1, n_layer1 + n_layer2 - overlap, dtype=np.int64)
    ids2 = rng.permutation(np.concatenate([shared, fresh]))
    edges2 = ids2[_preferential_attachment(n_layer2, m, rng)]
    layer1 = Layer.from_edges(edges1, participants=np.arange(n_layer1))
    layer2 = Layer.from_edges(edges2, participants=ids2)
    return layer1, layer2


# --- id files -------------------------------------------------------------------

_IDS = re.compile(r"(?:-?[0-9]+\s+)*-?[0-9]+")  # int() also takes 1_000, +1, non-ASCII digits
_COMMENTS = re.compile(r"^[ \t]*#.*", re.M)


def read_id_file(path: str | Path, width: int) -> np.ndarray:
    """Parse an id file into an (n, width) int64 array: each line holds
    ``width`` whitespace-separated user ids (two for an edge list, one for a
    users file), each ASCII digits for a non-negative integer below 2**63;
    blank lines and lines starting with '#' are skipped. A file of ids of at
    most 18 digits, spaces and tabs is checked and split whole; any other
    file is read line by line, which names the first bad line."""
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        where = "" if Path(path).is_absolute() else f" (resolved against the working directory {Path.cwd()})"
        raise NetworkError(f"network file not found: {path}{where}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise NetworkError(f"cannot read network file {path}: {exc}") from None
    body = _COMMENTS.sub("", text)
    row = r"[ \t]+".join([r"[0-9]{1,18}"] * width)  # 18 digits fit in int64
    if re.fullmatch(rf"(?:[ \t]*(?:{row}[ \t]*)?(?:\n|\Z))*", body):
        return np.array(body.split(), dtype=np.int64).reshape(-1, width)
    rows = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != width:
            raise NetworkError(f"{path}:{lineno}: expected {width} ids, got {line!r}")
        if not _IDS.fullmatch(line):
            raise NetworkError(f"{path}:{lineno}: non-integer id in {line!r}")
        digits = [p.lstrip("-0") or "0" for p in parts]  # int() refuses over 4300 digits
        if "-" in line and any(p[0] == "-" and d != "0" for p, d in zip(parts, digits)):
            raise NetworkError(f"{path}:{lineno}: negative user id")
        ids = [int(d) if len(d) <= 19 else 2**63 for d in digits]  # 20 digits exceed int64
        if max(ids) >= 2**63:
            raise NetworkError(f"{path}:{lineno}: user id does not fit in int64")
        rows.append(ids)
    return np.array(rows, dtype=np.int64).reshape(-1, width)


def write_id_file(path: str | Path, rows, comment: str | None = None) -> None:
    """Write ``rows`` (ids, or sequences of ids) one per line in the format
    ``read_id_file`` reads, after an optional '#' comment line."""
    np.savetxt(path, np.asarray(rows, dtype=np.int64), fmt="%d", header=comment or "")


def load_network_files(
    layer_paths: Sequence[str | Path],
    users_path: str | Path | None = None,
) -> tuple[tuple[Layer, ...], np.ndarray]:
    """Load layers from edge-list files; the users are the sorted union of
    all ids and the optional users file."""
    layers = tuple(Layer.from_edges(read_id_file(p, 2)) for p in layer_paths)
    ids = [l.participants for l in layers]
    if users_path is not None:
        ids.append(read_id_file(users_path, 1).ravel())
    return layers, sorted_unique(np.concatenate(ids))
