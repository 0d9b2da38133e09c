"""Twin classes as robber columns (Kemeny and Snell, Finite Markov Chains,
1960, 6.3: lumpability).

Swapping two twins (see `graphs.twin_classes`) is an automorphism. On the
solver's quotient by the twin swaps (see `solver._StateSpace`) the free
members of a class, those no cop occupies, share their value, because a
swap that fixes the row exchanges them; occupied members are worth 0. So a
table keeps one robber column per class, holding its free members' value,
and a row is the least configuration of its orbit. `TwinColumns` holds what
such a table needs: the least configuration twin swaps reach, the members
each row occupies, the walk between classes and the correction for the
occupied members it counts, and the states where a cop steps onto the
robber, which a class column cannot record.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graphs import Graph, _padded_flat, twin_classes, twin_quotient


class TwinColumns:
    """The twin classes of g, given as a `graphs.twin_classes` label with at
    least one class of two or more vertices, and the robber's graph on them
    (`robber`, the twin quotient)."""

    def __init__(self, g: Graph, label: np.ndarray):
        self.g, self.label = g, label
        self.robber = twin_quotient(g, label)
        self.members = np.argsort(label, kind="stable")  # by class, then vertex
        self.size = np.bincount(label)
        self.first = np.cumsum(self.size) - self.size  # each class's start in members
        self.closed = np.zeros(len(self.size), dtype=bool)  # classes with inner edges
        for cls in np.flatnonzero(self.size > 1).tolist():
            u, v = self.members[self.first[cls]:][:2].tolist()
            self.closed[cls] = v in g.adjacency[u]

    @classmethod
    def of(cls, g: Graph) -> TwinColumns | None:
        """The twin classes of g, or None if g has no twins."""
        label = twin_classes(g)
        return None if label.max() == g.n - 1 else cls(g, label)

    def columns(self, group: np.ndarray) -> np.ndarray:
        """How each row of `group`, vertex permutations, permutes the classes."""
        return self.label[group[:, self.members[self.first]]]

    def canonical(self, cfgs: np.ndarray) -> np.ndarray:
        """Each sorted k-tuple along the last axis of cfgs with the cops of
        every class moved onto the class's first members, the most stacked
        vertex on the first: the least tuple that twin swaps reach, since
        moving cops onto a lower vertex lowers a sorted tuple."""
        label, k = self.label, cfgs.shape[-1]
        if k == 1:
            return self.members[self.first[label[cfgs]]]
        stacked = (cfgs[..., :, None] == cfgs[..., None, :]).sum(axis=-1)
        cls = label[cfgs]
        key = (cls * (k + 1) + k - stacked) * len(label) + cfgs
        order = np.argsort(key, axis=-1, kind="stable")
        v = np.take_along_axis(cfgs, order, axis=-1)
        cls = np.take_along_axis(cls, order, axis=-1)
        fresh = np.ones(v.shape, dtype=bool)  # a vertex's first entry
        fresh[..., 1:] = v[..., 1:] != v[..., :-1]
        head = np.ones(v.shape, dtype=bool)  # a class's first entry
        head[..., 1:] = cls[..., 1:] != cls[..., :-1]
        seen = np.cumsum(fresh, axis=-1)
        within = seen - np.maximum.accumulate(np.where(head, seen, 0), axis=-1)
        return np.sort(self.members[self.first[cls] + within], axis=-1, kind="stable")

    def least_configs(self, k: int) -> list:
        """The k-cop configurations that twin swaps do not lower, ascending."""
        cfgs = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(len(self.label)), k)), dtype=np.int64)
        cfgs = cfgs.reshape(-1, k)
        return list(map(tuple, cfgs[(self.canonical(cfgs) == cfgs).all(axis=1)].tolist()))

    def occupancy(self, cfgs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per sorted configuration row of cfgs and class: whether the row
        occupies every member, and how many members it leaves free."""
        distinct = np.ones(cfgs.shape, dtype=bool)
        distinct[:, 1:] = cfgs[:, 1:] != cfgs[:, :-1]
        taken = np.zeros((len(cfgs), len(self.size)), dtype=np.int64)
        rows = np.broadcast_to(np.arange(len(cfgs))[:, None], cfgs.shape)
        np.add.at(taken, (rows[distinct], self.label[cfgs[distinct]]), 1)
        return taken == self.size, (self.size - taken).astype(float)

    def walk(self) -> np.ndarray:
        """The robber's walk between classes: walk[K, L] is the share of
        N(y) in class L for y in class K, which is equal over twins."""
        table, deg = self.g._neighbor_table(closed=False)
        reps = self.members[self.first]
        step = np.arange(table.shape[1]) < deg[reps][:, None]  # no pads
        rows = np.broadcast_to(np.arange(len(reps))[:, None], step.shape)[step]
        walk = np.zeros((len(reps), len(reps)))
        np.add.at(walk, (rows, self.label[table[reps]][step]), 1.0)
        return walk / deg[reps][:, None]

    def smear_plan(self, walk: np.ndarray, cfgs: np.ndarray, occupied: np.ndarray):
        """What `smear` reads: the walk as padded (width x columns) class
        and weight tables over its nonzeros; and per cop slot i, the flat
        indices of the states of the rows cfgs (occupied: their `occupied`
        mask) whose robber neighbours the row's i-th cop, the flat index of
        that cop's class column, and the weight 1 / deg of the robber's
        vertex. Only a cop in
        a class that keeps free members counts, each vertex once, and not
        for the robber on a twin of the cop: every state one cop step before
        such a state is capturable, and reads no smear."""
        columns = len(walk)
        rows, cols = np.nonzero(walk)
        count = np.bincount(rows, minlength=columns)
        cols = _padded_flat(cols, count)
        weight = walk[np.arange(columns)[:, None], cols]
        weight[np.arange(cols.shape[1]) >= count[:, None]] = 0.0  # pads add nothing
        gather = cols.T.copy(), weight.T.copy()  # contiguous rows read faster
        table, size = self.robber._neighbor_table(closed=False)
        inv_deg = 1.0 / self.g._neighbor_table(closed=False)[1][self.members[self.first]]
        corrections = []
        for i in range(cfgs.shape[1]):
            cop = self.label[cfgs[:, i]]
            keep = ~occupied[np.arange(len(cfgs)), cop] & (self.size[cop] > 1)
            if i:
                keep &= cfgs[:, i] != cfgs[:, i - 1]
            row, cop = np.flatnonzero(keep), cop[keep]
            near = np.arange(table.shape[1]) < size[cop][:, None]  # no pads
            dst = table[cop][near]
            row = np.broadcast_to(row[:, None], near.shape)[near]
            src = np.broadcast_to(cop[:, None], near.shape)[near]
            corrections.append((row * columns + dst, row * columns + src, inv_deg[dst]))
        return gather, corrections

    def smear(self, plan, C: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """out = the smear of the class table C by the walk's `smear_plan`,
        before the occupied columns are zeroed: C times the walk's
        transpose, a gather-add over its nonzeros through `scratch`, a table
        like out, which counts every member of a class at the class's free
        value; minus the members a cop occupies, a rank-k correction."""
        (cols, weight), corrections = plan
        # mode="clip": with the default "raise", take fills `out` through a buffer
        np.take(C, cols[0], axis=1, out=out, mode="clip")
        out *= weight[0]
        for idx, w in zip(cols[1:], weight[1:]):
            np.take(C, idx, axis=1, out=scratch, mode="clip")
            scratch *= w
            out += scratch
        flat, values = out.reshape(-1), C.reshape(-1)
        for dst, src, weight in corrections:  # distinct dst within a slot
            flat[dst] -= values[src] * weight

    def capturable(self, cfgs: np.ndarray, occupied: np.ndarray) -> np.ndarray:
        """Flat indices of the free states of the rows cfgs (occupied: their
        `occupied` mask) where a cop can step onto the robber; their value
        is 1."""
        table, _ = self.robber._neighbor_table(closed=False)
        near = np.zeros(occupied.shape, dtype=bool)
        rows = np.arange(len(cfgs))
        for cls in self.label[cfgs].T:
            near[rows[:, None], table[cls]] = True  # pads repeat an entry
            near[rows, cls] |= self.closed[cls]
        return np.flatnonzero(near & ~occupied)
