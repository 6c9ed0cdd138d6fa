"""build_forest writes a window's rows in one pass over its pairs. The
two-step build it replaced is kept here as the oracle: the old build_forest
loop, which filled a jump dict, an exit set and an interior set, then the
old array core's constructor, which sorted, hashed and looked those up
again into the successor array, CSR preimages, labels and depths. Both
builds must agree on the coordinates, on every row array, on every set and
dict view, on the reverse map's order, on the dump bytes and on the error
raised for malformed pairs. Vertices that are not integer points keep
themselves as an object column of coordinates.

The suite is deterministic (derandomize=True) with a bounded number of
examples. Random partial functional graphs mix cycles, EXIT targets,
targets outside the window, repeated vertices, interior lists that reach
outside the window, and dict and pair input, on int and on tuple vertices.
"""

import pickle
import re
from itertools import chain
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtforest.analysis import component_statistic_survey, in_degree_profile, nested_level_average
from cmtforest.errors import BadDimension, MalformedJump, UnknownVertex
from cmtforest.forest import (
    EXIT,
    _fmt_vertex,
    _line_labels,
    ancestral_line,
    build_forest,
    component_heights,
    components,
    descendants,
    dump_forest,
    level_set,
    load_forest,
    reverse_jump,
)
from cmtforest.graphs import torus_graph
from cmtforest.models import SpaceTimeGraph, coalescing_srw, nguyen_model

SUITE = settings(derandomize=True, max_examples=300, deadline=None, database=None)


# -- the oracle: the dict-and-set build and the array pass that followed it ---------


def oracle_build(vertices, jump_pairs, interior=None):
    vset = frozenset(vertices)
    pairs = jump_pairs.items() if isinstance(jump_pairs, dict) else jump_pairs
    jump = {}
    exits = set()
    seen = set()
    for src, dst in pairs:
        if src in seen:
            raise MalformedJump(f"duplicate jump source {src!r}")
        seen.add(src)
        if src not in vset:
            raise UnknownVertex(f"jump source {src!r} not in window")
        if dst is EXIT or dst == EXIT or dst not in vset:
            exits.add(src)
        else:
            jump[src] = dst
    inner = frozenset(jump) if interior is None else frozenset(interior) & frozenset(jump)
    return vset, jump, frozenset(exits), inner


def oracle_rows(vset, jump):
    verts = sorted(chain(jump, vset.difference(jump)))
    row = dict(zip(verts, range(len(verts))))
    n, m = len(verts), len(jump)
    src = np.fromiter(map(row.__getitem__, jump), np.int64, m)
    dst = np.fromiter(map(row.__getitem__, jump.values()), np.int64, m)
    succ = np.full(n, -1, dtype=np.int64)
    succ[src] = dst
    pre = src[np.argsort(dst, kind="stable")]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=ptr[1:])
    label, depth = _line_labels(succ)
    return {"verts": verts, "succ": succ, "pre": pre, "ptr": ptr, "label": label, "depth": depth}


def oracle_reverse(jump):
    rev = {}
    for src, dst in jump.items():
        rev.setdefault(dst, []).append(src)
    return {v: tuple(ps) for v, ps in rev.items()}


def oracle_dump(vset, jump, exits, dimension, meta):
    lines = ["dim=%d model=%s seed=%s" % (dimension, meta["model"], meta["seed"])]
    for v in sorted(vset):
        if v in jump:
            lines.append(f"{_fmt_vertex(v)} -> {_fmt_vertex(jump[v])}")
        elif v in exits:
            lines.append(f"{_fmt_vertex(v)} -> EXIT")
        else:
            lines.append(_fmt_vertex(v))
    return "\n".join(lines) + "\n"


# -- random builds ------------------------------------------------------------------


@st.composite
def builds(draw):
    """(vertices, pairs, interior): a vertex list with repeats, pairs in a
    shuffled order as a dict or a list, and an interior list or None."""
    if draw(st.booleans()):
        point, outside = st.integers(-30, 30), st.integers(31, 40)
    else:
        coord = st.integers(-3, 3)
        point, outside = st.tuples(coord, coord), st.tuples(st.just(9), coord)
    verts = draw(st.lists(point, max_size=30))
    verts += draw(st.lists(st.sampled_from(verts), max_size=5)) if verts else []
    pool = sorted(set(verts))
    stop = draw(st.integers(0, 3))
    pairs = []
    for v in draw(st.permutations(pool)):
        kind = draw(st.integers(0, 11))
        if kind < stop:
            continue
        if kind == stop:
            pairs.append((v, EXIT))
        elif kind == 10:
            pairs.append((v, draw(outside)))
        else:  # a fresh tuple, equal to the vertex but not the same object
            t = draw(st.sampled_from(pool))
            pairs.append((v, tuple(list(t)) if isinstance(t, tuple) else t))
    broken = draw(st.integers(0, 9))
    if broken == 0 and pairs:  # a repeated source
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(st.sampled_from(pairs))[0], EXIT))
    elif broken == 1:  # a source outside the window
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(outside), EXIT))
    elif draw(st.booleans()):
        pairs = dict(pairs)
    interior = None
    if draw(st.booleans()):
        interior = draw(st.lists(st.one_of(st.sampled_from(pool), outside) if pool else outside,
                                 max_size=20))
    return verts, pairs, interior


def outcome(build):
    try:
        return build(), None
    except (MalformedJump, UnknownVertex) as e:
        return None, (type(e), str(e))


@SUITE
@given(builds())
def test_rows_build_equals_dict_build(case):
    verts, pairs, interior = case
    meta = {"model": "gate", "seed": 5}
    fw, err = outcome(lambda: build_forest(verts, pairs, interior=interior, dimension=2,
                                           metadata=meta))
    want, want_err = outcome(lambda: oracle_build(verts, pairs, interior))
    assert err == want_err
    if err:
        return
    vset, jump, exits, inner = want
    jump = dict(sorted(jump.items()))  # a window keeps its jumps in row order
    rows = oracle_rows(vset, jump)
    assert fw.verts == tuple(rows["verts"])
    want = np.array(rows["verts"], dtype=np.int64)
    assert fw.coords.dtype == want.dtype
    assert np.array_equal(fw.coords, want[:, None] if want.ndim == 1 else want)
    for name in ("succ", "pre", "ptr", "label", "depth"):
        assert np.array_equal(getattr(fw, name), rows[name]), name
    assert (fw.vertices, fw.exits, fw.interior) == (vset, exits, inner)
    assert list(fw.jump.items()) == list(jump.items())
    assert list(reverse_jump(fw).items()) == list(oracle_reverse(jump).items())
    assert dump_forest(fw) == oracle_dump(vset, jump, exits, 2, meta)


def window_facts(fw):
    arrays = [getattr(fw, name).tolist()
              for name in ("src", "succ", "pre", "ptr", "label", "depth", "comp")]
    return arrays, list(fw.jump.items()), list(reverse_jump(fw).items()), dump_forest(fw)


@SUITE
@given(builds(), st.data())
def test_pair_order_does_not_change_the_window(case, data):
    # a window is fixed by its jump map: its shuffles, and its dict and list
    # forms, build the same rows, views and dump, all in row order
    verts, pairs, interior = case
    items = list(pairs.items()) if isinstance(pairs, dict) else pairs
    fw, err = outcome(lambda: build_forest(verts, items, interior=interior))
    if err:
        return
    shuffled = data.draw(st.permutations(items))
    for form in (items[::-1], shuffled, dict(shuffled), iter(shuffled)):
        assert window_facts(build_forest(verts, form, interior=interior)) == window_facts(fw)


def test_views_are_read_only():
    fw = build_forest([0, 1, 2], [(0, 1), (1, EXIT)])
    with pytest.raises(TypeError):
        fw.jump[2] = 0
    assert isinstance(fw.vertices, frozenset) and isinstance(fw.exits, frozenset)


WINDOW_ARRAYS = ("coords", "succ", "is_exit", "is_interior", "src", "pre", "ptr", "label",
                 "depth", "comp", "comp_rows", "comp_ptr")


@pytest.mark.parametrize("form", ["rows", "pairs", "object column"])
def test_window_arrays_are_read_only(form):
    # cached facts are read from these arrays: on the Nguyen window below,
    # succ[:] = -1 once left components() at 8 where the written rows give 33
    fw = nguyen_model(2, [(-5, 5), (-5, 0)], 1)
    if form == "pairs":
        fw = build_forest(fw.verts, dict(fw.jump))
    elif form == "object column":
        fw = coalescing_srw(SpaceTimeGraph(torus_graph(3, 2), (0, 3)), 1)
    for name in WINDOW_ARRAYS:
        a = getattr(fw, name)
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = a[:1]


def test_build_forest_leaves_its_inputs_writable():
    fw = nguyen_model(2, [(-5, 5), (-5, 0)], 1)
    xy, succ, inner = fw.coords.copy(), fw.succ.copy(), fw.is_interior.copy()
    built = build_forest(xy, succ, interior=inner)
    assert all(a.flags.writeable for a in (xy, succ, inner))
    succ[:] = -1
    assert len(components(built)) == len(components(fw)) == 8


def test_rows_of_names_the_first_absent_vertex():
    fw = build_forest([0, 1, 2], [(0, 1)])
    assert fw.rows_of([2, 0, 2]) == [2, 0, 2] and fw.rows_of(iter([])) == []
    with pytest.raises(UnknownVertex) as e:
        fw.rows_of(iter([1, 7, 8]))
    assert e.value.args == ("7",)


@pytest.mark.parametrize("read", [
    lambda w, v: ancestral_line(w, v, 3),
    lambda w, v: descendants(w, v, 1),
    lambda w, v: level_set(w, v, 2),
    lambda w, v: component_heights(w, v),
    lambda w, v: nested_level_average(w, lambda u: u[0], v, 3),
    lambda w, v: in_degree_profile(w, [v]),
], ids=["ancestral_line", "descendants", "level_set", "component_heights",
        "nested_level_average", "in_degree_profile"])
def test_unhashable_vertex_is_named_unknown(read):
    fw = nguyen_model(2, [(-5, 5), (-5, 0)], 1)
    assert (0, 0) in fw
    with pytest.raises(UnknownVertex) as e:
        read(fw, [0, 0])
    assert e.value.args == ("[0, 0]",)


@pytest.mark.parametrize("form", ["rows", "pairs"])
def test_unhashable_vertex_is_not_in_the_window(form):
    fw = nguyen_model(2, [(-5, 5), (-5, 0)], 1)
    if form == "pairs":
        fw = build_forest(fw.verts, dict(fw.jump))
    assert (0, 0) in fw and [0, 0] not in fw and {} not in fw


@pytest.mark.parametrize("form", ["rows", "pairs"])
def test_verts_is_read_only(form):
    # a written verts was read back: after verts.append("junk"), len(verts)
    # was 34 and len(w) 33
    fw = nguyen_model(2, [(-5, 5), (-5, 0)], 1)
    if form == "pairs":
        fw = build_forest(fw.verts, dict(fw.jump))
    with pytest.raises(AttributeError):
        fw.verts.append("junk")
    assert len(fw.verts) == len(fw) == 33 and isinstance(fw.verts, tuple)


@pytest.mark.parametrize("form", ["rows", "pairs"])
def test_row_map_is_read_only(form):
    # a written row was read back by rows_of: after row[v] = 7 it returned [7]
    fw = nguyen_model(2, [(-5, 5), (-5, 0)], 1)
    if form == "pairs":
        fw = build_forest(fw.verts, dict(fw.jump))
    v = fw.verts[3]
    with pytest.raises(TypeError):
        fw.row[v] = 7
    with pytest.raises(TypeError):
        del fw.row[v]
    assert fw.rows_of([v]) == [3] and fw.row[v] == 3 and len(fw.row) == len(fw)
    assert pickle.loads(pickle.dumps(fw)).rows_of([v]) == [3]  # a read window still pickles


def test_build_forest_reads_a_window_jump_view_as_a_mapping():
    fw = nguyen_model(2, [(-5, 5), (-5, 0)], 1)
    rebuilt = build_forest(fw.verts, fw.jump, dimension=2, metadata=fw.metadata)
    assert list(rebuilt.jump.items()) == list(fw.jump.items()) and not rebuilt.exits
    pairs = MappingProxyType({**fw.jump, **dict.fromkeys(fw.exits, EXIT)})
    rebuilt = build_forest(fw.verts, pairs, dimension=2, metadata=fw.metadata)
    assert dump_forest(rebuilt) == dump_forest(fw)


def test_object_column_window_keeps_its_vertices():
    space_time = SpaceTimeGraph(torus_graph(3, 2), (0, 3))
    fw = coalescing_srw(space_time, 1)
    assert fw.coords.dtype == object and tuple(fw.coords[:, 0].tolist()) == fw.verts
    assert fw.verts == tuple(sorted(space_time.vertices()))
    assert all(t[1] == s[1] + 1 for s, t in fw.jump.items())
    assert len(fw.jump) == 27 and not fw.exits
    assert frozenset().union(*(c.members for c in components(fw))) == fw.vertices
    assert dump_forest(fw).splitlines()[1:] == [
        f"{_fmt_vertex(v)} -> {_fmt_vertex(fw.jump[v])}" if v in fw.jump else _fmt_vertex(v)
        for v in fw.verts]
    with pytest.raises(BadDimension, match="integer points"):
        component_statistic_survey(fw, "jump-frequency-vector", 1)
    assert component_statistic_survey(fw, "leaf-fraction", 1).values


# -- named errors --------------------------------------------------------------------


def test_unorderable_vertices_raise_bad_dimension():
    with pytest.raises(BadDimension):
        build_forest([0, (1, 2)], [])


@pytest.mark.parametrize("build, error, named", [
    (lambda: build_forest([[0, 0], [0, 1]], []), BadDimension, "unhashable"),
    (lambda: build_forest([(0, 0)], [([0, 0], EXIT)]), UnknownVertex, "[0, 0]"),
    (lambda: build_forest([(0, 0), (0, 1)], [((0, 0), [0, 1])]), UnknownVertex, "[0, 1]"),
    (lambda: build_forest([(0, 0)], [((0, 0), EXIT)], [[0, 0]]), UnknownVertex, "[0, 0]"),
], ids=["vertex", "jump source", "jump target", "interior"])
def test_list_spelled_vertex_is_named(build, error, named):
    # each raised a bare TypeError: unhashable type: 'list'
    with pytest.raises(error, match=re.escape(named)):
        build()


@pytest.mark.parametrize("build, named", [
    (lambda: build_forest([0, 1], [0]), "jump pair 0 "),
    (lambda: build_forest([0, 1], [(0, 1, 2)]), "jump pair (0, 1, 2) "),
    (lambda: build_forest([0, 1], [(0, 1)], interior=5), "interior 5 "),
    (lambda: build_forest([0, 1], 5), "jump_pairs 5 "),
], ids=["not a pair", "three items", "interior", "jump pairs"])
def test_malformed_pair_form_is_named(build, named):
    # each raised a bare TypeError or ValueError
    with pytest.raises(MalformedJump, match=re.escape(named)):
        build()


@pytest.mark.parametrize("text", [
    "",
    "dim=1 model=m\n0 -> 1\n1\n",
    "dim=x model=m seed=0\n0\n",
    "dim=1 model=m seed=0 junk\n0\n",
])
def test_load_bad_header_raises_malformed_jump(text):
    with pytest.raises(MalformedJump, match="header"):
        load_forest(text)


@pytest.mark.parametrize("record", ["0 x", "0 -> x", "-> 1", "0 -> ", "0 -> 1 -> 2"])
def test_load_bad_record_raises_malformed_jump_naming_it(record):
    with pytest.raises(MalformedJump, match=re.escape(record.strip())):
        load_forest(f"dim=1 model=m seed=0\n{record}\n1\n")


def test_load_mixed_vertex_shapes_raises_bad_dimension():
    with pytest.raises(BadDimension):
        load_forest("dim=2 model=m seed=0\n0 0 -> EXIT\n1\n")
