"""One node check: recorded, hand-built and decoded nodes pass
``graph.checked_node`` once, and a graph that builds runs as its specs say.

A hand-built node is checked when it is added (``GraphBuilder``) or when its
graph is constructed (``GraphFunction``), never when the graph runs.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stageflow as sf
from stageflow.errors import CorruptGraph, KernelError, StageflowError
from stageflow.graph import VARIABLE_OPS, GraphBuilder, GraphFunction, Node, Placeholder
from stageflow.ops import kernel_table
from stageflow.serial import deserialize, serialize

F32, F64, I32 = sf.float32, sf.float64, sf.int32


def _neg_graph(declared):
    b = GraphBuilder()
    x = b.add_placeholder("x", F32, (2,))
    (y,) = b.add_node("neg", [x], {}, None, declared)
    return b.finalize("negate", [y], ["y"])


class TestDeclaredSpecs:
    def test_a_declared_dtype_the_op_does_not_give_is_corrupt(self):
        with pytest.raises(CorruptGraph, match="declares outputs"):
            _neg_graph([(F64, (2,))])
        ph = Placeholder("x", F32, (2,))
        with pytest.raises(CorruptGraph, match="declares outputs"):
            GraphFunction("negate", [ph], [Node("neg", ((0, 0),), {}, None, ((F64, (2,)),))],
                          [("y", (1, 0))])

    def test_a_declared_second_output_is_corrupt(self):
        with pytest.raises(CorruptGraph, match="declares outputs"):
            _neg_graph([(F32, (2,)), (F32, (2,))])

    def test_a_reshape_that_does_not_fit_fails_when_added(self):
        b = GraphBuilder()
        x = b.add_placeholder("x", F32, (4, 4))
        with pytest.raises(KernelError, match="cannot reshape"):
            b.add_node("reshape", [x], {"shape": (3, 2)}, None, [(F32, (3, 2))])

    def test_true_declared_specs_build_and_run(self):
        (y,) = sf.execute(_neg_graph([(F32, (2,))]), [sf.constant([1.0, 2.0])])
        assert y.numpy().tolist() == [-1.0, -2.0]


class TestHandBuiltGraphs:
    def test_nodes_get_canonical_attrs_and_inferred_specs(self):
        ph = Placeholder("x", F32, (6,))
        gf = GraphFunction("g", [ph], [Node("reshape", [(0, 0)], {"shape": [3, 2]}, None, None)],
                           [("y", (1, 0))])
        assert gf.nodes[0] == ("reshape", ((0, 0),), {"shape": (3, 2)}, None, ((F32, (3, 2)),))
        assert gf.output_specs == [(F32, (3, 2))]

    def test_a_compute_op_on_a_variable_placeholder_is_corrupt(self):
        b = GraphBuilder()
        v = b.add_placeholder("v", F32, (2,), is_variable_ref=True)
        with pytest.raises(CorruptGraph, match="variable input placeholder"):
            b.add_node("neg", [v], {}, None, None)

    def test_an_output_that_names_a_variable_is_corrupt(self):
        b = GraphBuilder()
        v = b.add_placeholder("v", F32, (2,), is_variable_ref=True)
        with pytest.raises(CorruptGraph, match="no tensor value"):
            b.finalize("var_out", [v], ["v"])

    def test_bad_attrs_and_devices_are_corrupt_graph_naming_the_node(self):
        ph = Placeholder("x", F32, (2, 2))
        for attrs, device, match in [({"bogus": 1}, None, "^node 0: matmul: unexpected"),
                                     ({}, "cpu", "^node 0: malformed device name")]:
            with pytest.raises(CorruptGraph, match=match):
                GraphFunction("g", [ph], [Node("matmul", ((0, 0), (0, 0)), attrs, device, None)],
                              [("y", (1, 0))])


class TestCalls:
    """``call_function`` nodes on ``DOUBLE``, which takes a (2, 3) float32."""

    def test_an_input_spec_the_callee_does_not_take_fails_when_added(self):
        b = GraphBuilder(LIBRARY)
        y = b.add_placeholder("y", F32, (3,))
        with pytest.raises(KernelError, match="input 'x' is float32"):
            b.add_node("call_function", [y], {"function": "double"}, None, None)

    def test_a_variable_for_a_tensor_input_is_corrupt(self):
        v = Placeholder("v", F32, (2, 3), is_variable_ref=True)
        with pytest.raises(CorruptGraph, match="passes a variable where double takes a tensor"):
            GraphFunction("g", [v], [Node("call_function", ((0, 0),), {"function": "double"},
                                          None, None)], [("o", (1, 0))], LIBRARY)

    def test_a_graph_function_attr_is_named_in_the_library_once(self):
        # Another function holds the name, so DOUBLE goes in as double_v1,
        # once for both calls, and the graph serializes.
        b = GraphBuilder({"double": _neg_graph(None)})
        x = b.add_placeholder("x", F32, (2, 3))
        (y,) = b.add_node("call_function", [x], {"function": DOUBLE}, None, None)
        (z,) = b.add_node("call_function", [y], {"function": DOUBLE}, None, None)
        gf = b.finalize("quadruple", [z], ["z"])
        assert [n.attrs for n in gf.nodes] == [{"function": "double_v1"}] * 2
        assert gf.library["double_v1"] is DOUBLE
        assert gf.structurally_equal(deserialize(serialize(gf)))
        (out,) = sf.execute(gf, [sf.constant(np.ones((2, 3), np.float32))])
        assert out.numpy().tolist() == [[4.0] * 3] * 2


def _flag_graph():
    # A loop condition over a (2, 3) float32 loop variable: its captured flag.
    b = GraphBuilder()
    b.add_placeholder("x", F32, (2, 3))
    flag = b.add_placeholder("flag", sf.boolean, ())
    return b.finalize("flag", b.add_node("identity", [flag], None, None, None), ["keep"])


def _total_graph():
    # A loop body that sums its (2, 3) float32 loop variable to a scalar.
    b = GraphBuilder()
    x = b.add_placeholder("x", F32, (2, 3))
    return b.finalize("total", b.add_node("reduce_sum", [x], None, None, None), ["s"])


def _cond_attrs(n_operands=1, n_then=0, n_else=0):
    return {"then_branch": "negate23", "else_branch": "negate23",
            "n_operands": n_operands, "n_then_captured": n_then, "n_else_captured": n_else}


def _while_attrs(n_cond=1, n_body=0):
    return {"loop_cond": "flag", "loop_body": "negate23", "n_vars": 1,
            "n_cond_captured": n_cond, "n_body_captured": n_body}


class TestControlFlowNodes:
    """``cond`` and ``while_loop`` nodes are matched against the graphs they
    run when they are added, as calls are: each graph gets the operands or
    loop variables plus its own captures."""

    def _builder(self):
        b = GraphBuilder({"negate23": NEGATE23, "flag": _flag_graph(), "total": _total_graph()})
        refs = {
            "pred": b.add_placeholder("pred", sf.boolean, ()),
            "y": b.add_placeholder("y", F32, (3,)),
            "x": b.add_placeholder("x", F32, (2, 3)),
            "v": b.add_placeholder("v", F32, (2, 3), is_variable_ref=True),
            "vpred": b.add_placeholder("vpred", sf.boolean, (), is_variable_ref=True),
        }
        return b, refs

    def test_a_cond_operand_its_branch_does_not_take_fails_when_added(self):
        b, r = self._builder()
        with pytest.raises(KernelError, match="cond: negate23 input 'x' is float32"):
            b.add_node("cond", [r["pred"], r["y"]], _cond_attrs(), None, None)
        assert b.nodes == []

    def test_a_cond_capture_count_its_branch_does_not_take_fails(self):
        b, r = self._builder()
        with pytest.raises(KernelError, match="negate23 takes 1 inputs, got 2"):
            b.add_node("cond", [r["pred"], r["x"], r["x"]], _cond_attrs(n_then=1), None, None)

    def test_counts_that_do_not_fit_the_inputs_fail(self):
        b, r = self._builder()
        with pytest.raises(KernelError, match="do not fit"):
            b.add_node("cond", [r["pred"], r["x"]], _cond_attrs(n_operands=2), None, None)
        with pytest.raises(KernelError, match="do not fit"):
            b.add_node("cond", [r["pred"], r["x"]], _cond_attrs(n_then=-1, n_else=1), None, None)
        with pytest.raises(KernelError, match="do not fit"):
            b.add_node("while_loop", [r["x"]], _while_attrs(), None, None)

    def test_a_loop_variable_its_graphs_do_not_take_fails_when_added(self):
        b, r = self._builder()
        with pytest.raises(KernelError, match="while_loop: flag input 'x' is float32"):
            b.add_node("while_loop", [r["y"], r["pred"]], _while_attrs(), None, None)

    def test_a_loop_body_that_changes_a_loop_variable_fails_when_added(self):
        b, r = self._builder()
        attrs = dict(_while_attrs(), loop_body="total")
        with pytest.raises(KernelError, match="while_loop: total must return one value per"):
            b.add_node("while_loop", [r["x"], r["pred"]], attrs, None, None)
        assert b.nodes == []

    def test_a_variable_for_a_tensor_operand_is_corrupt(self):
        b, r = self._builder()
        with pytest.raises(CorruptGraph, match=r"\(cond\) passes a variable where negate23"):
            b.add_node("cond", [r["pred"], r["v"]], _cond_attrs(), None, None)
        with pytest.raises(CorruptGraph, match=r"\(while_loop\) passes a variable"):
            b.add_node("while_loop", [r["v"], r["pred"]], _while_attrs(), None, None)

    def test_a_variable_predicate_is_corrupt(self):
        b, r = self._builder()
        with pytest.raises(CorruptGraph, match="variable as its predicate"):
            b.add_node("cond", [r["vpred"], r["x"]], _cond_attrs(), None, None)

    def test_matching_nodes_build_and_run(self):
        b, r = self._builder()
        (c,) = b.add_node("cond", [r["pred"], r["x"]], _cond_attrs(), None, None)
        gf = b.finalize("branch", [c], ["c"])
        x = sf.constant(np.ones((2, 3), np.float32))
        pred = sf.constant(True)
        v = sf.Variable(np.ones((2, 3), np.float32))
        (out,) = sf.execute(gf, [pred, sf.constant(np.ones(3, np.float32)), x, v,
                                 sf.Variable(True)])
        assert out.numpy().tolist() == [[-1.0] * 3] * 2


# ---------------------------------------------------------------------------
# Property: a node table builds to a graph that runs as its specs say, or
# raises a StageflowError, through GraphBuilder and GraphFunction alike.
# ---------------------------------------------------------------------------

# x, y and i are tensors; v is a variable.
PLACEHOLDERS = [Placeholder("x", F32, (2, 3)), Placeholder("y", F32, (3,)),
                Placeholder("i", I32, (2, 3)), Placeholder("v", F32, (2, 3), True)]
N_IN = len(PLACEHOLDERS)
# The one function call nodes may name: x + x on a (2, 3) float32.
_b = GraphBuilder()
_x = _b.add_placeholder("x", F32, (2, 3))
DOUBLE = _b.finalize("double", _b.add_node("add", [_x, _x], None, None, None), ["y"])
LIBRARY = {"double": DOUBLE}
_b = GraphBuilder()
_x = _b.add_placeholder("x", F32, (2, 3))
NEGATE23 = _b.finalize("negate23", _b.add_node("neg", [_x], None, None, None), ["y"])
# Control flow and host callbacks are drawn by the staging and escape tests.
HIGHER_ORDER = ("cond", "while_loop", "host_call")
CPU = "/job:local/task:0/device:CPU:0"

_shapes = st.sampled_from([(6,), (2, 3), (3, 2), (1, 3), (2, 1, 3), ()])
RIGHT = {
    "shape": _shapes | _shapes.map(list),
    "axes": st.sampled_from([None, (0,), (1,), (-1,), (0, 1), [1]]),
    "bool": st.sampled_from([True, False, np.bool_(True)]),
    "int": st.integers(0, 3),
    "float": st.sampled_from([0.0, 0.25, 0.5]),
    "dtype": st.sampled_from([F32, F64, I32]),
    "tensor": st.sampled_from([np.float32, np.float64, np.int32]).map(
        lambda dt: sf.constant(np.arange(6, dtype=dt).reshape(2, 3))),
    "function": st.sampled_from(["double", DOUBLE]),
}
WRONG = st.sampled_from(["a", None, -1, 1.5, (-1,), [[1]], (2, 3.5), object()])


def _often(right, wrong):
    """Mostly ``right``, now and then ``wrong``."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda r: right if r else wrong)


def _refs(n_values: int):
    """A ref to one of ``n_values`` earlier values, or now and then a ref to
    none: a negative or later value id, or a placeholder's second output."""
    return _often(st.tuples(st.integers(0, n_values - 1), st.just(0)),
                  st.sampled_from([(-1, 0), (n_values, 0), (0, 1)]))


@st.composite
def _node(draw, k: int):
    """Node ``k``: an op from the registry, its refs, attrs and device, and
    how to declare its specs ("none", "true" or "perturbed")."""
    ops = {d.name: d for d in kernel_table() if d.name not in HIGHER_ORDER}
    op_def = ops[draw(st.sampled_from(sorted(ops)))]
    arity = 1 if op_def.input_arity is None else op_def.input_arity  # a call: DOUBLE's
    arity += draw(_often(st.just(0), st.sampled_from([-1, 1])))
    refs = [draw(_refs(N_IN + k)) for _ in range(max(arity, 0))]
    if refs and op_def.name in VARIABLE_OPS:
        refs[0] = draw(_often(st.just((N_IN - 1, 0)), _refs(N_IN + k)))
    attrs = {}
    for name, (kind, required) in op_def.attr_schema.items():
        if required or draw(st.booleans()):
            attrs[name] = draw(_often(RIGHT[kind], WRONG))
    if draw(st.integers(0, 19)) == 0:
        attrs[draw(st.sampled_from(["bogus", "shape", "axes"]))] = 1
    device = draw(_often(st.just(None), st.sampled_from([CPU, "cpu"])))
    mode = draw(st.sampled_from(["true", "none"] * 3 + ["perturbed"]))
    return op_def.name, tuple(refs), attrs, device, mode


@st.composite
def node_tables(draw):
    """Up to four nodes and one or two outputs. Most nodes are redrawn, up
    to five times, until a build that declares no specs takes them, so most
    tables build; a node nothing takes ends the table."""
    shadow = _builder()
    nodes = []
    for k in range(draw(st.integers(1, 4))):
        for _ in range(draw(_often(st.just(5), st.just(1)))):
            node = draw(_node(k))
            try:
                _add(shadow, node[:4] + (None,))
                break
            except StageflowError:
                pass
        nodes.append(node)
        if len(shadow.nodes) < len(nodes):
            break
    outputs = draw(st.lists(_refs(N_IN + len(nodes)), min_size=1, max_size=2))
    return nodes, outputs


def _perturbed(specs):
    if not specs:
        return [(F32, ())]
    (dt, shape), *rest = specs
    return [(F64 if dt is F32 else F32, shape)] + rest


def _builder_ref(ref):
    vid, j = ref
    if vid < N_IN:
        return ("p", vid) if j == 0 else ("p", vid, j)
    return ("n", vid - N_IN, j)


def _builder():
    b = GraphBuilder(LIBRARY)
    for ph in PLACEHOLDERS:
        b.add_placeholder(*ph)
    return b


def _add(b, node):
    op, refs, attrs, device, declared = node
    b.add_node(op, [_builder_ref(r) for r in refs], attrs, device, declared)


def _with_builder(nodes, outputs):
    b = _builder()
    for node in nodes:
        _add(b, node)
    return b.finalize("built", [_builder_ref(r) for r in outputs],
                      [f"o{i}" for i in range(len(outputs))])


def _with_graph_function(nodes, outputs):
    return GraphFunction("hand", PLACEHOLDERS, [Node(*n) for n in nodes],
                         [(f"o{i}", r) for i, r in enumerate(outputs)], LIBRARY)


def _outcome(build, nodes, outputs):
    try:
        return build(nodes, outputs)
    except StageflowError as e:
        return e


def _check_runs_as_specified(gf):
    rng = np.random.default_rng(0)
    args = [sf.constant(rng.uniform(-1, 1, ph.shape).astype(ph.dtype.np_dtype))
            for ph in PLACEHOLDERS[:3]]
    var = sf.Variable(rng.uniform(-1, 1, (2, 3)).astype(np.float32))
    outs = sf.execute(gf, args, [var])
    assert [(t.dtype, t.shape) for t in outs] == gf.output_specs
    assert all(isinstance(t, sf.Tensor) for t in outs)
    assert gf.structurally_equal(deserialize(serialize(gf)))


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(node_tables())
def test_a_node_table_builds_and_runs_as_specified_or_raises(table):
    drawn, outputs = table
    # The specs each node's op infers, from a build that declares none.
    b = _builder()
    for node in drawn:
        try:
            _add(b, node[:4] + (None,))
        except StageflowError:
            break
    inferred = [list(Node(*n).out_specs) for n in b.nodes]
    nodes, perturbed = [], False
    for k, (op, refs, attrs, device, mode) in enumerate(drawn):
        true = inferred[k] if k < len(inferred) else [(F32, (2, 3))]
        declared = {"none": None, "true": true, "perturbed": _perturbed(true)}[mode]
        perturbed |= mode == "perturbed" and k < len(inferred)
        nodes.append((op, refs, attrs, device, declared))

    built = _outcome(_with_builder, nodes, outputs)
    hand = _outcome(_with_graph_function, nodes, outputs)
    assert isinstance(built, StageflowError) == isinstance(hand, StageflowError)
    if isinstance(built, StageflowError):
        return
    assert not perturbed, "a declared spec the op does not infer was accepted"
    assert built.structurally_equal(hand)
    _check_runs_as_specified(built)
