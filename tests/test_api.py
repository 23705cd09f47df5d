"""The public surface: `hbreset.__all__`, and the library names that the
benchmark under bench/ reads (its tracer patches them by name, and its
checks rebuild certificates with them)."""

import ast
import importlib
import os

import hbreset
import hbreset.lmi
from hbreset.lmi import POL, build_theorem2, dt_problem, dt_system

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
ROOT = os.path.dirname(BENCH)

# the top-level public defs of src/hbreset that only the tests call
TEST_ONLY = {"energy", "finite_diff_check", "golden_min", "in_flow_set", "in_jump_set",
             "problem_from_json"}


def _bench_tree(name):
    with open(os.path.join(BENCH, name)) as fh:
        return ast.parse(fh.read())


def test_public_api_is_small_and_importable():
    assert len(hbreset.__all__) <= 34
    assert len(set(hbreset.__all__)) == len(hbreset.__all__)
    namespace = {}
    exec("from hbreset import *", namespace)
    assert set(hbreset.__all__) <= set(namespace)


def test_bench_tracer_patches_resolve():
    # Tracer.install reads vars(owner)[attr] for each PATCHES entry
    # (module[:class], attribute, ...); a missing name is a KeyError there
    patches = next(node.value for node in _bench_tree("tracing.py").body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "PATCHES" for t in node.targets))
    targets = [tuple(ast.literal_eval(entry.elts[i]) for i in (0, 1))
               for entry in patches.elts]
    assert len(targets) >= 10
    for target, attr in targets:
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert attr in vars(owner), f"{target}.{attr}"


def test_bench_checks_names_exist():
    tree = _bench_tree("checks.py")
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("hbreset") for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # the attributes the certificate re-check reads on the rebuilt problem
    # (`problem`) and on its blocks (`blk`)
    problem = dt_problem(build_theorem2(dt_system(0.1, 0.5, 0.0, POL), 1.0, 10.0, 0.9))
    owners = {"problem": problem, "blk": problem.nsd_blocks[0]}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in owners}
    assert {attr for owner, attr in read if owner == "problem"} >= {"margin", "nonneg"}
    for owner, attr in read:
        assert hasattr(owners[owner], attr), f"{owner}.{attr}"
    # the multipliers that the re-check reads off a certificate, m["..."],
    # in the order it lays them into v: the dt table's, in v order
    recheck = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "recheck_certificate")
    subscripts = sorted((node.lineno, node.col_offset, node.slice.value)
                        for node in ast.walk(recheck) if isinstance(node, ast.Subscript)
                        and isinstance(node.value, ast.Name) and node.value.id == "m")
    multipliers = hbreset.lmi._DT.v[len(hbreset.lmi._P_BASIS):]
    assert [name for *_, name in subscripts] == list(multipliers)


def _trees(directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                yield ast.parse(fh.read())


def _names_read(tree, skip=None, strings=False):
    # names loaded or imported, outside the node `skip`; with strings,
    # also every string constant (the tracer names its targets in strings)
    read, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return read


def test_test_only_public_names_are_the_pinned_set():
    # a public top-level def that src/ reads nowhere but in its own body,
    # that bench/ and demos/ do not name and that is not in __all__ has
    # only the tests as callers; adding one is a decision, made here
    src = list(_trees(os.path.join(ROOT, "src", "hbreset")))
    outside = set().union(*(_names_read(tree, strings=True) for directory in ("bench", "demos")
                            for tree in _trees(os.path.join(ROOT, directory))))
    found = {node.name for tree in src for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_")
             and not any(node.name in _names_read(other, skip=node) for other in src)
             and node.name not in outside and node.name not in hbreset.__all__}
    assert found == TEST_ONLY
