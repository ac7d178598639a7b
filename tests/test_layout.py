"""Module layout: imports sit at the top of each module, the graph layer
reaches the matrix codec without going through commute, the CRT, rational
reconstruction, orbit and twin-class helpers live in matrix alone, the
sampled censuses rank in batches and share one commuter kernel with the
restricted search, every cap is defined in matrix, graph has
one neighbor kernel, extension fields have one digit codec and one generator
walk, one function picks the numpy arithmetic of each finite field and
looks up its q x q tables through one flat take, the batched kernels
share one chunk rule, one raw decoder and one table per field, single
matrices over every finite field but GF(2) eliminate in one numpy loop, the
powers of a single matrix come from one memoized stack (the finite-field
commutator grid forms its numpy powers on purpose: reading them off the
stack measured slower on the ladder-gf workload), one joint-commutant
function alone takes nullspaces of lift rows and forms none for a rational
nonderogatory member, one memoized commutator grid serves a finite-field pair's
commutant and certificate scan, entries turn raw by one rule and polynomial evaluation
is one product in that stack, `field._ops_for` alone builds the scalar kit
of each field, with one zero-inverse check, the CLI's handlers return only
their answer to `main`, which alone echoes the config, BFS sweeps yield their
levels to `bfs_report` and `diameter` alone, the worked-example templates of
`verify` go through one evaluator of signed entry sums, and every attribute the benchmark's tracer patches exists, and every public
name is used by the library or the benchmark."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import commdist

SRC = Path(commdist.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def _imported_modules(node) -> list[str]:
    """Package-relative names of the modules an import statement pulls in."""
    if isinstance(node, ast.Import):
        return [alias.name.removeprefix("commdist.") for alias in node.names]
    if node.level == 0:
        return [(node.module or "").removeprefix("commdist.")]
    if node.module:
        return [node.module]
    return [alias.name for alias in node.names]  # from . import x


def test_no_function_local_imports():
    assert {"commute.py", "graph.py", "matrix.py"} <= {p.name for p in MODULES}
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                offenders += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert offenders == []


def test_graph_does_not_import_commute():
    tree = ast.parse((SRC / "graph.py").read_text())
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported_modules(node)
    ]
    assert "matrix" in imported
    assert "commute" not in imported


def _definers(*names) -> set[tuple[str, str]]:
    return {
        (path.name, node.name)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in names
    }


def _function(path, name):
    return next(
        fn for fn in ast.parse(path.read_text()).body if isinstance(fn, ast.FunctionDef) and fn.name == name
    )


def test_one_copy_of_the_lifting_helpers_and_no_bareiss_loop():
    assert _definers("_crt", "_rational_reconstruct") == {
        ("matrix.py", "_crt"), ("matrix.py", "_rational_reconstruct")
    }
    assert "// prev" not in (SRC / "matrix.py").read_text()


def test_one_copy_of_the_orbit_helpers():
    assert _definers("_hook", "_roots", "_orbits") == {
        ("matrix.py", "_hook"), ("matrix.py", "_roots"), ("matrix.py", "_orbits")
    }


def _called_in(tree) -> set[str]:
    return {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


def _called(path) -> set[str]:
    return _called_in(ast.parse(path.read_text()))


KERNEL_MODULES = [SRC / name for name in ("matrix.py", "commute.py", "graph.py", "census.py")]


def _top_level_users(*paths, name) -> set[tuple[str, str]]:
    """(module, top-level function) pairs whose body mentions `name`, its own definition aside."""
    return {
        (path.name, fn.name)
        for path in paths
        for fn in ast.parse(path.read_text()).body
        if isinstance(fn, ast.FunctionDef) and fn.name != name
        and any(isinstance(node, ast.Name) and node.id == name for node in ast.walk(fn))
    }


def test_extension_arithmetic_has_one_codec_and_one_generator_walk():
    # digits/code serve add, sub and neg; exp/log come from walking powers
    retired = ("_pow_poly", "_build_log_tables", "_neg_code", "_add_slow")
    assert _definers(*retired) == set()
    assert all(name not in path.read_text() for path in MODULES for name in retired)


def test_one_twin_normalization():
    # one code per twin class {aA + bI}, from the projective normal form, for
    # the exhaustive dist-le-2 count
    assert _definers("_twin_reps", "_projective_reps") == {
        ("matrix.py", "_twin_reps"), ("matrix.py", "_projective_reps")
    }
    assert "_twin_reps" in _called(SRC / "census.py")
    # `components` is in closed form: graph builds no forest over the space
    assert all(name not in (SRC / "graph.py").read_text() for name in ("_hook", "_roots", "_twin_reps"))


def test_census_ranks_no_pair_alone():
    called = _called(SRC / "census.py")
    assert "_stack_ranks" in called
    assert called & {"dist_le_2", "decode_matrix", "rank_raw"} == set()


def test_sampled_censuses_and_the_joint_test_share_one_commuter_kernel():
    # the mask consumers decide from n - 1 commutators through `_shares_commuter`;
    # none of them compares lift ranks with n^2 - 2 itself
    assert _definers("_shares_commuter") == {("matrix.py", "_shares_commuter")}
    for path, name in [("census.py", "count_dist_le_2"), ("census.py", "zi_pair_census"),
                       ("graph.py", "restricted_distance_le_3")]:
        assert "_shares_commuter" in _called_in(_function(SRC / path, name)), name
    for path in (SRC / "census.py", SRC / "graph.py"):
        compares = [ast.unparse(node) for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Compare)]
        assert [c for c in compares if "_stack_ranks" in c and "n * n - 2" in c] == [], path.name


def test_batched_kernels_look_up_pairs_through_one_flat_take():
    # table[x, y] on a q x q table is a 2-D fancy index; `_row_ops` takes from
    # the flat table through `_lookup` instead, and it alone reads the tables
    # or calls `_lookup`, so every kernel gets its lookups from `_row_ops`
    assert _definers("_lookup") == {("matrix.py", "_lookup")}
    assert _top_level_users(*KERNEL_MODULES, name="_lookup") == {("matrix.py", "_row_ops")}
    readers = _top_level_users(*KERNEL_MODULES, name="_np_tables")  # `_orbits` runs at q <= 64 only
    assert ("matrix.py", "_row_ops") in readers <= {("matrix.py", "_row_ops"), ("matrix.py", "_orbits")}
    row_ops = _function(SRC / "matrix.py", "_row_ops")
    tables = {
        name.id
        for node in ast.walk(row_ops)
        if isinstance(node, ast.Assign) and "_np_tables" in ast.unparse(node.value)
        for name in ast.walk(node.targets[0])
        if isinstance(name, ast.Name)
    }
    pair_lookups = [
        ast.unparse(node)
        for node in ast.walk(row_ops)
        if isinstance(node, ast.Subscript)
        and getattr(node.value, "id", None) in tables
        and isinstance(node.slice, ast.Tuple)
    ]
    assert tables == {"add", "neg", "mul", "inv", "neg_mul"} and pair_lookups == []


def test_each_batched_kernel_decision_has_one_home():
    # one chunk rule, one raw decoder and one uint8 tabulation per field
    assert _definers("_blocks", "_code_stack", "_np_tables") == {
        ("matrix.py", "_blocks"), ("matrix.py", "_code_stack"), ("field.py", "_np_tables")
    }
    assert {path.name for path in MODULES if "_BATCH_CELLS" in path.read_text()} == {"matrix.py"}
    retired = ("_TABLE_MAX", "add_table", "mul_table", "inv_table")
    assert [name for path in MODULES for name in retired if name in path.read_text()] == []
    # the exhaustive counts read ranks, not centralizer bases, and no caller
    # asks the centralizer kernel for n = 1
    assert "_centralizer_chunks" not in _called(SRC / "census.py")
    assert "n == 1" not in ast.unparse(_function(SRC / "matrix.py", "_centralizer_chunks"))


def test_one_numpy_elimination_loop_for_prime_and_extension_fields():
    # GF(2) bit rows, the numpy loop, and the multimodular QQ lift on that loop
    assert _definers("_rref_generic", "_rref_prime") == set()
    assert all("_rref_generic" not in p.read_text() and "_rref_prime" not in p.read_text() for p in MODULES)
    matrix_py = SRC / "matrix.py"
    backends = {
        node.func.id
        for node in ast.walk(_function(matrix_py, "rref_raw"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", "").startswith("_rref")
    }
    assert backends == {"_rref_gf2", "_rref_rationals", "_rref_np"}
    assert "_rref_np" in _called_in(_function(matrix_py, "_rref_rationals"))
    assert "kind" not in ast.unparse(_function(matrix_py, "_rref_np"))
    # one arithmetic per finite field, chosen in `_row_ops` alone: the loop and
    # the batched kernels take it from there, and no other function of the
    # kernel modules tests a field against the 256 elements of the uint8 tables
    assert _definers("_row_ops") == {("matrix.py", "_row_ops")}
    kernels = ("_rref_np", "_lifts", "_gauss_jordan", "_ff_matmul")
    assert all("_row_ops" in _called_in(_function(matrix_py, name)) for name in kernels)
    assert {
        (path.name, fn.name)
        for path in KERNEL_MODULES
        for fn in ast.parse(path.read_text()).body
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        and any(isinstance(x, ast.Constant) and x.value == 256 for x in [node.left, *node.comparators])
    } == {("matrix.py", "_row_ops")}
    # and no kernel builds object arrays: `object` is only ever a type annotation
    # or the receiver of object.__setattr__ and object.__new__
    for path in KERNEL_MODULES:
        tree = ast.parse(path.read_text())
        exempt = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)} | {
            id(name)
            for node in ast.walk(tree)
            for note in [getattr(node, "annotation", None), getattr(node, "returns", None)]
            if note is not None
            for name in ast.walk(note)
        }
        assert "frompyfunc" not in path.read_text()
        assert [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "object" and id(node) not in exempt
        ] == [], path.name


def test_one_power_stack_per_matrix():
    # the per-consumer power routines are gone; derogatory, min_poly, the
    # joint commutant and certificate evaluation read the memoized
    # stack and multiply no powers of their own (the commutant forms
    # [D^k, E] from the stack's powers, and pc_verify multiplies p(A) by q(B))
    assert _definers("_int_powers", "_powers") == {("field.py", "_powers")}  # the field's generator walk
    matrix_py, commute_py = SRC / "matrix.py", SRC / "commute.py"
    assert _top_level_users(matrix_py, commute_py, name="_power_stack") == {
        ("matrix.py", "min_poly"), ("commute.py", "derogatory"),
        ("matrix.py", "_commutant"), ("commute.py", "poly_eval_no_const"),
    }
    assert _top_level_users(*KERNEL_MODULES, name="_int_products") == {("matrix.py", "_commutant")}
    readers = [(matrix_py, "min_poly")] + [
        (commute_py, name)
        for name in ("derogatory", "poly_eval_no_const", "_certificate", "_minpoly_certificate", "_rational_pc")
    ]
    assert [
        name for path, name in readers
        for node in ast.walk(_function(path, name))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("rank_raw", "rank")
    ] == []
    # the one exception: `_comm_grid` multiplies a finite-field pair's numpy powers
    # itself, as taking them from `_power_stack` slowed the ladder-gf workload
    grid = _function(matrix_py, "_comm_grid")
    assert "_ff_matmul" in _called_in(grid) and any(isinstance(node, ast.While) for node in ast.walk(grid))


def test_one_scalar_kit_builder_with_one_zero_inverse_check():
    # `_ops_for` builds every field's record of scalar operations itself, the
    # benchmark's tracer wraps its lru_cache, and one helper refuses 1/0
    assert _definers("_rational_ops", "_prime_ops", "_extension_ops") == set()
    field_py = SRC / "field.py"
    tree = ast.parse(field_py.read_text())
    assert not [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Ops"]
    ext = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_ExtTables")
    assert "inv" not in {fn.name for fn in ext.body if isinstance(fn, ast.FunctionDef)}
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise) and "inverse of zero" in ast.unparse(node)]
    assert len(raises) == 1
    (memo,) = _function(field_py, "_ops_for").decorator_list
    assert ast.unparse(memo.func) == "functools.lru_cache"


def test_one_raw_value_rule_and_one_product():
    # entries turn raw through FieldSpec.raw_from alone, once each, and
    # polynomial evaluation is one product inside the power stack
    assert _definers("_is_raw", "_combine", "mat_vec") == set()
    tree = ast.parse((SRC / "matrix.py").read_text())
    exact = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ExactMatrix")
    methods = {fn.name: fn for fn in exact.body if isinstance(fn, ast.FunctionDef)}
    assert "raw_from" in ast.unparse(methods["__new__"]) and "kind" not in ast.unparse(methods["__new__"])
    assert "ExactMatrix" not in _called_in(methods["to_field"]) and "_from_raw" in _called_in(methods["to_field"])
    stack = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_PowerStack")
    assert any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) for node in ast.walk(stack))
    assert "poly" in _called_in(_function(SRC / "commute.py", "poly_eval_no_const"))


def test_only_matrix_forms_lifts_and_one_certificate_is_built_per_answer():
    # the certificate scan reads L(c) off the commutators [A^i, B^j] and hands
    # back raw vectors, so no prime's residues become a certificate
    callers = {
        name: {
            (path.name, fn.name)
            for path in MODULES
            for fn in ast.parse(path.read_text()).body
            if isinstance(fn, ast.FunctionDef) and name in _called_in(fn)
        }
        for name in ("_lifts", "_certificate")
    }
    assert {module for module, _ in callers["_lifts"]} == {"matrix.py"}
    assert "_lifts" not in (SRC / "commute.py").read_text()
    assert callers["_certificate"] == {
        ("commute.py", "pc_search"), ("commute.py", "_minpoly_certificate"), ("commute.py", "_rational_pc")
    }


def test_one_commutant_route_over_the_rationals():
    # every single-matrix centralizer and joint commutant is `matrix._commutant`:
    # the per-caller kernels are gone, it alone takes a nullspace of lift rows,
    # and it forms the lifts only in its last statement, the fallback
    assert _definers("_shares_polynomial_commuter", "_polynomial_commutant") == set()
    assert _definers("_commutant") == {("matrix.py", "_commutant")}
    lift_nullspaces = {
        (path.name, fn.name)
        for path in MODULES
        for fn in ast.parse(path.read_text()).body
        if isinstance(fn, ast.FunctionDef) and {"nullspace_raw", "lift_rows_raw"} <= _called_in(fn)
    }
    assert lift_nullspaces == {("matrix.py", "_commutant")}
    commutant = _function(SRC / "matrix.py", "_commutant")
    lifting = [k for k, node in enumerate(commutant.body) if "lift_rows_raw" in _called_in(node)]
    assert lifting == [len(commutant.body) - 1]
    assert _top_level_users(*MODULES, name="_commutant") == {
        ("commute.py", "centralizer_basis"), ("commute.py", "dist_le_2"),
        ("commute.py", "common_nonscalar_commuter"), ("graph.py", "restricted_distance_le_3"),
    }


def test_one_commutator_grid_per_finite_field_pair():
    # `_commutant` and the certificate scan read [A^i, B^j] off one memo in
    # matrix, sized below one distance call's pairs (a benchmark pass has 394
    # distinct ones), so no hit crosses calls; the scan forms no powers itself
    assert _definers("_comm_grid") == {("matrix.py", "_comm_grid")}
    (memo,) = _function(SRC / "matrix.py", "_comm_grid").decorator_list
    assert ast.unparse(memo.func) == "functools.lru_cache"
    (size,) = [k.value.value for k in memo.keywords if k.arg == "maxsize"]
    assert 1 <= size <= 16
    assert _top_level_users(*MODULES, name="_comm_grid") == {
        ("matrix.py", "_commutant"), ("commute.py", "_exhaustive_pc"),
    }
    scan = _function(SRC / "commute.py", "_exhaustive_pc")
    assert "_comm_grid" in _called_in(scan)
    assert not any(isinstance(node, ast.While) for node in ast.walk(scan))
    assert "rows" not in {node.attr for node in ast.walk(scan) if isinstance(node, ast.Attribute)}


def test_every_cap_lives_in_matrix():
    # the certificate scan is capped on projective classes, not pairs, and the
    # exhaustive dist-le-2 count marks one space-sized array per orbit
    # representative, so no census is bounded by an ordered-pair cap
    assert all("PAIR_CAP" not in path.read_text() for path in MODULES)
    definers = {
        (path.name, target.id)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_CAP")
    }
    assert {module for module, _ in definers} == {"matrix.py"}
    assert {"_PC_CLASS_CAP", "_CLASS_CAP"} <= {name for _, name in definers}
    assert "packbits" not in (SRC / "census.py").read_text()


def test_graph_has_one_neighbor_kernel():
    # neighbor lists come from the batched `_commuting_pairs`; graph takes no
    # nullspace itself, and the restricted distance-3 search reads its
    # centralizer and witness off `_commutant`
    tree = ast.parse((SRC / "graph.py").read_text())
    assert _definers("_neighbor_codes") == set()
    assert "nullspace_raw" not in _called_in(tree)
    assert "_commutant" in _called_in(_function(SRC / "graph.py", "restricted_distance_le_3"))
    assert "partial" not in (SRC / "graph.py").read_text()


def test_bfs_sweeps_yield_their_levels():
    # `_bfs` yields one level at a time and takes no radius cap: a capped
    # report stops asking, so no level map over the space and no sentinel
    text = (SRC / "graph.py").read_text()
    assert "255" not in text and "_level_sizes" not in text
    bfs = _function(SRC / "graph.py", "_bfs")
    assert any(isinstance(node, ast.Yield) for node in ast.walk(bfs))
    assert [arg.arg for arg in bfs.args.args] == ["spec", "n", "source"]
    assert _top_level_users(*MODULES, name="_bfs") == {("graph.py", "bfs_report"), ("graph.py", "diameter")}
    # the two-sided pair search stays apart, so the sweep remains its oracle
    assert "_bfs" not in _called_in(_function(SRC / "graph.py", "_meet"))


def test_cli_handlers_return_only_their_answer():
    # `main` alone echoes the config and writes the report, and one loader reads
    # and records every matrix argument
    cli_py = SRC / "cli.py"
    functions = [fn for fn in ast.parse(cli_py.read_text()).body if isinstance(fn, ast.FunctionDef)]
    handlers = [fn for fn in functions if fn.name.startswith("_cmd_")]
    assert len(handlers) == 12
    callers = {name: {fn.name for fn in functions if name in _called_in(fn)} for name in ("_config", "_emit")}
    assert callers == {"_config": {"main"}, "_emit": {"main"}}
    assert [
        fn.name
        for fn in handlers
        for node in ast.walk(fn)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "args"
    ] == []
    assert "setattr" not in _called_in(ast.parse(cli_py.read_text())) and "_append_out" not in cli_py.read_text()
    # verify-paper's --out file is JSON whatever --format says, so it keeps its own config
    assert [
        fn.name for fn in handlers
        if fn.name != "_cmd_verify_paper"
        and any(isinstance(node, ast.Constant) and node.value == "config" for node in ast.walk(fn))
    ] == []
    loaders = {
        (fn.name, ast.unparse(node.func))
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("load_fixture", "ExactMatrix.from_json")
    }
    assert loaders == {("_load_matrix", "load_fixture"), ("_load_matrix", "ExactMatrix.from_json")}


def test_one_template_evaluator_for_the_worked_examples():
    # the ex32 lift template and the ex46 centralizer grids are strings read by
    # `_eval_template_entry`; no checker spells a template out as field arithmetic
    verify_py = SRC / "verify.py"
    assert _definers("_fits_ex46_c_template", "_fits_ex46_d_template") == set()
    assert _top_level_users(verify_py, name="_eval_template_entry") == {("verify.py", "_misfits")}
    assert _top_level_users(verify_py, name="_misfits") == {
        ("verify.py", "check_ex32_lift_template"), ("verify.py", "check_ex46")
    }
    arithmetic = {
        fn.name
        for fn in ast.parse(verify_py.read_text()).body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ops"
        and node.attr not in ("zero", "one")
    }
    assert arithmetic == {"_eval_template_entry"}


def test_every_public_name_is_used_outside_the_package_index():
    # a name only the tests call is dead API, and every elimination runs on
    # the three `rref_raw` backends, so there is no determinant loop
    perfbench = sorted((SRC.parent.parent / "perfbench").glob("*.py"))
    used = set()
    for path in [p for p in MODULES if p.name != "__init__.py"] + perfbench:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used |= {node.name, node.asname}
    public = {name for name in commdist.__all__ if not isinstance(getattr(commdist, name), ModuleType)}
    assert sorted(public - used) == []
    assert _definers("det") == set()


def _resolve(node):
    """The object a module name or dotted attribute in tracing.py names."""
    if isinstance(node, ast.Name):
        return importlib.import_module(f"commdist.{node.id}")
    return getattr(_resolve(node.value), node.attr)


def test_tracer_patch_targets_exist():
    # parsed, not imported: installing the tracer would patch the library
    tracing = SRC.parent.parent / "perfbench" / "tracing.py"
    targets = []
    for node in ast.walk(ast.parse(tracing.read_text())):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("wrap", "_patch")
            and isinstance(node.args[0], ast.List)
        ):
            attr = node.args[1].value
            targets += [(ast.unparse(owner), attr, _resolve(owner)) for owner in node.args[0].elts]
    names = {f"{owner}.{attr}" for owner, attr, _ in targets}
    assert {
        "census.lift_rows_raw", "census.dist_le_2", "census.idempotent_pool", "commute.lift_rows_raw",
        "graph.lift_rows_raw",
    } <= names
    assert [f"{owner}.{attr}" for owner, attr, obj in targets if not hasattr(obj, attr)] == []
