"""Rules on the package source itself."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rotspec"


def _trees():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_assert_statements():
    # python -O strips assert statements, so no check in the package may
    # rest on one; checks raise instead
    found = [f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
             for path, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements under src/: {found}"


_IDENTIFIER = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
_SVD_CALLS = {"np.linalg.svd", "numpy.linalg.svd"}
_SVD_DRIVERS = ("zgesvd", "zgesdd")


def _svd_uses(tree) -> list[int]:
    """Lines that call numpy's SVD or name a LAPACK SVD driver, as an
    identifier, an attribute, an import or a string."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in _SVD_CALLS:
            found.append(node.lineno)
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        elif type(node) in _IDENTIFIER:
            name = getattr(node, _IDENTIFIER[type(node)])
        else:
            continue
        if any(driver in name for driver in _SVD_DRIVERS):
            found.append(getattr(node, "lineno", None))
    return found


def test_no_function_takes_an_svd():
    # every sigma_min is a model's: the distance to the eigenvalues for a
    # normal spec, the band's Gram-Cholesky test for any other, so no
    # code under src/ calls numpy's SVD or reaches LAPACK's SVD drivers
    planted = ast.parse("def f(a, lapack):\n    s = np.linalg.svd(a)\n"
                        "    return lapack.zgesvd(a), getattr(lapack, 'zgesdd_lwork')\n")
    assert _svd_uses(planted) == [2, 3, 3]
    found = [f"{path.name}:{line}" for path, tree in _trees() for line in _svd_uses(tree)]
    assert not found, f"SVD calls or drivers under src/: {found}"


def test_one_function_runs_the_band_passes():
    # the band route's chunks and its one fallback stage live in
    # _banded_sigma_min, which takes the model and all of a grid's nodes:
    # compute_grid calls it once per grid, outside any loop, so no caller
    # chunks the nodes again and pays a fallback pass per chunk. It builds
    # the model's band, and each pass builds one Gram stack, which the
    # chunk's verifying tests reuse
    callers = {"_bisect_and_iterate": set(), "_gram_stack": set(), "_gram_band": set()}
    band_calls = []
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loops = [node for node in ast.walk(fn)
                     if isinstance(node, (ast.For, ast.While, ast.comprehension))]
            looped = {id(inner) for loop in loops for inner in ast.walk(loop)}
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = ast.unparse(node.func)
                if name in callers:
                    callers[name].add(f"{path.name}:{fn.name}")
                elif name == "_banded_sigma_min":
                    band_calls.append((f"{path.name}:{fn.name}", id(node) in looped))
    assert callers == {"_bisect_and_iterate": {"spectral.py:_banded_sigma_min"},
                       "_gram_stack": {"spectral.py:_bisect_and_iterate"},
                       "_gram_band": {"spectral.py:_banded_sigma_min"}}
    assert band_calls == [("pseudospectra.py:compute_grid", False)]


def test_no_numpy_norm():
    # np.linalg.norm(x, 2) is an SVD, which no code under src/ takes
    # (test_no_function_takes_an_svd), and a Frobenius norm overflows from
    # entries near 1e154 on: a Hermitian-defect tolerance on it accepted a
    # non-Hermitian array at 1e300
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("np.linalg.norm", "numpy.linalg.norm")]
    assert not found, f"np.linalg.norm under src/: {found}"


def test_lapack_is_reached_only_through_the_handle():
    # import scipy.linalg costs about 0.3 s and 20 MiB, so no module
    # imports scipy; LAPACK is scipy's extension module _flapack, which
    # only spectral._lapack names, loads and hands out
    found = []
    for path, tree in _trees():
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and ast.get_docstring(node) is not None}
        handle = {id(inner) for node in ast.walk(tree)
                  if path.name == "spectral.py" and isinstance(node, ast.FunctionDef)
                  and node.name == "_lapack" for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found += [f"{path.name}:{node.lineno}: import {module}" for module in modules
                      if module.partition(".")[0] == "scipy"]
            if id(node) in handle or id(node) in docstrings:
                continue
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            elif type(node) in _IDENTIFIER:
                name = getattr(node, _IDENTIFIER[type(node)])
            else:
                continue
            if "_flapack" in name or name.partition(".")[0] == "scipy":
                found.append(f"{path.name}:{node.lineno}: {name!r}")
    assert not found, f"scipy reached outside spectral._lapack: {found}"


def _traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", ROOT / "bench" / "traced_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Recording(dict):
    """Call arguments whose reads are recorded; every value is a stand-in
    that answers the size probes (order, len, indexing, int)."""

    class Value:
        order = 1

        def __len__(self):
            return 1

        def __getitem__(self, index):
            return 1

        def __int__(self):
            return 1

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return self.Value()


def test_traced_bench_wraps_existing_functions_and_arguments():
    # the traced bench run wraps these functions by name and reads sizes
    # from their bound arguments; a kernel refactor must keep both
    traced = _traced_cli()
    sized = set()
    for module_name, attr, span in traced.TRACED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
        if span in traced.SIZES:
            args = _Recording()
            traced.SIZES[span](args)
            params = inspect.signature(getattr(module, attr)).parameters
            assert args.read and args.read <= set(params), (module_name, attr, args.read)
            sized.add(span)
    assert sized == set(traced.SIZES)


def test_artifacts_go_through_the_streaming_writer():
    # cli._Output.write writes each artifact piece by piece as it is
    # formatted; a whole-file write_text or write_bytes would hold the
    # whole artifact in memory, and twice over once encoded
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("write_text", "write_bytes")]
    assert not found, f"whole-file writes under src/: {found}"


def test_no_unused_imports():
    # every name a module imports is read in that module, so a deletion
    # cannot leave an import behind; __init__.py imports to re-export
    found = []
    for path, tree in _trees():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, f"unused imports under src/: {found}"


def test_approx_dispatches_on_the_spec_not_on_exceptions():
    # the spec's coefficients pick each eigen route (normal_eigenvalues);
    # a handler for a solver's refusal would be a second dispatcher
    tree = ast.parse((PACKAGE / "approx.py").read_text(encoding="utf-8"))
    caught = [f"approx.py:{node.lineno}: {name}"
              for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for name in (n.id if isinstance(n, ast.Name) else n.attr
                           for n in ast.walk(node.type) if isinstance(n, (ast.Name, ast.Attribute)))
              if name in ("ModelsNotNormal", "NotHermitian")]
    assert not caught, f"solver refusals caught in approx: {caught}"


def test_specs_are_built_by_one_merge():
    # OperatorSpec.general and .canonical construct every spec through
    # OperatorSpec._merge, which leaves the terms sorted, merged and
    # finite; a direct OperatorSpec(...) call elsewhere would skip it
    callers = set()
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers.update(f"{path.name}:{fn.name}" for node in ast.walk(fn)
                               if isinstance(node, ast.Call)
                               and ast.unparse(node.func).rpartition(".")[2] == "OperatorSpec")
    assert callers == {"matmodel.py:_merge"}, callers


# definitions that only code outside src/ reads, each with its reader:
# bench/check.py builds its dense oracle from MatrixModel.entries until the
# benchmark change of ROADMAP item 1 moves it to the model's columns and
# values, and acceptance criteria 7, 8 and 9 check the other three
_READ_OUTSIDE_SRC = {
    "MatrixModel.entries": "bench/check.py",
    "sandwich_check": "tests/test_acceptance.py::test_criterion_07_sandwich_bulk",
    "one_sided_contains": "tests/test_acceptance.py::test_criterion_08_one_sided_containment",
    "constant_audit": "tests/test_acceptance.py::test_criterion_09_constant_audit",
}


def _lazy_exports() -> dict[str, tuple[str, ...]]:
    """__init__.py's table of the names it re-exports from each module it
    loads lazily, read from its source."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    tables = [ast.literal_eval(node.value) for node in init.body
              if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_LAZY"]
    assert len(tables) == 1, tables
    return tables[0]


def _unused_definitions(trees) -> list[str]:
    """Top-level functions and classes (not dunders), and the non-dunder
    methods and properties of those classes, whose name appears nowhere
    outside their own body as a read, an attribute of any object or an
    import; __init__.py's re-exports (its imports and its lazy table, a
    literal of strings) are no reads."""
    names = {}  # name -> count of its appearances as a read, an attribute or an import
    defined = []  # (path, qualified name, node)
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] = names.get(node.id, 0) + 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] = names.get(node.attr, 0) + 1
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                names[node.name] = names.get(node.name, 0) + 1
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")):
                defined.append((path, node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [(path, f"{node.name}.{method.name}", method) for method in node.body
                            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not method.name.startswith("__")]
    dead = []
    for path, qualname, node in defined:
        inside = sum(1 for inner in ast.walk(node)
                     if isinstance(inner, ast.Name) and inner.id == node.name
                     or isinstance(inner, ast.Attribute) and inner.attr == node.name)
        if names.get(node.name, 0) <= inside:
            dead.append(f"{path.name}:{node.lineno}: {qualname}")
    return dead


def test_every_top_level_definition_is_used():
    # a function, class, method or property that no code under src/rotspec
    # reads is dead code, exported or not: the public API is what the
    # package itself uses, besides the few definitions of _READ_OUTSIDE_SRC;
    # a module's __getattr__ and __dir__ are dunders the interpreter calls
    planted = [(Path("mod.py"), ast.parse("def used(): return 1\n"
                                          "def exported(): return exported\n"
                                          "class A:\n    def run(self): return used()\n"
                                          "A().run()\n")),
               (Path("__init__.py"), ast.parse("from .mod import A, exported\n"
                                               "_LAZY = {'mod': ('exported',)}\n"))]
    assert _unused_definitions(planted) == ["mod.py:2: exported"]
    # the listed names stay unread under src/, and nothing else is
    unread = {found.rpartition(" ")[2]: found for found in _unused_definitions(_trees())}
    assert set(unread) == set(_READ_OUTSIDE_SRC), f"definitions nothing under src/ reads: {unread}"


_NOT_PLAIN = {"property", "cached_property", "staticmethod"}


def _uncalled_methods(trees) -> list[str]:
    """Plain methods (not dunders, properties or static methods) that no
    call calls or takes as an argument outside the method's own body,
    matched by attribute name as test_every_top_level_definition_is_used
    matches: a method merely read is never run."""
    methods, uses = [], []  # (path, class, node); (attribute name, node)
    for path, tree in trees:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods += [(path, cls.name, fn) for fn in cls.body
                            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not fn.name.startswith("__")
                            and not {ast.unparse(d) for d in fn.decorator_list} & _NOT_PLAIN]
        uses += [(operand.attr, operand) for node in ast.walk(tree) if isinstance(node, ast.Call)
                 for operand in (node.func, *node.args, *(k.value for k in node.keywords))
                 if isinstance(operand, ast.Attribute)]
    found = []
    for path, cls, fn in methods:
        inside = {id(node) for node in ast.walk(fn)}
        if not any(name == fn.name and id(node) not in inside for name, node in uses):
            found.append(f"{path.name}:{fn.lineno}: {cls}.{fn.name}")
    return found


def test_every_plain_method_is_called():
    # a method that is only named, never called, escapes the rule above
    # whenever an attribute of another object shares its name (a field p
    # hid ContinuedFractionExpansion.p); a method passed uncalled to a call,
    # as cmd_converge passes ConvergenceTable.to_csv to _Output.write, runs
    planted = ast.parse("class A:\n"
                        "    def run(self): return self.dead, self.run()\n"
                        "    def passed(self): return 1\n"
                        "    def dead(self): return self.dead()\n"
                        "    @property\n    def prop(self): return 1\n"
                        "    @staticmethod\n    def static(): return 1\n"
                        "A().run(A().passed)\n")
    assert _uncalled_methods([(Path("planted.py"), planted)]) == ["planted.py:4: A.dead"]
    found = _uncalled_methods(_trees())
    assert not found, f"methods nothing calls: {found}"


def test_dense_entries_are_read_in_one_place():
    # the one reader is bench/check.py's oracle: no code under src/ reads
    # a model's dense matrix, since .entries builds a q x q array that no
    # --max-q bounds
    readers = [f"{path.name}:{node.lineno}" for path, tree in _trees()
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert not readers, f".entries read under src/: {readers}"


def test_no_dense_eigensolver():
    # the spec picks every eigen route (normal_eigenvalues), and eigenvalues
    # come from LAPACK through spectral._lapack() or in closed form; a
    # numpy eigensolver would be a dense route that a tolerance could pick
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
             for path, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).startswith(("np.linalg.eig", "numpy.linalg.eig"))]
    assert not found, f"numpy eigensolvers under src/: {found}"


def test_every_reexported_definition_has_a_docstring():
    # the package's public API is what __init__.py re-exports, by import
    # or through its lazy table; each of its functions and classes says
    # what it is
    exported = {module: set(names) for module, names in _lazy_exports().items()}
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported[node.module] = {alias.name for alias in node.names}
    missing = [f"{path.name}:{node.lineno}: {node.name}"
               for path, tree in _trees() if path.stem in exported
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name in exported[path.stem] and not ast.get_docstring(node)]
    assert sum(map(len, exported.values())) >= 49
    assert not missing, f"re-exported definitions without a docstring: {missing}"


def _functions():
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, fn


def _adjoint_operations(node):
    """The operations, of "T" (transpose) and "conj", that node applies to
    its operand, and the operand; none and None for any other node."""
    if isinstance(node, ast.Attribute) and node.attr in ("T", "mT", "H", "mH"):
        return ({"T", "conj"} if node.attr in ("H", "mH") else {"T"}), node.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        operation = {"conj": "conj", "conjugate": "conj", "transpose": "T"}.get(node.func.attr)
        if operation:
            return {operation}, node.args[0] if node.args else node.func.value
    return set(), None


def _is_conjugate_transpose(node) -> bool:
    outer, operand = _adjoint_operations(node)
    return outer | _adjoint_operations(operand)[0] >= {"T", "conj"}


_COMPARISONS = {"array_equal", "array_equiv", "allclose", "isclose", "equal", "subtract"}


def _compared(node) -> list:
    """The operands node compares: of a comparison, a subtraction or a
    numpy comparison function."""
    if isinstance(node, ast.Compare):
        return [node.left, *node.comparators]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return [node.left, node.right]
    if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] in _COMPARISONS:
        return node.args
    return []


def test_one_function_compares_an_array_with_its_conjugate_transpose():
    # exact equality in pseudospectra._hermitian_array, which only
    # sandwich_check calls, is the one Hermitian test for arrays; the spec
    # decides for models. A second test, such as
    # a tolerance on A - A*, would be a second rule for the same input
    found = {f"{path.name}:{fn.name}" for path, fn in _functions()
             for node in ast.walk(fn)
             if any(_is_conjugate_transpose(operand) for operand in _compared(node))}
    assert found == {"pseudospectra.py:_hermitian_array"}, found


def _imports(node, module: str) -> bool:
    return (isinstance(node, ast.Import) and module in {a.name for a in node.names}
            or isinstance(node, ast.ImportFrom) and node.module == module)


def test_only_the_sandwich_hashes():
    # a fingerprint hashes the model's stored terms, 24 bytes per term and
    # row, and only sandwich_report.json prints one: matrix_fingerprint is the
    # one function that imports a hash, and certify_pseudospectrum its one
    # caller. The hash is CPython's built-in SHA-256 (_sha2 from Python
    # 3.12, _sha256 before), which gives hashlib's digests without loading
    # OpenSSL's libcrypto (3.5 MiB of resident memory). hashlib is imported
    # nowhere else, and there only in the except ImportError handler of an
    # interpreter built without the built-in module
    hashes = ("_sha2", "_sha256", "hashlib")
    imports, callers = set(), set()
    for path, fn in _functions():
        fallback = {id(node) for handler in ast.walk(fn)
                    if isinstance(handler, ast.ExceptHandler)
                    and ast.unparse(handler.type) == "ImportError"
                    for node in ast.walk(handler)}
        for node in ast.walk(fn):
            imports |= {(f"{path.name}:{fn.name}", module, id(node) in fallback)
                        for module in hashes if _imports(node, module)}
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func).rpartition(".")[2] == "matrix_fingerprint"):
                callers.add(f"{path.name}:{fn.name}")
    everywhere = [path.name for path, tree in _trees() for node in ast.walk(tree)
                  for module in hashes if _imports(node, module)]
    assert everywhere == ["pseudospectra.py"] * 3, everywhere  # none at module level
    where = "pseudospectra.py:matrix_fingerprint"
    assert imports == {(where, "_sha2", False), (where, "_sha256", True),
                       (where, "hashlib", True)}, imports
    assert callers == {"approx.py:certify_pseudospectrum"}, callers


_PARALLEL = {"concurrent", "threading", "multiprocessing"}


def _parallel_imports(tree) -> list[int]:
    """Lines of imports of concurrent.futures, threading or multiprocessing
    (or any of their submodules), at module level or in a function body."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(a.name.partition(".")[0] in _PARALLEL for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.partition(".")[0] in _PARALLEL]


def test_nothing_imports_threads_or_processes():
    # every grid runs in the calling thread: the band route's numpy loop
    # holds the GIL, and a thread pool never ran faster than one thread.
    # The check sees an import inside a function as well
    planted = ast.parse("def f():\n    from concurrent.futures import ThreadPoolExecutor\n"
                        "    import threading\n    import multiprocessing.pool\n")
    assert _parallel_imports(planted) == [2, 3, 4]
    found = [f"{path.name}:{line}" for path, tree in _trees() for line in _parallel_imports(tree)]
    assert not found, f"imports of concurrent.futures, threading or multiprocessing: {found}"


# tests of a float against the top of the float range
_FLOAT_RANGE = {"math.isfinite", "math.isinf", "np.isfinite", "np.isinf", "math.inf",
                "np.inf", "sys.float_info.max"}


def test_only_the_spec_decides_that_its_sum_of_moduli_is_a_float():
    # OperatorSpec._merge refuses a spec whose sum |c| (spec_norm_bound)
    # overflows, so no other code tests that value against the float range
    def is_sum(node):
        return (isinstance(node, ast.Call)
                and ast.unparse(node.func).rpartition(".")[2] == "spec_norm_bound")

    deciders = set()
    for path, fn in _functions():
        sums = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                and is_sum(node.value) for target in node.targets
                if isinstance(target, ast.Name)}
        for node in ast.walk(fn):
            if not isinstance(node, (ast.Compare, ast.Call)):
                continue
            inner = list(ast.walk(node))
            if ({ast.unparse(n) for n in inner if isinstance(n, (ast.Name, ast.Attribute))}
                    & _FLOAT_RANGE
                    and any(is_sum(n) or isinstance(n, ast.Name) and n.id in sums
                            for n in inner)):
                deciders.add(f"{path.name}:{fn.name}")
    assert deciders == {"matmodel.py:_merge"}, deciders
