"""Source-level rules that no other test can see."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "speclab"


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a check written as one silently
    # vanishes; bad input must raise a SpeclabError or ValueError instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), "no package sources found"
    assert found == [], f"assert statements in src/speclab: {found}"


def test_bad_input_raises_a_speclab_error():
    # a bare ValueError escapes `except SpeclabError`; bad input raises
    # errors.InvalidInput, which is both a SpeclabError and a ValueError
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Raise) and node.exc is not None
             and _dotted(getattr(node.exc, "func", node.exc)) == "ValueError"]
    assert found == [], f"bare ValueErrors raised in src/speclab: {found}"


def test_report_json_has_one_schema():
    # the CLI writes a report dataclass as its fields, so a hand-written
    # to_dict would be a second copy of the schema; ExtremeCycle.to_dict
    # alone stays, as it writes the computed period and exact "p/q" points
    found = sorted(f"{path.stem}.{node.name}"
                   for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(), str(path)))
                   if isinstance(node, ast.ClassDef)
                   and any(isinstance(f, ast.FunctionDef) and f.name == "to_dict"
                           for f in node.body))
    assert found == ["cycles.ExtremeCycle"]


def _dotted(node) -> str:
    """`np.linalg.inv` for the callee of a call, or '' if it is no name."""
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


PASS = "_faddeev_leverrier"


def _pass_readers() -> dict[str, str]:
    """linalg function -> what it reads of the Faddeev-LeVerrier pass: the
    'coefficients' alone (the call subscripted [0]) or the 'adjugate' too."""
    readers = {}
    for f in ast.parse((SRC / "linalg.py").read_text()).body:
        if not isinstance(f, ast.FunctionDef):
            continue
        firsts = {id(n.value) for n in ast.walk(f) if isinstance(n, ast.Subscript)
                  and isinstance(n.slice, ast.Constant) and n.slice.value == 0}
        for node in ast.walk(f):
            if isinstance(node, ast.Call) and _dotted(node.func) == PASS:
                readers[f.name] = ("coefficients" if id(node) in firsts
                                   else "adjugate")
    return readers


def test_every_inverse_reads_the_one_exact_inverse():
    # R^{-1} is formed only by linalg.inverse, as adj(R) / det(R): no float
    # inversion, and no adjugate taken anywhere else: outside linalg.py
    # nothing calls the pass, and inside it only `inverse` reads its adjugate
    found = [f"{path.name}:{node.lineno} {name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and ((name := _dotted(node.func)).endswith("linalg.inv")
                  or (name.split(".")[-1] == PASS and path.name != "linalg.py"))]
    assert found == [], f"inverses formed outside linalg.inverse: {found}"
    assert [f for f, read in _pass_readers().items() if read == "adjugate"] == [
        "inverse"]
    # exact solves read the same pair: no Fraction elimination or Fraction
    # matrix view of an inverse survives beside it
    retired = {"rat_solve", "rat_inverse", "rat_apply",
               "cumulative_inverse_exact"}
    assert _names_in_package(retired) == [], "exact solves outside linalg.inverse"


def _names_in_package(names: set[str]) -> list[str]:
    """Where src/speclab binds, reads or defines any of `names`."""
    return [f"{path.name}:{node.lineno} {name}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            for name in [getattr(node, "id", None) or getattr(node, "attr", None)
                         or getattr(node, "name", None)]
            if name in names]


def test_one_pass_forms_every_determinant_charpoly_and_adjugate():
    # det(R), det(xI - R) and adj(R) all come from one integer
    # Faddeev-LeVerrier pass: no float determinant or polynomial, and no
    # Bareiss elimination, cofactor expansion or Fraction matrix beside it
    found = [f"{path.name}:{node.lineno} {name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and (name := _dotted(node.func)).split(".")[-1] in (
                 "det", "slogdet", "poly") and name.startswith(("np.", "numpy."))]
    assert found == [], f"float determinants or polynomials: {found}"
    retired = {"adjugate", "cofactor", "as_fractions", "RatMatrix"}
    assert _names_in_package(retired) == []
    assert _pass_readers() == {"charpoly": "coefficients", "inverse": "adjugate"}
    # det and is_expansive read the coefficients through charpoly, and no
    # reader of the pass runs a loop (or nested helper) of its own
    linalg = {f.name: f for f in ast.parse((SRC / "linalg.py").read_text()).body
              if isinstance(f, ast.FunctionDef)}
    for name in ("det", "is_expansive", "charpoly", "inverse"):
        loops = [n for n in ast.walk(linalg[name])
                 if isinstance(n, (ast.For, ast.While, ast.comprehension))]
        assert loops == [], f"{name} computes beside the pass"
    assert {name for name, f in linalg.items() for n in ast.walk(f)
            if isinstance(n, ast.Call) and _dotted(n.func) == "charpoly"} == {
        "det", "is_expansive"}


def _imported(tree) -> set[str]:
    """Names bound by the module's imports, `from __future__` aside."""
    return {(a.asname or a.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for a in node.names}


def test_no_unused_imports():
    # every imported name is read somewhere in its module; an annotation
    # counts as a use
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name} {name}" for name in sorted(_imported(tree) - used)]
    assert found == [], f"unused imports in src/speclab: {found}"


def test_cli_handlers_read_only_declared_options():
    # every args.<name> that cmd_<c> reads, itself or through the cli
    # functions it calls, is an option that the parser of <c> defines; a
    # read of an undefined option would raise AttributeError at run time
    from speclab.cli import _COMMANDS
    tree = ast.parse((SRC / "cli.py").read_text())
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def reads(name: str, seen: set) -> set[str]:
        if name in seen:
            return set()
        seen.add(name)
        found = set()
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Attribute) and _dotted(node.value) == "args":
                found.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in funcs:
                found |= reads(node.id, seen)
        return found

    handlers = sorted(name for name in funcs if name.startswith("cmd_"))
    assert handlers == sorted(f"cmd_{c}" for c in _COMMANDS)
    undeclared = {}
    for command, (handler, _, options) in _COMMANDS.items():
        assert handler.__name__ == f"cmd_{command}"
        extra = reads(handler.__name__, set()) - {"input", "out", "tol", *options}
        if extra:
            undeclared[command] = sorted(extra)
    assert undeclared == {}, f"handlers read options they do not define: {undeclared}"


def test_one_mask_kernel_and_one_system_constructor():
    # m_B is evaluated in one place: every np.exp of a 2 pi i phase sits in
    # the private triples._mask, which the transform calls directly and
    # mask_eval_many (for mask_eval and the Parseval defect) wraps
    found = [(path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and _dotted(node.func) in ("np.exp", "numpy.exp")
             and any(isinstance(c, ast.Constant) and isinstance(c.value, complex)
                     for c in ast.walk(node))]
    kernel = next(f for f in ast.parse((SRC / "triples.py").read_text()).body
                  if isinstance(f, ast.FunctionDef) and f.name == "_mask")
    assert len(found) == 1 and found[0][0] == "triples.py" and \
        kernel.lineno <= found[0][1] <= kernel.end_lineno, \
        f"masks evaluated outside the kernel: {found}"
    # the transform calls the kernel itself, not its public entry, so the
    # mask work counts as transform time wherever public names are wrapped
    ft = next(f for f in ast.parse((SRC / "measures.py").read_text()).body
              if isinstance(f, ast.FunctionDef) and f.name == "_ft_product")
    calls = {_dotted(n.func) for n in ast.walk(ft) if isinstance(n, ast.Call)}
    assert "_mask" in calls and "mask_eval_many" not in calls
    # the second paths stay gone: the 1-D pair count, the vector-set
    # helper beside the one class body, and the CLI's table of system fields
    retired = {"_close_pairs_sorted", "_as_vector_set", "_UNUSABLE"}
    assert _names_in_package(retired) == []
    # the CLI decides no system kind: it names no factory and builds every
    # system by one ConvolutionSystem call, whose __post_init__ rules
    cli = ast.parse((SRC / "cli.py").read_text())
    names = {getattr(n, "id", None) or getattr(n, "name", None)
             for n in ast.walk(cli)}
    assert names.isdisjoint({"self_affine", "periodic_word", "random_word",
                             "general_product"})
    assert len([n for n in ast.walk(cli) if isinstance(n, ast.Call)
                and _dotted(n.func) == "ConvolutionSystem"]) == 1


# the exact level layer: the level sequence, its table and its level words
LEVEL_NAMES = {"DEFAULT_TARGET", "DEFAULT_MAX_DEPTH", "TruncationPolicy",
               "DEFAULT_POLICY", "ConvolutionSystem", "self_affine",
               "periodic_word", "random_word", "general_product",
               "level_word_sums", "_atom_count", "lambda_word_values",
               "lambda_n", "_level_set"}


def _defined(tree) -> set[str]:
    """Names a module defines at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _imports_at_load(nodes) -> set[str]:
    """Modules imported when a module loads (relative ones with a leading
    dot): imports inside functions and `if TYPE_CHECKING:` blocks aside."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or "").split(".")[0])
        elif not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  or isinstance(node, ast.If) and _dotted(node.test) == "TYPE_CHECKING"):
            found |= _imports_at_load(ast.iter_child_nodes(node))
    return found


def test_one_exact_level_layer_without_object_arrays():
    # level data are integers, kept as plain int tuples: no numpy object
    # array anywhere, and the layer that computes them loads no numpy
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.keyword) and node.arg == "dtype"
             and _dotted(node.value) == "object"]
    assert found == [], f"object arrays in src/speclab: {found}"
    levels = ast.parse((SRC / "levels.py").read_text())
    assert _imports_at_load(levels.body) - set(sys.stdlib_module_names) == {
        ".errors", ".linalg", ".triples"}
    # each name of the layer is defined once, in levels.py; others import it
    homes = {name: sorted(path.name for path in SRC.glob("*.py")
                          if name in _defined(ast.parse(path.read_text())))
             for name in LEVEL_NAMES}
    assert homes == {name: ["levels.py"] for name in LEVEL_NAMES}


def test_one_level_set_construction():
    # every frequency level is levels._level_set, Lambda_n + R_1^T...R_n^T S:
    # lambda_n, the cycle spectrum and the generators' one level() body call
    # it, and cycles, spectra and cli form no level set of their own: they
    # take no R^T (the cycle fixed-point solve aside) and sum no level words
    own = [f"{name}:{node.lineno} {f.name}"
           for name in ("cycles.py", "spectra.py", "cli.py")
           for f in ast.walk(ast.parse((SRC / name).read_text()))
           if isinstance(f, ast.FunctionDef) and f.name != "fixed_point_of_word"
           for node in ast.walk(f) if isinstance(node, ast.Call)
           and _dotted(node.func).split(".")[-1] in ("transpose",
                                                      "level_word_sums")]
    assert own == [], f"level sets formed outside levels._level_set: {own}"
    callers = {f.name for path in sorted(SRC.glob("*.py"))
               for f in ast.walk(ast.parse(path.read_text()))
               if isinstance(f, ast.FunctionDef)
               for node in ast.walk(f) if isinstance(node, ast.Call)
               and _dotted(node.func) == "_level_set"}
    assert callers == {"lambda_n", "dynamically_simple_spectrum", "level"}
    from speclab.spectra import CycleSpectrumGenerator, LevelSetsGenerator
    assert CycleSpectrumGenerator.level is LevelSetsGenerator.level
    # the cycle-point helper of the old Horner loop stays gone
    assert _names_in_package({"cycle_points"}) == []
