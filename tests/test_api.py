"""The package namespace: ``__all__`` is exactly what a star import binds,
and only the command-line front end writes files or stdout."""

import ast
import pathlib

import curved_sitnikov


def test_all_has_no_duplicates():
    assert len(set(curved_sitnikov.__all__)) == len(curved_sitnikov.__all__)


def test_every_exported_name_resolves():
    missing = [name for name in curved_sitnikov.__all__
               if not hasattr(curved_sitnikov, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from curved_sitnikov import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(curved_sitnikov.__all__)


def _writes_output(node: ast.AST) -> bool:
    """A file opened for writing, ``write_text``/``write_bytes``, a bare
    ``print``, ``print`` passed as a value, or any use of ``sys.stdout``."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "stdout" and isinstance(node.value, ast.Name)
                and node.value.id == "sys")
    if any(isinstance(child, ast.Name) and child.id == "print"
           and not (isinstance(node, ast.Call) and child is node.func)
           for child in ast.iter_child_nodes(node)):
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name in ("write_text", "write_bytes"):
        return True
    if name == "print":
        return not any(kw.arg == "file" for kw in node.keywords)
    if name == "open":
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        modes += node.args[1:2]
        return any(not isinstance(m, ast.Constant)
                   or set(str(m.value)) & set("wax+") for m in modes)
    return False


def test_only_cli_writes_artifacts():
    package = pathlib.Path(curved_sitnikov.__file__).parent
    writers = sorted({path.name for path in package.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if _writes_output(node)})
    assert writers == ["cli.py"]


# Defaulted parameters, lambda defaults and defaulted dataclass fields in
# the package: each is a knob, and none is added without removing another.
MAX_OPTIONS = 23


def _option_count(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(stmt, ast.AnnAssign)
                         and stmt.value is not None for stmt in node.body)
    return count


def test_option_count_does_not_grow():
    package = pathlib.Path(curved_sitnikov.__file__).parent
    total = sum(_option_count(ast.parse(path.read_text()))
                for path in package.glob("*.py"))
    assert total <= MAX_OPTIONS


# One adaptive DOP853 loop per data shape: Python floats and lanes.  A
# third caller of the shared first-step rule is a third step loop.
INITIAL_STEP_CALLERS = ["integrate._dop853_floats", "integrate._dop853_lanes"]


def _calls(node: ast.AST, name: str) -> bool:
    return any(isinstance(call, ast.Call)
               and name in (getattr(call.func, "id", None),
                            getattr(call.func, "attr", None))
               for call in ast.walk(node))


def _function_callers(name: str) -> list[str]:
    """Every function in the package that calls ``name``, nested ones and
    the functions that hold them included."""
    package = pathlib.Path(curved_sitnikov.__file__).parent
    return sorted(f"{path.stem}.{node.name}"
                  for path in package.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _calls(node, name))


def test_one_step_loop_per_data_shape():
    assert _function_callers("_initial_steps") == INITIAL_STEP_CALLERS


# One DOP853 step on floats: the float loop and its stop sampler take it
# from the kernel builder.  Another caller would be a per-call-site trial.
KERNEL_CALLERS = ["integrate._dop853_floats", "integrate._float_stops"]


def test_one_float_step_kernel():
    assert _function_callers("_dop853_kernel") == KERNEL_CALLERS


# One spelling of the orbit force: the scalar force and the orbits' lane
# system are the only places that build it from its parts.
FORCE_PART_CALLERS = ["model._orbit_system", "model.tangential_force"]


def test_one_spelling_of_the_orbit_force():
    # each caller is named by its top-level statement: a nested function
    # by the function that holds it, a method by its class
    package = pathlib.Path(curved_sitnikov.__file__).parent
    for part in ("_squared_distance", "_pull"):
        callers = sorted(f"{path.stem}.{getattr(node, 'name', '<module>')}"
                         for path in package.glob("*.py")
                         for node in ast.parse(path.read_text()).body
                         if _calls(node, part))
        assert callers == FORCE_PART_CALLERS, part


# The model's equations live in ``model``: no other module names the
# parts of the force or of the antipode's linearization.
MODEL_PARTS = {"_phase_terms", "_squared_distance", "_pull",
               "_antipode_dforce_dq"}


def _names(tree: ast.AST) -> set[str]:
    """Every name a module binds, reads, imports or defines."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
    return names


def test_model_parts_stay_in_model():
    package = pathlib.Path(curved_sitnikov.__file__).parent
    users = sorted(path.name for path in package.glob("*.py")
                   if _names(ast.parse(path.read_text())) & MODEL_PARTS)
    assert users == ["model.py"]


# One Kepler loop per data shape: ``solve_kepler`` on floats, and the array
# solve behind the curve jets.  A second caller of the array solve would
# be a second array route, and ``np.vectorize`` a per-sample wrapper.
ARRAY_KEPLER_CALLERS = ["kepler.radial_factor_derivatives"]


def test_one_kepler_loop_per_data_shape():
    assert _function_callers("_solve_kepler_array") == ARRAY_KEPLER_CALLERS
    package = pathlib.Path(curved_sitnikov.__file__).parent
    users = sorted(path.name for path in package.glob("*.py")
                   if "vectorize" in _names(ast.parse(path.read_text())))
    assert users == []
