"""Library checks must survive `python -O`, which strips assert statements."""

import ast
import pathlib

import outerspine


def test_library_has_no_asserts():
    found = []
    for path in sorted(pathlib.Path(outerspine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                    isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def library_calls():
    """(module file name, call node, called name) for every call in the
    library; the name is the attribute or plain name called."""
    for path in sorted(pathlib.Path(outerspine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                yield path.name, node, (f.attr if isinstance(f, ast.Attribute)
                                        else getattr(f, "id", None))


def test_core_decisions_stay_in_covers():
    """Based cores and seeded core morphisms are computed only in covers:
    the engine's `Folder.based_core` is called there alone, and other
    modules take `covers.based_core`. Every core is pruned by the folding
    engine: no library call is named `pruned`."""
    found = ["%s:%d" % (mod, node.lineno) for mod, node, name in library_calls()
             if (mod != "covers.py" and (
                 name == "_labeled_extension" or (
                     name == "based_core"
                     and isinstance(node.func, ast.Attribute))))
             or name == "pruned"]
    assert found == []


def test_input_boundaries_build_checked_objects():
    """The modules that read outside input build words and graphs with the
    checking public constructors: they never call the unchecked `_derived`
    constructors, and no call in the library passes a `check=` switch."""
    boundaries = {"textio.py", "cli.py", "acceptance.py", "sampling.py"}
    found = ["%s:%d" % (mod, node.lineno) for mod, node, name in library_calls()
             if (name == "_derived" and mod in boundaries)
             or any(k.arg == "check" for k in node.keywords)]
    assert found == []


def test_spine_vertex_sets_use_vertexset():
    """Sets of spine vertices are `marked.VertexSet`s, which key a vertex
    only when another of its circuit lengths is already there: no call of
    `canonical_key` outside marked."""
    found = ["%s:%d" % (mod, node.lineno) for mod, node, name in library_calls()
             if name == "canonical_key" and mod != "marked.py"]
    assert found == []


def test_only_input_decisions_fold_for_an_inverse():
    """`is_automorphism` folds the image loops to decide invertibility and
    read off an inverse. It is called only on maps nothing else vouches
    for: the user's images in cli.py, the blueprint's vertex groups in
    retract_split.py, and the witness rows that criterion 8 checks one by
    one in acceptance.py. Samplers and witnesses build products of Nielsen
    generators, whose inverses `words.nielsen_product` writes down."""
    found = {mod for mod, _, name in library_calls()
             if name == "is_automorphism"}
    assert found <= {"cli.py", "retract_split.py", "acceptance.py"}


def reached_calls(module, root):
    """(calls, reached): `calls` maps each function of the library module
    to the names it calls, and `reached` holds the functions of that
    module that `root` reaches by calls, itself included."""
    path = pathlib.Path(outerspine.__file__).parent / module
    tree = ast.parse(path.read_text(), str(path))
    calls = {}
    for f in ast.walk(tree):
        if isinstance(f, ast.FunctionDef):
            calls.setdefault(f.name, set()).update(
                getattr(c.func, "id", getattr(c.func, "attr", None))
                for c in ast.walk(f) if isinstance(c, ast.Call))
    reached, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(calls[name] & calls.keys())
    return calls, reached


def test_path_summary_walks_without_composing():
    """`counting.path_summary` reads an explicit path off one loop over
    its runs: it is its own walker, and the one counting function it
    reaches is `move`, which fills the window-move memo; `compose` is not
    reached."""
    calls, reached = reached_calls("counting.py", "path_summary")
    assert "compose" in calls and "compose" not in reached
    assert reached == {"path_summary", "move"}


def test_membership_builds_no_numbered_core():
    """`covers.core_images` reads each core's edges off the folding engine:
    neither it nor any covers function it reaches calls `stallings_core`
    or a `.core()`."""
    calls, reached = reached_calls("covers.py", "core_images")
    names = set().union(*(calls[f] for f in reached))
    assert {"_axis_fold", "core_edges"} <= names
    assert not names & {"stallings_core", "core"}


# Public functions whose only callers are tests; each is named in the README
# or kept for a planned use (ROADMAP, "Keep the source small").
TEST_ONLY_API = {
    "theta_graph", "enumerate_blowups", "conjugate_by",
    "coindex1_to_splitting",
}


def test_public_functions_have_callers():
    """Every public function or method of the library is named (called,
    referenced or imported) somewhere in the library or the benchmark, or
    is listed as test-only API; the list holds only such names."""
    src = pathlib.Path(outerspine.__file__).parent
    bench = src.parent.parent / "bench"
    defined = {}
    used = set()
    for path in sorted(src.glob("*.py")) + sorted(bench.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(a.name.split(".")[-1] for a in node.names)
        if path.parent != src:
            continue
        for node in tree.body:
            for f in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    defined.setdefault(f.name, "%s:%d" % (path.name, f.lineno))
    unread = {name: where for name, where in defined.items()
              if name not in used and name not in TEST_ONLY_API}
    assert unread == {}
    assert TEST_ONLY_API - set(defined) == set()
    assert TEST_ONLY_API & used == set()


def test_one_collapse_certificate():
    """Both retraction audits certify a collapse edge by the one routine,
    `marked.collapse_certificate`: each of its messages occurs once in the
    library."""
    src = pathlib.Path(outerspine.__file__).parent
    text = "".join(path.read_text() for path in sorted(src.glob("*.py")))
    for message in ("empty hull but retractions differ",
                    "hull is not a forest",
                    "hull collapse does not reproduce the retraction"):
        assert text.count(message) == 1, message


def test_one_fold_onto_check_and_one_trivial_core_raise():
    """Markings and automorphisms are certified by the one fold-onto
    check, `folding.fold_onto`, and every core by the one pruning step,
    `Folder._prune`: each message occurs once in the library."""
    src = pathlib.Path(outerspine.__file__).parent
    text = "".join(path.read_text() for path in sorted(src.glob("*.py")))
    for message in ("marking images do not generate pi_1", "trivial core"):
        assert text.count(message) == 1, message


def test_cores_have_one_function_per_form():
    """`covers.stallings_core` returns the unbased core and
    `covers.based_core` the based form: no `SubgroupGraph` wrapper, and no
    function takes or is passed a `based=` switch."""
    found = []
    for path in sorted(pathlib.Path(outerspine.__file__).parent.glob("*.py")):
        text = path.read_text()
        if "SubgroupGraph" in text:
            found.append(path.name)
        for node in ast.walk(ast.parse(text, str(path))):
            names = []
            if isinstance(node, ast.Call):
                names = [k.arg for k in node.keywords]
            elif isinstance(node, ast.FunctionDef):
                names = [a.arg for a in node.args.args + node.args.kwonlyargs]
            if "based" in names:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_exit_codes_are_decided_in_main():
    """The CLI turns errors into exit codes in one place: no `try` statement
    in cli.py outside `main`."""
    path = pathlib.Path(outerspine.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    found = [f.name for f in tree.body
             if isinstance(f, ast.FunctionDef) and f.name != "main"
             and any(isinstance(node, ast.Try) for node in ast.walk(f))]
    found += [node.lineno for node in tree.body if isinstance(node, ast.Try)]
    assert found == []
