"""Package surface: every exported name resolves, each CLI subcommand
imports only the layers it runs, no module imports a name it never reads,
no private helper is left without a caller, and the trusted core has no
public function that nothing uses."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import birot4

SRC = str(Path(birot4.__file__).resolve().parent.parent)


def _fresh_interpreter(tmp_path, code: str):
    """Run ``code`` in a new interpreter; return the JSON its last line prints."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          cwd=tmp_path, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_every_exported_name_resolves(tmp_path):
    modules = [birot4] + [importlib.import_module(f"birot4.{info.name}")
                          for info in pkgutil.iter_modules(birot4.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"

    # the package loads its names on first use; check that from a cold start
    seen = _fresh_interpreter(tmp_path, """
        import json
        import birot4
        numeric = birot4.numeric.__name__  # a submodule, before anything imports it
        listed = set(dir(birot4))
        namespace = {}
        exec("from birot4 import *", namespace)
        print(json.dumps({"numeric": numeric,
                          "dir": sorted(set(birot4.__all__) - listed),
                          "unbound": sorted(set(birot4.__all__) - set(namespace))}))
    """)
    assert seen["numeric"] == "birot4.numeric"
    assert seen["dir"] == [], "dir(birot4) misses exported names"
    assert seen["unbound"] == [], "from birot4 import * misses exported names"


def test_cli_subcommands_import_only_what_they_run(tmp_path, certify_artifact_path,
                                                   certify_artifact_v2_path,
                                                   certify_artifact_v1_path):
    """Only ``certify`` without --verify-only loads the Groebner search; a stored
    certificate, in the @3 or the older @2 and @1 document formats, is
    re-checked with ``birot4.certificate``, which needs only ``poly``.
    The search's worker is forked by ``birot4.groebner`` alone: no run loads
    ``multiprocessing``, and only that search loads ``signal``."""
    loaded = _fresh_interpreter(tmp_path, f"""
        import contextlib, io, json, sys
        WATCHED = ("numpy", "birot4.numeric", "birot4.cases", "birot4.groebner",
                   "multiprocessing", "signal")
        STORED = {str(certify_artifact_path)!r}
        STORED_2 = {str(certify_artifact_v2_path)!r}
        STORED_1 = {str(certify_artifact_v1_path)!r}

        def snapshot():
            return [name for name in WATCHED if name in sys.modules]

        seen = {{}}
        import birot4.certificate
        seen["trusted"] = sorted(name for name in sys.modules if name.startswith("birot4"))
        import birot4.cli
        seen["import"] = snapshot()
        with contextlib.redirect_stdout(io.StringIO()):
            for label, argv in (
                    ("derive", ["derive", "--case", "V"]),
                    ("verify-only", ["certify", "--verify-only", STORED]),
                    ("verify-only @2", ["certify", "--verify-only", STORED_2]),
                    ("verify-only @1", ["certify", "--verify-only", STORED_1]),
                    ("check-cases", ["check-cases", "I"]),
                    ("check-cases VII", ["check-cases", "VII", "--certificate", STORED]),
                    ("check-cases VII @2", ["check-cases", "VII", "--certificate", STORED_2]),
                    ("check-cases VII @1", ["check-cases", "VII", "--certificate", STORED_1]),
                    ("certify", ["certify"])):
                seen[label] = (birot4.cli.main(argv), snapshot())
        print(json.dumps(seen))
    """)
    assert loaded["trusted"] == ["birot4", "birot4.certificate", "birot4.poly"]
    assert loaded["import"] == []
    assert loaded["derive"] == [0, []]
    assert loaded["verify-only"] == loaded["verify-only @2"] == loaded["verify-only @1"] \
        == [0, []]
    assert loaded["check-cases"] == [0, ["birot4.cases"]]
    assert loaded["check-cases VII"] == loaded["check-cases VII @2"] \
        == loaded["check-cases VII @1"] == [0, ["birot4.cases"]]
    assert loaded["certify"] == [0, ["birot4.cases", "birot4.groebner", "signal"]]


# The birot4 modules that `certify --verify-only` and `check-cases --certificate`
# loaded on a stored certificate before the @3 format, and modules that reading
# base64 numerals must not bring in.  Which standard modules a run loads beyond
# these depends on the interpreter, so those are compared between two runs of one
# interpreter instead.
RE_CHECK_BIROT4_MODULES = frozenset({
    "birot4", "birot4.cases", "birot4.certificate", "birot4.cli", "birot4.constraints",
    "birot4.fixtures", "birot4.poly", "birot4.series", "birot4.univariate", "birot4.witness",
})
RE_CHECK_UNWANTED_MODULES = frozenset({
    "base64", "struct", "_struct", "encodings.base64_codec", "zlib", "numpy",
    "multiprocessing", "signal", "birot4.groebner", "birot4.numeric",
})


def test_re_checking_a_stored_certificate_loads_no_new_module(
        tmp_path, certify_artifact_path, certify_artifact_v2_path):
    """Each re-check, run in a fresh interpreter on the @3 artifact, loads no
    birot4 module beyond those it loaded before @3, none of the unwanted
    modules, and no module that the same run on the @2 artifact leaves
    unloaded, except binascii."""
    def loaded_by(argv):
        code, loaded = _fresh_interpreter(tmp_path, f"""
            import contextlib, io, json, sys
            before = set(sys.modules)
            import birot4.cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = birot4.cli.main({argv!r})
            print(json.dumps([code, sorted(set(sys.modules) - before)]))
        """)
        assert code == 0, argv
        return set(loaded)

    for command in (["certify", "--verify-only"], ["check-cases", "--certificate"]):
        loaded = loaded_by([*command, str(certify_artifact_path)])
        birot4_loaded = {name for name in loaded if name.split(".")[0] == "birot4"}
        assert sorted(birot4_loaded - RE_CHECK_BIROT4_MODULES) == [], command
        assert sorted(loaded & RE_CHECK_UNWANTED_MODULES) == [], command
        loaded_2 = loaded_by([*command, str(certify_artifact_v2_path)])
        assert sorted(loaded - loaded_2 - {"binascii"}) == [], command


def test_sign_witnesses_load_only_the_trusted_core(tmp_path):
    """The sign-claim checks need polynomial arithmetic and Sturm counts only."""
    loaded = _fresh_interpreter(tmp_path, """
        import json, sys
        import birot4.witness
        print(json.dumps(sorted(name for name in sys.modules if name.startswith("birot4"))))
    """)
    assert loaded == ["birot4", "birot4.poly", "birot4.univariate", "birot4.witness"]


def test_the_case_checker_never_imports_the_search():
    """``birot4.cases`` checks the certificate it is given; only ``birot4.cli``
    runs the search, so no import statement in ``cases``, at the top or
    inside a function, reaches ``birot4.groebner``."""
    path = Path(birot4.__file__).resolve().parent / "cases.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the package, birot4
                module = ".".join(filter(None, ("birot4", module)))
            imported.update([module] + [f"{module}.{alias.name}" for alias in node.names])
    reached = sorted(name for name in imported
                     if name == "birot4.groebner" or name.startswith("birot4.groebner."))
    assert reached == []


def test_the_command_layer_builds_no_profile():
    """Each case's profile is built by ``constraints.case_profile``; no call
    in ``birot4.cli`` solves or forces a profile series itself."""
    path = Path(birot4.__file__).resolve().parent / "cli.py"
    builders = {"ProfileIVP", "solve_profile_ivp", "quadratic_forced_component"}
    called = sorted({getattr(node.func, "id", getattr(node.func, "attr", None))
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Call)} & builders)
    assert called == []


def _unused_imports(path: Path) -> list[str]:
    """Top-level imported names that the module never reads.

    ``__future__`` imports and statements marked ``# noqa: F401`` (a
    deliberate re-export) are skipped; a name is read where the module
    loads it anywhere.  ``__init__.py`` imports its exports lazily through
    a table of strings, so it has no such import to check.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{path.name}:{stmt.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_reads():
    package = Path(birot4.__file__).resolve().parent
    unused = [entry for path in sorted(package.glob("*.py")) for entry in _unused_imports(path)]
    assert unused == []


def _referenced_elsewhere(function: ast.FunctionDef, trees) -> bool:
    """Some name or attribute in ``trees`` outside ``function`` itself reads it."""
    own = {id(node) for node in ast.walk(function)}
    return any(id(node) not in own
               and function.name in (getattr(node, "id", None), getattr(node, "attr", None))
               for tree in trees for node in ast.walk(tree))


def test_every_private_helper_has_a_caller():
    """Each module-level function and method named ``_x`` (dunders aside) is
    referenced in the package outside its own definition, so a helper that a
    refactor leaves behind fails here."""
    package = Path(birot4.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    helpers = [node for tree in trees for top in tree.body
               for node in (top.body if isinstance(top, ast.ClassDef) else [top])
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert helpers
    uncalled = [f"{helper.name} (line {helper.lineno})" for helper in helpers
                if not _referenced_elsewhere(helper, trees)]
    assert uncalled == []


def test_every_public_function_of_the_trusted_core_has_a_user():
    """Each public module-level function of ``poly``, ``univariate``,
    ``certificate`` and ``witness`` is referenced in the package outside its
    own definition, or named in ``perfbench/``.  The strings of
    ``__init__``'s export table are not references, so a function that only
    tests call fails here."""
    package = Path(birot4.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    bench_text = "\n".join(path.read_text() for path in sorted(perfbench.glob("*.py")))
    functions = [node for module in ("poly", "univariate", "certificate", "witness")
                 for node in trees[module].body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert functions
    unused = [f"{function.name} (line {function.lineno})" for function in functions
              if not (_referenced_elsewhere(function, trees.values())
                      or re.search(rf"\b{function.name}\b", bench_text))]
    assert unused == []
