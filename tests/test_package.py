"""Package surface: every exported name resolves, and each CLI subcommand
imports only the layers it runs."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
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


def test_cli_subcommands_import_only_what_they_run(tmp_path, certify_artifact_path):
    """Only ``certify`` without --verify-only loads the Groebner search; a stored
    certificate is re-checked with ``birot4.certificate``, which needs only ``poly``."""
    loaded = _fresh_interpreter(tmp_path, f"""
        import contextlib, io, json, sys
        WATCHED = ("numpy", "birot4.numeric", "birot4.cases", "birot4.groebner")
        STORED = {str(certify_artifact_path)!r}

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
                    ("check-cases", ["check-cases", "I"]),
                    ("check-cases VII", ["check-cases", "VII", "--certificate", STORED]),
                    ("certify", ["certify"])):
                seen[label] = (birot4.cli.main(argv), snapshot())
        print(json.dumps(seen))
    """)
    assert loaded["trusted"] == ["birot4", "birot4.certificate", "birot4.poly"]
    assert loaded["import"] == []
    assert loaded["derive"] == [0, []]
    assert loaded["verify-only"] == [0, []]
    assert loaded["check-cases"] == [0, ["birot4.cases"]]
    assert loaded["check-cases VII"] == [0, ["birot4.cases"]]
    assert loaded["certify"] == [0, ["birot4.cases", "birot4.groebner"]]
