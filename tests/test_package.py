"""The package root loads its submodules lazily (PEP 562): ``import
matchdid`` is cheap, and every public name still resolves."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchdid

# an expression for the numpy, scipy and matchdid submodules loaded so far
LOADED = ("sorted(m for m in sys.modules if m == 'numpy' "
          "or m.startswith(('numpy.', 'scipy', 'matchdid.')))")


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports matchdid from this
    checkout; return the JSON it prints."""
    src = str(Path(matchdid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ
                 else [])))
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_submodule_numpy_or_scipy():
    # numpy and scipy (scipy.optimize above all) were most of the import
    # time of every process that only wanted a few names
    assert fresh(f"import matchdid\nprint(json.dumps({LOADED}))") == []
    # the CLI loads every stage, and still needs none of scipy.stats
    assert fresh("import matchdid.cli\n"
                 "print(json.dumps('scipy.stats' in sys.modules))") is False


def test_every_public_name_resolves_to_its_defining_submodule():
    assert len(matchdid.__all__) == len(set(matchdid.__all__)) == sum(
        len(names) for names in matchdid._EXPORTS.values())
    for sub, names in matchdid._EXPORTS.items():
        module = importlib.import_module(f"matchdid.{sub}")
        for name in names:
            value = getattr(matchdid, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module.__name__) == \
                module.__name__, name
    star = {}
    exec("from matchdid import *", star)
    assert all(star[name] is getattr(matchdid, name)
               for name in matchdid.__all__)


def test_dir_lists_every_name_and_star_import_binds_it():
    got = fresh(
        "import matchdid\n"
        "listed = dir(matchdid)\n"
        f"before = {LOADED}\n"
        "star = {}\n"
        "exec('from matchdid import *', star)\n"
        "print(json.dumps({'dir': listed, 'before': before,\n"
        "                  'bound': sorted(set(star) - {'__builtins__'})}))")
    assert set(matchdid.__all__) <= set(got["dir"])
    assert got["before"] == []
    assert got["bound"] == sorted(matchdid.__all__)


def test_unknown_name_raises_attribute_error_and_loads_nothing():
    got = fresh(
        "import matchdid\n"
        "try:\n"
        "    matchdid.no_such_name\n"
        "    message = None\n"
        "except AttributeError as exc:\n"
        "    message = str(exc)\n"
        f"print(json.dumps({{'message': message, 'loaded': {LOADED}}}))")
    assert got["message"] == "module 'matchdid' has no attribute 'no_such_name'"
    assert got["loaded"] == []
    with pytest.raises(ImportError):
        exec("from matchdid import no_such_name", {})


def test_from_import_loads_only_what_it_names():
    got = fresh(
        "from matchdid import DataValidationError\n"
        f"errors_only = {LOADED}\n"
        "from matchdid import cardmatch\n"
        "print(json.dumps({'errors_only': errors_only, 'loaded': " + LOADED
        + ",\n    'same': cardmatch is sys.modules['matchdid.cardmatch']}))")
    assert got["errors_only"] == ["matchdid.errors"]
    assert got["same"]
    assert "matchdid.cardmatch" in got["loaded"]
    assert not {"matchdid.cli", "matchdid.pipeline", "matchdid.sensan",
                "matchdid.synth"} & set(got["loaded"])


@pytest.mark.parametrize("module", ["matchdid.impute", "matchdid.model"])
def test_birth_regressors_load_no_scipy(module):
    # the regressor row impute shares with infer lives in model, so that
    # impute does not pull infer, and with it scipy, in
    assert fresh(f"import {module}\n"
                 "print(json.dumps(sorted(m for m in sys.modules\n"
                 "                        if m.split('.')[0] == 'scipy')))") == []


def test_benchmark_tracer_finds_every_patch_point():
    # perfbench/tracer.py patches matchdid names where they are looked up;
    # a renamed one fails here rather than in a traced benchmark run
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "from tracer import Tracer, instrument\ninstrument(Tracer())"],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


def test_infer_catches_a_failed_cholesky_in_one_function():
    # every Cholesky factorisation of the REML core goes through
    # infer._cholesky, so a matrix that does not factor meets one rule
    tree = ast.parse(Path(matchdid.__file__).with_name("infer.py").read_text())
    catching = {func.name for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef)
                for node in ast.walk(func)
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and "LinAlgError" in ast.unparse(node.type)}
    assert catching == {"_cholesky"}
