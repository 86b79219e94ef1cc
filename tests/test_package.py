"""The package's lazy public names, the numpy-free solver commands, and its result records."""

import dataclasses
import importlib
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import missingmass

#: Run in a fresh interpreter: the solver commands, one failing, then the
#: modules that are loaded.
_SOLVER_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import missingmass
    import missingmass.cli

    codes = []
    for argv in (
        ["maximize", "--n", "1000", "--m", "300"],
        ["maximize", "--n", "1000", "--m", "inf"],
        ["sweep", "--b-min", "0.01", "--b-max", "2.0", "--steps", "20"],
        ["sweep", "--b-min", "0.01", "--b-max", "2.0", "--steps", "20", "--spacing", "geometric"],
        ["landscape", "--c-max", "6", "--grid", "10"],
        ["maximize", "--n", "0"],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(missingmass.cli.main(argv))
    print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
    """
)


def _run_fresh(script: str) -> str:
    """The output of ``script`` in a fresh interpreter that imports this package."""
    src = str(Path(missingmass.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout


def test_solver_commands_load_no_numpy():
    result = json.loads(_run_fresh(_SOLVER_SCRIPT))
    assert result["codes"] == [0, 0, 0, 0, 0, 2]
    assert "numpy" not in result["modules"]
    assert {"missingmass.dist", "missingmass.variance"}.isdisjoint(result["modules"])


def test_simulate_loads_no_thread_pool():
    assert _run_fresh("import sys, missingmass.simulate; print('concurrent.futures' in sys.modules)") == "False\n"


@pytest.mark.parametrize("name", missingmass.__all__)
def test_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"missingmass.{missingmass._EXPORTS[name]}")
    value = getattr(missingmass, name)
    assert value is getattr(home, name)  # the benchmark's tracer patches functions by identity
    assert vars(missingmass)[name] is value  # cached: later reads are plain attribute reads


def test_dir_lists_every_public_name():
    assert set(missingmass.__all__) <= set(dir(missingmass))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from missingmass import *", namespace)
    assert set(missingmass.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(missingmass, name) for name in missingmass.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        missingmass.no_such_name


def test_size_names_are_not_re_exported():
    from missingmass import dist

    with pytest.raises(AttributeError, match="AlphabetBound"):
        missingmass.AlphabetBound
    assert not hasattr(dist, "INFINITE")


def _results():
    d = missingmass.from_probs([0.5, 0.3, 0.2])
    return [
        (missingmass.exact_variance(d, 10), ("value", "method", "n")),
        (
            missingmass.gap_report(d, 10),
            ("n", "mode", "true_variance", "subgamma_v", "iid_major_v", "gap_subgamma", "gap_iid"),
        ),
        (missingmass.estimate_variance(d, 10, 50, seed=1), ("trials", "mean", "variance", "se_mean", "se_variance", "seed")),
    ]


@pytest.mark.parametrize("index", range(3), ids=["VarianceEstimate", "GapReport", "SimulationEstimate"])
def test_result_objects_are_slotted_records(index):
    # Slots keep a kept result small; pickling, dataclasses.replace and the
    # dataclasses.asdict field order that the CLI writes stay as they were.
    result, fields = _results()[index]
    assert not hasattr(result, "__dict__")
    assert pickle.loads(pickle.dumps(result)) == result
    first = fields[0]
    changed = dataclasses.replace(result, **{first: getattr(result, first)})
    assert changed == result and changed is not result
    assert tuple(dataclasses.asdict(result)) == fields
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(result, first, None)


def _sample_size_entry_points():
    d = missingmass.from_probs([0.5, 0.3, 0.2])
    return {
        "exact_variance": lambda n: missingmass.exact_variance(d, n),
        "approx_variance_thm1": lambda n: missingmass.approx_variance_thm1(d, n),
        "poissonized_variance": lambda n: missingmass.poissonized_variance(d, n),
        "expected_missing_mass": lambda n: missingmass.expected_missing_mass(d, n),
        "subgamma_v": lambda n: missingmass.subgamma_v(d, n),
        "iid_majorization_v": lambda n: missingmass.iid_majorization_v(d, n),
        "gap_report-exact": lambda n: missingmass.gap_report(d, n),
        "gap_report-poissonized": lambda n: missingmass.gap_report(d, n, missingmass.VarianceMethod.POISSONIZED),
        "max_subgamma_uniform_dirac": lambda n: missingmass.max_subgamma_uniform_dirac(n),
        "sample_missing_mass": lambda n: missingmass.sample_missing_mass(d, n, 0),
        "estimate_variance": lambda n: missingmass.estimate_variance(d, n, 10, 0),
        "worst_case_distribution": lambda n: missingmass.worst_case_distribution(n),
    }


@pytest.mark.parametrize("name", sorted(_sample_size_entry_points()))
def test_sample_size_must_be_an_integer(name):
    # A float n, even an integral one, is a ValueError at every entry point;
    # a numpy integer passes as a Python int, so not even uint8 overflows
    # inside simulate or the sub-gamma scan.
    np = pytest.importorskip("numpy")
    call = _sample_size_entry_points()[name]
    for n in (2.5, 1000.0, np.float64(10.0)):
        with pytest.raises(ValueError, match="sample size must be an integer"):
            call(n)
    for n in (np.int64(200), np.uint8(200)):
        assert call(n) == call(200)
