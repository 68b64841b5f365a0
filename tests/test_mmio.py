import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse

import kaczlab
from kaczlab import mmio


def test_matrix_roundtrip_array_format(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 3))
    path = tmp_path / "A.mtx"
    mmio.write_matrix(path, A)
    np.testing.assert_allclose(mmio.read_matrix(path), A, atol=1e-14)


def test_matrix_coordinate_format_read(tmp_path):
    A = np.zeros((4, 4))
    A[0, 1] = 2.5
    A[3, 2] = -1.0
    path = tmp_path / "sparse.mtx"
    scipy.io = __import__("scipy.io", fromlist=["mmwrite"])
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(A))
    np.testing.assert_allclose(mmio.read_matrix(path), A)


def test_vector_roundtrip(tmp_path):
    v = np.array([1.0, -2.5, 3.25e-9])
    path = tmp_path / "b.txt"
    mmio.write_vector(path, v)
    np.testing.assert_allclose(mmio.read_vector(path), v, rtol=1e-15)


def test_vector_single_value(tmp_path):
    path = tmp_path / "one.txt"
    mmio.write_vector(path, [7.0])
    out = mmio.read_vector(path)
    assert out.shape == (1,)
    assert out[0] == 7.0


def _fresh_python(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this kaczlab."""
    src = str(Path(kaczlab.__file__).resolve().parent.parent)
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # Only the MatrixMarket reader and writer load scipy: importing the
    # package and its command line does not.
    code = ("import sys, kaczlab, kaczlab.cli; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "[]"


def test_partition_draws_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma (about 10 ms and 1 MB in a fresh process):
    # a partition of blocks of several sizes, built and drawn from in
    # lockstep trials, sorts its sizes without it.
    code = ("import sys, kaczlab\n"
            "system = kaczlab.generate_problem(kaczlab.GaussianNormalized(12, 4, seed=0))\n"
            "spec = kaczlab.partition_spec([(0, 1, 2), (3, 4), (5, 6, 7, 8), (9, 10, 11)])\n"
            "config = kaczlab.SolverConfig('rbk', spec, kaczlab.uniform_weights(spec),\n"
            "                              kaczlab.ClassicConstant(1.0), max_iters=20)\n"
            "kaczlab.run_monte_carlo(config, system, 4)\n"
            "print('numpy.ma' in sys.modules)")
    assert _fresh_python(code) == "False"
