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


def test_import_leaves_scipy_unloaded():
    # Only the MatrixMarket reader and writer load scipy: importing the
    # package and its command line does not.
    src = str(Path(kaczlab.__file__).resolve().parent.parent)
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, kaczlab, kaczlab.cli; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"
