import os
import sys
from pathlib import Path

# One BLAS thread: the tests solve many small eigenproblems (Hill's method),
# where BLAS threads gain nothing on an idle machine and slow the solves
# several times when another process holds a core.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hillband.potential import MultiplicityVector, PotentialSpec


@pytest.fixture(scope="session")
def lame_spec():
    return PotentialSpec.elliptic(MultiplicityVector(1, 0, 0, 0), 1j)


@pytest.fixture(scope="session")
def spec_2210():
    return PotentialSpec.elliptic(MultiplicityVector(2, 2, 1, 0), 1j)


@pytest.fixture(scope="session")
def spec_1221():
    return PotentialSpec.elliptic(MultiplicityVector(1, 2, 2, 1), 1j)


@pytest.fixture(scope="session")
def gap_report_2210(spec_2210):
    from hillband.spectrum import gap_eigenvalue_report

    return gap_eigenvalue_report(spec_2210)
