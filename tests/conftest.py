import pytest
from hypothesis import settings

from lorentzdyn import QuadraticForm, RationalLorentzForm, split_form_3d

from .scenarios import INTEGER_MINK3, INTEGER_SPLIT3

# every property test draws the same examples on every run, and keeps no database
settings.register_profile("lorentzdyn", derandomize=True, database=None)
settings.load_profile("lorentzdyn")


@pytest.fixture
def mink3():
    return QuadraticForm.minkowski(3)


@pytest.fixture
def mink4():
    return QuadraticForm.minkowski(4)


@pytest.fixture
def split3():
    return split_form_3d()


@pytest.fixture
def int_mink3():
    return RationalLorentzForm(gram=INTEGER_MINK3)


@pytest.fixture
def int_split3():
    return RationalLorentzForm(gram=INTEGER_SPLIT3)
