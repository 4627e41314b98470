import pytest

from lorentzdyn import QuadraticForm, RationalLorentzForm, split_form_3d

from .scenarios import INTEGER_MINK3, INTEGER_SPLIT3


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
