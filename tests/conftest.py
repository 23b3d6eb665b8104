import pytest
from hypothesis import settings

from dppln import DesignRequest, Scheme, WaveguideGeometry, design

# Every run draws the same examples and writes no example database.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

TABLE_SIZES = (6.5, 8.0, 10.0, 12.0)
PUMP_NM = 519.0
SIGNAL1_NM = 780.0
SIGNAL2_NM = 775.0


def request_for(scheme, size_um, length_cm=1.0):
    return DesignRequest(
        scheme=scheme,
        pump_nm=PUMP_NM,
        signal1_nm=SIGNAL1_NM,
        signal2_nm=SIGNAL2_NM,
        geometry=WaveguideGeometry(size_um, size_um, length_cm),
    )


@pytest.fixture(scope="session")
def type0_designs():
    """Co-polarized designs at the four square table sizes."""
    return {size: design(request_for(Scheme.TYPE0_EEE, size)) for size in TABLE_SIZES}


@pytest.fixture(scope="session")
def type2_designs():
    """Cross-polarized designs at the four square table sizes."""
    return {size: design(request_for(Scheme.TYPE2_CROSS, size)) for size in TABLE_SIZES}


@pytest.fixture(scope="session")
def design_type0_10(type0_designs):
    return type0_designs[10.0]


@pytest.fixture(scope="session")
def design_type2_65(type2_designs):
    return type2_designs[6.5]
