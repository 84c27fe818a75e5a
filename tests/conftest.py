import pytest

from dp5links.census import (
    clebsch_surface,
    invariant_skew_families,
    lines27,
    orbit_census,
    quadric_surface,
)
from dp5links.groups import standard_groups
from dp5links.normalizer import assemble_normalizer
from dp5links.picard import reconstruct_picard


@pytest.fixture(scope="session")
def groups():
    return standard_groups()


@pytest.fixture(scope="session")
def g20(groups):
    return groups["G20"]


@pytest.fixture(scope="session")
def clebsch():
    return clebsch_surface()


@pytest.fixture(scope="session")
def quadric():
    return quadric_surface()


@pytest.fixture(scope="session")
def cfg(clebsch, g20):
    return lines27(clebsch, g20)


@pytest.fixture(scope="session")
def clebsch_census(clebsch, g20):
    return orbit_census(clebsch, g20, 8)


@pytest.fixture(scope="session")
def quadric_census(quadric, g20):
    return orbit_census(quadric, g20, 8)


@pytest.fixture(scope="session")
def pic(cfg, g20):
    return reconstruct_picard(cfg, g20)


@pytest.fixture(scope="session")
def families(cfg, g20):
    return invariant_skew_families(cfg, g20)


@pytest.fixture(scope="session")
def normalizer_result(g20):
    return assemble_normalizer(g20)
