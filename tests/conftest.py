import os
from pathlib import Path

import pytest
from hypothesis import settings

from rightsrisk import parse_kb

# CI sets HYPOTHESIS_PROFILE=ci: no per-example deadline, so a stall on a
# shared runner fails nothing, and a failing example prints its replay blob.
settings.register_profile("ci", deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str):
    return parse_kb((FIXTURES / name).read_text(), file=name)


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture()
def pandemic_kb():
    return load_fixture("pandemic.rights")


@pytest.fixture()
def scholarship_kb():
    return load_fixture("scholarship.rights")


@pytest.fixture()
def privacy_kb():
    return load_fixture("privacy.rights")


@pytest.fixture()
def triage_kb():
    return load_fixture("triage.rights")
