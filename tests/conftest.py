import pytest

from siterules import corpus
from siterules.classify import classify_rules
from siterules.ingest import parse_schema
from siterules.rules import canonical_sort, derive_rules


@pytest.fixture(scope="session")
def study_schema():
    return parse_schema(corpus.schema_text())


@pytest.fixture(scope="session")
def catalog(study_schema):
    return study_schema.catalog


@pytest.fixture(scope="session")
def golden():
    return corpus.load_golden_rules()


@pytest.fixture(scope="session")
def counts():
    return corpus.study_group_counts()


@pytest.fixture(scope="session")
def fixture_result(counts, golden):
    return corpus.build_fixture(counts, golden)


@pytest.fixture(scope="session")
def fixture_db(fixture_result):
    return fixture_result.database


@pytest.fixture(scope="session")
def mined_classified(fixture_db):
    return classify_rules(canonical_sort(derive_rules(fixture_db)))
