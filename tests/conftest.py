import pytest
from hypothesis import settings

settings.register_profile("ditkit", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("ditkit")


@pytest.fixture
def label_tables(monkeypatch) -> list[int]:
    """The sizes of the tables of all 2**k variant labels built from here
    on, in order: mechanisms._labels counts its calls."""
    from ditkit import mechanisms

    built = []
    labels = mechanisms._labels

    def counted(k: int) -> list[str]:
        table = labels(k)
        built.append(len(table))
        return table

    monkeypatch.setattr(mechanisms, "_labels", counted)
    return built
