import hypothesis
import pytest

hypothesis.settings.register_profile(
    "capax", deadline=None, derandomize=True, max_examples=60
)
hypothesis.settings.load_profile("capax")


@pytest.fixture(scope="session")
def nustar():
    """The balanced-but-not-totally-balanced four-point fixture."""
    from capax.selftest import nustar as make

    return make()


@pytest.fixture
def cover_bounds(monkeypatch):
    """The bound of every weighted-cover LP built from then on, in order:
    each one, shared full-set cover or `cover_maximum`, builds its columns
    once by `lp.core._cover_columns`, whose members end with the bound (so
    does `cover_certifies`, which no predicate calls)."""
    from capax.lp import core

    bounds, build = [], core._cover_columns

    def counted(values, members):
        bounds.append(members[-1])
        return build(values, members)

    monkeypatch.setattr(core, "_cover_columns", counted)
    return bounds


@pytest.fixture
def skewed_optimum(monkeypatch):
    """skew(edit): from then on every tableau `lp.core._revised` returns is
    passed to edit(tab, columns) first, which changes its integer cells."""
    from capax.lp import core

    revised = core._revised

    def skew(edit):
        def skewed(rhs, columns):
            out = revised(rhs, columns)
            edit(out[0], columns)
            return out

        monkeypatch.setattr(core, "_revised", skewed)

    return skew
