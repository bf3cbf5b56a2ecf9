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


class CoverLog(list):
    """The bound of every weighted-cover answer, in order; `built` holds, in
    order, the bounds of the answers that built LP columns."""

    def __init__(self):
        super().__init__()
        self.built = []

    def clear(self):
        super().clear()
        self.built.clear()


@pytest.fixture
def cover_bounds(monkeypatch):
    """A CoverLog from then on.  Each weighted-cover answer, shared full-set
    cover or `cover_maximum`, lists its members once by `lp.core._submasks`,
    which ends with the bound (so does `cover_certifies`, which no predicate
    calls).  Only an answer whose Bland path leaves the singletons builds its
    LP columns, once, by `lp.core._cover_columns`."""
    from capax.lp import core

    bounds, members, build = CoverLog(), core._submasks, core._cover_columns

    def listed(bound):
        bounds.append(bound)
        return members(bound)

    def built(values, members):
        bounds.built.append(members[-1])
        return build(values, members)

    monkeypatch.setattr(core, "_submasks", listed)
    monkeypatch.setattr(core, "_cover_columns", built)
    return bounds


@pytest.fixture
def skewed_optimum(monkeypatch):
    """skew(edit): from then on every tableau `lp.core._revised` returns is
    passed to edit(tab, columns) first, which changes its integer cells."""
    from capax.lp import core

    revised = core._revised

    def skew(edit):
        def skewed(rhs, columns, start=()):
            out = revised(rhs, columns, start)
            edit(out[0], columns)
            return out

        monkeypatch.setattr(core, "_revised", skewed)

    return skew
