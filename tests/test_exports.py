from __future__ import annotations

from types import ModuleType

import hgpoly


def test_all_lists_exactly_the_public_names():
    bound = {
        name
        for name, value in vars(hgpoly).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    # equal to the bound names, every listed name resolves
    assert len(hgpoly.__all__) == len(set(hgpoly.__all__))
    assert set(hgpoly.__all__) == bound
